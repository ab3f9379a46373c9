"""What other code relies on by name: the README's library example and the
layer entry points the traced benchmark wraps."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np

from advqls import sim

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["records"]) == 24
    assert np.isfinite(namespace["mean"]).all()
    assert capsys.readouterr().out


def test_bench_tracing_targets_resolve():
    # each target is looked up the way Tracer.install looks it up, so a
    # rename or deletion fails here and not only in the traced benchmark
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, path in tracing.TARGETS:
        owner = importlib.import_module(f"advqls.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__[attr]), f"{module_name}.{path}"
    # the sampler wrapper reads these two arguments by name
    assert {"label", "shots"} <= set(inspect.signature(sim.sample_expectation).parameters)
