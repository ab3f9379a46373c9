"""Spans around the package's layer entry points, for the traced run only.

`Tracer.install` replaces each target in `TARGETS` with a wrapper that
records one span per call: name, start, end, parent span and the
workload-run id. Module functions are replaced as module attributes and
methods as class attributes, so the package reaches the wrappers through
its own lookups: `vqls.solve` calls `ansatz_state` and `rescale_solution`
by global name, `spsa.run` calls `step` by global name, and the other
modules call `sim.*`, `pauli.*` and `problem.*` as attributes.
`Tracer.uninstall` puts every original back, so nothing stays wrapped
outside the traced pass.

Spans live in flat arrays while the pass runs and are written out once,
after it, together with what the sampler wrappers saw (label and shots
of every sampled Pauli string, and the cost evaluation it belonged to).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute path) of every wrapped layer entry point. Helpers
# that these call internally (sim.apply, pauli.label_matrix, ...) stay
# unwrapped, so their time is the self time of the layer that calls them.
TARGETS = (
    ("problem", "build_block_system"),
    ("problem", "classical_solve"),
    ("pauli", "decompose"),
    ("pauli", "pauli_product"),
    ("sim", "Circuit.run"),
    ("sim", "Circuit.unitary"),
    ("sim", "expectation"),
    ("sim", "sample_expectation"),
    ("vqls", "ansatz_state"),
    ("vqls", "CostEvaluator.__init__"),
    ("vqls", "CostEvaluator.local_cost_of_state"),
    ("vqls", "rescale_solution"),
    ("vqls", "solve"),
    ("vqls", "run_ensemble"),
    ("spsa", "run"),
    ("spsa", "step"),
    ("resources", "sweep"),
    ("cli", "main"),
)

EVAL = "vqls.CostEvaluator.local_cost_of_state"
SAMPLER = "sim.sample_expectation"


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.runs: list[str] = []
        self.name_id = array("i")
        self.run_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._run = -1
        self._originals: list[tuple[object, str, object]] = []
        # one (cost-evaluation span, label, shots) per sampler call
        self.samples: list[tuple[int, str, int]] = []

    # -- spans ---------------------------------------------------------

    def _name(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def span(self, name: str):
        """Context manager recording one span named `name`."""
        return _Span(self, self._name(name))

    def begin_run(self, run_id: str) -> None:
        self.runs.append(run_id)
        self._run = len(self.runs) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.run_id.append(self._run)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._name(name)
        on_call = self._sampler_hook(fn) if name == SAMPLER else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            if on_call is not None:
                on_call(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _sampler_hook(self, fn):
        params = list(inspect.signature(fn).parameters)
        label_pos, shots_pos = params.index("label"), params.index("shots")

        def on_call(args, kwargs):
            label = args[label_pos] if len(args) > label_pos else kwargs["label"]
            shots = args[shots_pos] if len(args) > shots_pos else kwargs["shots"]
            eval_id = self.names.get(EVAL)
            owner = next((i for i in reversed(self._stack) if i >= 0 and self.name_id[i] == eval_id), -1)
            self.samples.append((owner, label, int(shots)))

        return on_call

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        for module_name, path in TARGETS:
            owner = importlib.import_module(f"advqls.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(f"{module_name}.{path}", original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; `name` and `run` index `names` and `runs`."""
        return {
            "names": np.array(list(self.names)),
            "runs": np.array(self.runs),
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "run": np.frombuffer(self.run_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
        }

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            **self.arrays(),
            sample_eval=np.array([s[0] for s in self.samples], dtype=np.int64),
            sample_label=np.array([s[1] for s in self.samples], dtype=str),
            sample_shots=np.array([s[2] for s in self.samples], dtype=np.int64),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times from the recorded spans."""
        spans = self.arrays()
        name_id, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - children

        def stats(name):
            mask = name_id == self.names.get(name, -1)
            d = duration[mask]
            if not d.size:
                return 0, 0.0, 0.0, 0.0
            p50, p99 = np.percentile(d, [50, 99])
            return int(mask.sum()), float(self_time[mask].sum()), float(p50), float(p99)

        evals, cost_self, cost_p50, _ = stats(EVAL)
        members = stats("vqls.solve")[0]
        run_calls, run_self, run_p50, run_p99 = stats("sim.Circuit.run")
        exp_calls, exp_self, _, _ = stats("sim.expectation")
        smp_calls, smp_self, smp_p50, smp_p99 = stats(SAMPLER)
        prod_calls, prod_self, _, _ = stats("pauli.pauli_product")
        nonidentity = [s for s in self.samples if set(s[1]) != {"I"}]
        distinct = len({(s[0], s[1]) for s in self.samples})

        def per(x, base):
            return x / base if base else 0.0

        return {
            "sim.Circuit.run.calls": run_calls,
            "sim.Circuit.run.self_s": run_self,
            "sim.Circuit.run.p50_us": run_p50 * 1e6,
            "sim.Circuit.run.p99_us": run_p99 * 1e6,
            "vqls.ansatz_state.per_eval": per(stats("vqls.ansatz_state")[0], evals),
            f"{EVAL}.self_s": cost_self,
            f"{EVAL}.p50_ms": cost_p50 * 1e3,
            "sim.expectation.calls": exp_calls,
            "sim.expectation.self_s": exp_self,
            f"{SAMPLER}.calls": smp_calls,
            f"{SAMPLER}.self_s": smp_self,
            f"{SAMPLER}.p50_us": smp_p50 * 1e6,
            f"{SAMPLER}.p99_us": smp_p99 * 1e6,
            f"{SAMPLER}.per_eval": per(smp_calls, evals),
            f"{SAMPLER}.nonidentity_per_eval": per(len(nonidentity), evals),
            f"{SAMPLER}.distinct_per_eval": per(distinct, evals),
            f"{SAMPLER}.distinct_frac": per(distinct, smp_calls),
            "sim.shots_drawn": sum(s[2] for s in nonidentity),
            "pauli.pauli_product.calls": prod_calls,
            "pauli.pauli_product.self_s": prod_self,
            "pauli.decompose.self_s": stats("pauli.decompose")[1],
            "vqls.CostEvaluator.__init__.self_s": stats("vqls.CostEvaluator.__init__")[1],
            "sim.Circuit.unitary.self_s": stats("sim.Circuit.unitary")[1],
            "problem.build_block_system.self_s": stats("problem.build_block_system")[1],
            "problem.classical_solve.self_s": stats("problem.classical_solve")[1],
            "spsa.step.self_s": stats("spsa.step")[1],
            "vqls.rescale_solution.self_s": stats("vqls.rescale_solution")[1],
            "cli.main.self_s": stats("cli.main")[1],
            "resources.sweep.self_s": stats("resources.sweep")[1],
            "vqls.cost_evals": evals,
            "vqls.cost_evals_per_member": per(evals, members),
        }


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
