"""Golden CLI outputs: the commands behind `tests/data/golden_outputs.json`
and the script that regenerates it.

Each command runs through `cli.main` in one scratch directory, in the
order given, so `trace` reads the records that the exact `solve` wrote.
The file keeps every output file a command wrote, parsed: JSON as its
object, CSV as its header and rows, each cell read as an int, a float, a
bool (true/false) or a string. `tests/test_golden_outputs.py` compares a
fresh run against it. Regenerate only when a change alters outputs on
purpose, and record the largest move per file where the change is
recorded:

    PYTHONPATH=src python tests/golden_outputs.py
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from advqls import cli, problem

PATH = Path(__file__).resolve().parent / "data" / "golden_outputs.json"

# varies between reruns by design, so never compared
EXCLUDED = frozenset({"run_timing.json"})

# input files written into the scratch directory before the commands run
INPUTS = {
    "config_dt1.json": {"problem": {"dt": 1}, "spsa_overrides": {"max_iter": 20}},
    "config_16_3.json": {"problem": {"n": 16, "n_t": 3}},
}
MATRIX = "a_reduced.csv"  # the default spec's reduced matrix

# name -> `advqls` arguments, run in this order
COMMANDS = {
    "solve-exact": ["solve", "--ensemble", "2", "--out", "exact"],
    "solve-shots8192": ["solve", "--ensemble", "2", "--shots", "8192", "--out", "shots"],
    "solve-config-dt1": ["solve", "--config", "config_dt1.json", "--ensemble", "2",
                         "--out", "dt1"],
    "solve-classical-16-3": ["solve", "--classical-only", "--config", "config_16_3.json",
                             "--out", "classical"],
    "trace-member-1": ["trace", "--member", "1", "--out", "exact"],
    "decompose": ["decompose", "--matrix", MATRIX, "--out", "decompose"],
    "circuits": ["circuits", "--l-max", "60", "--out", "circuits"],
    "estimate": ["estimate", "--tau", "3", "--resolutions", "5,2,1,0.25", "--out", "estimate"],
}


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(text, text)


def parse(path: Path):
    """A JSON file as its object; a CSV file as {"header", "rows"}."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    header, *rows = csv.reader(text.splitlines())
    return {"header": header, "rows": [[_cell(c) for c in row] for row in rows]}


def run(workdir: Path) -> dict:
    """Run every command in `workdir`; {command: {file name: parsed file}}
    for the files each command wrote."""
    workdir = Path(workdir)
    for name, data in INPUTS.items():
        (workdir / name).write_text(json.dumps(data), encoding="utf-8")
    a_reduced = problem.build_block_system(problem.ProblemSpec()).a_reduced
    np.savetxt(workdir / MATRIX, a_reduced, fmt="%.17g", delimiter=",")
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)  # the decompose manifest echoes the matrix path
    try:
        for name, argv in COMMANDS.items():
            out = Path(argv[argv.index("--out") + 1])
            before = set(out.iterdir()) if out.exists() else set()
            if cli.main(argv) != 0:
                raise RuntimeError(f"advqls {' '.join(argv)} failed")
            written = sorted(set(out.iterdir()) - before)
            outputs[name] = {p.name: parse(p) for p in written if p.name not in EXCLUDED}
    finally:
        os.chdir(cwd)
    return outputs


def _close(new: float, old: float) -> bool:
    if math.isnan(old):
        return math.isnan(new)
    return math.isclose(new, old, rel_tol=1e-9, abs_tol=1e-9)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def differences(command: str, new: dict, old: dict) -> list[str]:
    """Every place where the files `command` wrote depart from the golden
    ones, each naming the command, the file, the key or the row and
    column, and the move. Keys, headers, strings, bools, ints and the JSON
    type of each value must match exactly; floats agree within 1e-9
    (absolute or relative). A CSV cell has no JSON type, so there an int
    and a float compare as numbers."""
    if new.keys() != old.keys():
        return [f"{command}: wrote {sorted(new)}, golden {sorted(old)}"]
    found = []
    for name in old:
        where = f"{command} {name}"
        if name.endswith(".csv"):
            found += _csv_differences(new[name], old[name], where)
        else:
            found += _value_differences(new[name], old[name], where)
    return found


def _value_differences(new, old, where: str, csv_cell: bool = False) -> list[str]:
    if csv_cell and _is_number(new) and _is_number(old) and float in (type(new), type(old)):
        new, old = float(new), float(old)
    if type(new) is not type(old):
        return [f"{where}: {new!r} ({type(new).__name__}), golden {old!r} ({type(old).__name__})"]
    if isinstance(old, float):
        if _close(new, old):
            return []
        return [f"{where}: {new!r}, golden {old!r}, moved by {new - old:+.3e}"]
    if isinstance(old, dict):
        if new.keys() != old.keys():
            return [f"{where}: keys {sorted(new)}, golden {sorted(old)}"]
        return [d for key in old for d in _value_differences(new[key], old[key], f"{where}[{key!r}]")]
    if isinstance(old, list):
        if len(new) != len(old):
            return [f"{where}: {len(new)} entries, golden {len(old)}"]
        return [d for i, (n, o) in enumerate(zip(new, old))
                for d in _value_differences(n, o, f"{where}[{i}]")]
    return [] if new == old else [f"{where}: {new!r}, golden {old!r}"]


def _csv_differences(new: dict, old: dict, where: str) -> list[str]:
    if new["header"] != old["header"]:
        return [f"{where} header: {new['header']}, golden {old['header']}"]
    if len(new["rows"]) != len(old["rows"]):
        return [f"{where}: {len(new['rows'])} rows, golden {len(old['rows'])}"]
    found = []
    for i, (new_row, old_row) in enumerate(zip(new["rows"], old["rows"])):
        if len(new_row) != len(old_row):
            found.append(f"{where} row {i}: {len(new_row)} cells, golden {len(old_row)}")
            continue
        for column, n, o in zip(old["header"], new_row, old_row):
            found += _value_differences(n, o, f"{where} row {i} column {column}", csv_cell=True)
    return found


def main() -> None:
    PATH.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        golden = run(Path(workdir))
    # one line per command, so a diff of the file shows which commands moved
    lines = [f"{json.dumps(name)}:{json.dumps(files, separators=(',', ':'))}"
             for name, files in golden.items()]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
