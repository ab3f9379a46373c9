"""Golden member records: the configurations behind
`tests/data/golden_records.json` and the script that regenerates it.

Each configuration is one `vqls.run_ensemble` call. Per member the file
keeps the seed, iteration count, converged flag, theta_final, final cost
and u_fields, which `tests/test_golden_records.py` compares against a
fresh run. Regenerate only when a change alters records on purpose, and
say so where the change is recorded:

    PYTHONPATH=src python tests/golden_records.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from advqls import problem, spsa, vqls

PATH = Path(__file__).resolve().parent / "data" / "golden_records.json"

# name -> run_ensemble keyword arguments; the spec defaults to (4, 3)
CONFIGS = {
    # acceptance criteria 5/6: 24 exact members, fixed 200-iteration budget
    "exact-24x200-none": dict(
        spsa_cfg=spsa.SpsaConfig(max_iter=200, stop_rule="none"), ensemble_size=24
    ),
    # acceptance criterion 7: 24 members at 8192 shots, threshold rule
    "shots8192-threshold": dict(
        spsa_cfg=spsa.SpsaConfig(max_iter=200, stop_rule="threshold"),
        shots=8192,
        ensemble_size=24,
    ),
    # `advqls solve` with no config: 24 exact members, DEFAULT_SPSA
    "default-exact": dict(),
    "diff-rule": dict(spsa_cfg=replace(vqls.DEFAULT_SPSA, stop_rule="diff")),
    "shots8192-4-5": dict(
        spec=problem.ProblemSpec(n=4, n_t=5),
        spsa_cfg=replace(vqls.DEFAULT_SPSA, max_iter=60),
        shots=8192,
        ensemble_size=4,
    ),
    "shots8192-16-3": dict(
        spec=problem.ProblemSpec(n=16, n_t=3),
        spsa_cfg=replace(vqls.DEFAULT_SPSA, max_iter=60),
        shots=8192,
        ensemble_size=4,
    ),
}


def member_fields(record: vqls.SolveRecord) -> dict:
    return {
        "seed": record.seed,
        "iterations": record.iterations,
        "converged": record.converged,
        "theta_final": record.theta_final.tolist(),
        "final_cost": float(record.final_cost),
        "u_fields": record.u_fields.tolist(),
    }


def run(name: str) -> list[dict]:
    kwargs = dict(CONFIGS[name])
    spec = kwargs.pop("spec", problem.ProblemSpec())
    return [member_fields(r) for r in vqls.run_ensemble(spec, **kwargs)]


def main() -> None:
    PATH.parent.mkdir(exist_ok=True)
    golden = {name: run(name) for name in CONFIGS}
    PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
