"""Command-line front end.

Subcommands: solve (seeded ensemble + reference fields + RMSE summary),
trace (per-iteration CSV for one ensemble member), decompose (Pauli
expansion of a matrix file), circuits (circuit-count sweep over term
counts), estimate (forecast-scale qubit resources).

Every command takes a --out directory, writes fixed-name files plus a
manifest_<command>.json echoing its effective configuration, and is
deterministic for a given configuration. Failures print one JSON line to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import pauli, problem, resources, spsa, vqls

__all__ = ["RunConfig", "main"]


def _is_int_at_least(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


@dataclass
class RunConfig:
    """Complete, serializable configuration of an ensemble run."""

    problem: problem.ProblemSpec = field(default_factory=problem.ProblemSpec)
    ansatz_units: int = 4
    spsa_overrides: dict = field(default_factory=dict)
    shots: int | None = None            # None = exact expectations
    ensemble_size: int = 24
    base_seed: int = 0
    workers: int = 1
    classical_only: bool = False
    out_dir: str | None = None          # default when --out is not given

    def __post_init__(self):
        lowest = {"workers": 1, "ensemble_size": 1, "ansatz_units": 1, "base_seed": 0}
        for name, low in lowest.items():
            value = getattr(self, name)
            if not _is_int_at_least(value, low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.classical_only, bool):
            raise ValueError(f"classical_only must be true or false, got {self.classical_only!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or null, got {self.out_dir!r}")
        if self.shots is not None and not _is_int_at_least(self.shots, 1):
            raise ValueError(f"shots must be an integer >= 1, null or 'exact', got {self.shots!r}")
        known = {f.name for f in dataclasses.fields(spsa.SpsaConfig)}
        unknown = set(self.spsa_overrides) - known
        if unknown:
            raise ValueError(f"unknown spsa_overrides keys: {sorted(unknown)}")
        if "seed" in self.spsa_overrides:
            raise ValueError(
                "spsa_overrides.seed has no effect: member i runs with seed "
                "base_seed + i, so set base_seed instead"
            )
        self.spsa_config()  # the override values pass SpsaConfig's own checks

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "problem" in kwargs:
            if not isinstance(kwargs["problem"], Mapping):
                raise ValueError(
                    f"problem must be a mapping of ProblemSpec fields, got {kwargs['problem']!r}"
                )
            kwargs["problem"] = problem.ProblemSpec(**kwargs["problem"])
        shots = kwargs.get("shots")
        if shots == "exact":
            kwargs["shots"] = None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "problem": dataclasses.asdict(self.problem),
            "ansatz_units": self.ansatz_units,
            "spsa_overrides": dict(self.spsa_overrides),
            "shots": self.shots,
            "ensemble_size": self.ensemble_size,
            "base_seed": self.base_seed,
            "workers": self.workers,
            "classical_only": self.classical_only,
            "out_dir": self.out_dir,
        }

    def ansatz(self) -> vqls.AnsatzConfig:
        return vqls.ansatz_for(self.problem, self.ansatz_units)

    def spsa_config(self) -> spsa.SpsaConfig:
        return vqls.DEFAULT_SPSA.with_overrides(**self.spsa_overrides)


def _apply_cli_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """A copy of `cfg` with the flags applied, validated like a loaded file."""
    changes: dict = {}
    if getattr(args, "seed", None) is not None:
        changes["base_seed"] = args.seed
    if getattr(args, "ensemble", None) is not None:
        changes["ensemble_size"] = args.ensemble
    if getattr(args, "workers", None) is not None:
        changes["workers"] = args.workers
    if getattr(args, "shots", None) is not None:
        if args.shots == "exact":
            changes["shots"] = None
        else:
            try:
                changes["shots"] = int(args.shots)
            except ValueError:
                raise ValueError(
                    f"--shots must be an integer >= 1 or 'exact', got {args.shots!r}"
                ) from None
    if getattr(args, "classical_only", False):
        changes["classical_only"] = True
    return dataclasses.replace(cfg, **changes)


def _resolve_out(cfg: RunConfig, args: argparse.Namespace) -> Path:
    out = args.out or cfg.out_dir
    if out is None:
        raise ValueError("no output directory: pass --out or set out_dir in the config")
    return Path(out)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.15g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    payload = {"command": command, "config": config}
    with open(out_dir / f"manifest_{command}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _member_path(out_dir: Path, member: int) -> Path:
    return out_dir / f"member_{member:03d}.json"


def _classical_fields(spec: problem.ProblemSpec) -> tuple[problem.BlockSystem, np.ndarray]:
    """The block system of `spec` and its classical solution as (n_t - 1, n) fields."""
    system = problem.build_block_system(spec)
    return system, problem.classical_solve(system).reshape(spec.n_t - 1, spec.n)


def _write_reference_csvs(
    out_dir: Path, system: problem.BlockSystem, classical: np.ndarray
) -> None:
    spec = system.spec
    header = ["x"] + [f"u_t{k}" for k in range(spec.n_t)]
    classical_rows = [
        [x, system.u0[j]] + [classical[k][j] for k in range(spec.n_t - 1)]
        for j, x in enumerate(spec.grid)
    ]
    _write_csv(out_dir / "classical_reference.csv", header, classical_rows)
    analytic = [problem.analytic_solution(spec, k * spec.dt) for k in range(spec.n_t)]
    analytic_rows = [
        [x] + [analytic[k][j] for k in range(spec.n_t)] for j, x in enumerate(spec.grid)
    ]
    _write_csv(out_dir / "analytic_reference.csv", header, analytic_rows)


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = _apply_cli_overrides(cfg, args)
    out_dir = _resolve_out(cfg, args)
    ansatz = None if cfg.classical_only else cfg.ansatz()
    spec = cfg.problem
    system, classical = _classical_fields(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "solve", cfg.to_dict())
    _write_reference_csvs(out_dir, system, classical)
    if cfg.classical_only:
        return 0

    records = vqls.run_ensemble(
        spec,
        ansatz=ansatz,
        spsa_cfg=cfg.spsa_config(),
        shots=cfg.shots,
        base_seed=cfg.base_seed,
        ensemble_size=cfg.ensemble_size,
        workers=cfg.workers,
    )
    for i, record in enumerate(records):
        with open(_member_path(out_dir, i), "w", encoding="utf-8") as fh:
            # dumps takes the C encoder; json.dump would run the Python one
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    mean_fields = vqls.ensemble_mean_fields(records)
    header = ["x"] + [f"u_t{k}_mean" for k in range(1, spec.n_t)]
    mean_rows = [
        [x] + [mean_fields[k - 1][j] for k in range(1, spec.n_t)]
        for j, x in enumerate(spec.grid)
    ]
    _write_csv(out_dir / "ensemble_mean.csv", header, mean_rows)

    summary_rows = []
    for i, record in enumerate(records):
        for entry in record.rmse_per_time:
            summary_rows.append([i, entry["t"], entry["rmse"], entry["relative"]])
    for k in range(spec.n_t - 1):
        summary_rows.append(
            [
                "ensemble_mean",
                (k + 1) * spec.dt,
                problem.rmse(mean_fields[k], classical[k]),
                problem.relative_error(mean_fields[k], classical[k]),
            ]
        )
    _write_csv(
        out_dir / "rmse_summary.csv",
        ["member", "t_s", "rmse", "relative_error"],
        summary_rows,
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = _apply_cli_overrides(cfg, args)
    out_dir = _resolve_out(cfg, args)
    member = args.member
    if member < 0 or member >= cfg.ensemble_size:
        raise ValueError(f"member {member} outside ensemble of {cfg.ensemble_size}")
    record_path = _member_path(out_dir, member)
    if not record_path.exists():
        raise FileNotFoundError(
            f"missing member record {record_path}; run `solve` into this directory first"
        )
    with open(record_path, encoding="utf-8") as fh:
        record = vqls.SolveRecord.from_dict(json.load(fh))

    spec = cfg.problem
    _, classical = _classical_fields(spec)
    sol_cols = [f"u_t{k}_g{j + 1}" for k in range(1, spec.n_t) for j in range(spec.n)]
    ref_cols = [f"ref_t{k}_g{j + 1}" for k in range(1, spec.n_t) for j in range(spec.n)]
    header = ["iteration", "cost"] + sol_cols + ref_cols
    ref_values = [classical[k - 1][j] for k in range(1, spec.n_t) for j in range(spec.n)]
    rows = []
    for it, cost in enumerate(record.cost_trace):
        fields = record.solution_trace[it]
        values = [fields[k - 1][j] for k in range(1, spec.n_t) for j in range(spec.n)]
        rows.append([it, cost] + values + ref_values)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "trace", {**cfg.to_dict(), "member": member})
    _write_csv(out_dir / f"trace_member_{member:03d}.csv", header, rows)
    return 0


def _load_matrix(path: str) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"matrix file {path} does not exist")
    if p.suffix == ".npy":
        return np.load(p)
    if p.suffix == ".json":
        with open(p, encoding="utf-8") as fh:
            return np.asarray(json.load(fh), dtype=complex)
    return np.loadtxt(p, delimiter=",", dtype=float)


def cmd_decompose(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    decomposition = pauli.decompose(matrix, prune_eps=args.prune_eps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        out_dir, "decompose", {"matrix": str(args.matrix), "prune_eps": args.prune_eps}
    )
    with open(out_dir / "decomposition.json", "w", encoding="utf-8") as fh:
        json.dump(decomposition.to_records(), fh, indent=2)
        fh.write("\n")
    return 0


def cmd_circuits(args: argparse.Namespace) -> int:
    modes = args.modes.split(",")
    if args.l_min < 1 or args.l_max < args.l_min:
        raise ValueError("need 1 <= l-min <= l-max")
    header = ["l"]
    for mode in modes:
        header += [mode, f"{mode}_submittable"]
    rows = []
    for l in range(args.l_min, args.l_max + 1):
        row: list = [l]
        for mode in modes:
            count = vqls.circuit_count(args.qubits, l, mode)
            row += [count, vqls.is_submittable(count)]
        rows.append(row)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        out_dir,
        "circuits",
        {"qubits": args.qubits, "l_min": args.l_min, "l_max": args.l_max, "modes": modes},
    )
    _write_csv(out_dir / "circuits.csv", header, rows)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    resolutions = [float(r) for r in args.resolutions.split(",")]
    cfg = resources.ForecastConfig(
        horizontal_resolution_deg=resolutions[0],
        tau=args.tau,
        vertical_levels=args.levels,
        prognostic_variables=args.variables,
        forecast_length_s=args.forecast_days * resources.SECONDS_PER_DAY,
        u_max=args.u_max,
        cfl=args.cfl,
        km_per_degree=args.km_per_degree,
    )
    rows = resources.sweep(cfg, resolutions)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        out_dir,
        "estimate",
        {**dataclasses.asdict(cfg), "resolutions": resolutions},
    )
    _write_csv(
        out_dir / "estimate.csv",
        resources.SWEEP_CSV_HEADER,
        [row.as_csv_row() for row in rows],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advqls",
        description="Variational linear-solver pipeline for the advection-diffusion system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a seeded ensemble and write fields + RMSE")
    p_solve.add_argument("--config", help="JSON run configuration")
    p_solve.add_argument("--out", help="output directory (falls back to config out_dir)")
    p_solve.add_argument("--seed", type=int, help="override base seed")
    p_solve.add_argument("--ensemble", type=int, help="override ensemble size")
    p_solve.add_argument("--shots", help="shot count or 'exact'")
    p_solve.add_argument("--workers", type=int, help="parallel ensemble workers")
    p_solve.add_argument(
        "--classical-only",
        action="store_true",
        help="skip the variational run; write reference fields only",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_trace = sub.add_parser("trace", help="per-iteration cost/solution CSV for one member")
    p_trace.add_argument("--config", help="JSON run configuration")
    p_trace.add_argument("--out", help="directory holding member records")
    p_trace.add_argument("--member", type=int, required=True)
    p_trace.set_defaults(func=cmd_trace)

    p_dec = sub.add_parser("decompose", help="Pauli-string expansion of a matrix file")
    p_dec.add_argument("--matrix", required=True, help=".npy, .json or .csv matrix")
    p_dec.add_argument("--out", required=True)
    p_dec.add_argument("--prune-eps", type=float, default=1e-12)
    p_dec.set_defaults(func=cmd_decompose)

    p_circ = sub.add_parser("circuits", help="circuit-count sweep over term counts")
    p_circ.add_argument("--qubits", type=int, default=3)
    p_circ.add_argument("--l-min", type=int, default=1)
    p_circ.add_argument("--l-max", type=int, default=30)
    p_circ.add_argument("--modes", default="baseline,beta_sym,full_sym")
    p_circ.add_argument("--out", required=True)
    p_circ.set_defaults(func=cmd_circuits)

    p_est = sub.add_parser("estimate", help="forecast-scale qubit resource table")
    p_est.add_argument("--tau", type=int, required=True, help="linearization truncation order")
    p_est.add_argument("--resolutions", default="5", help="comma-separated degrees")
    p_est.add_argument("--levels", type=int, default=1)
    p_est.add_argument("--variables", type=int, default=5)
    p_est.add_argument("--forecast-days", type=float, default=10.0)
    p_est.add_argument("--u-max", type=float, default=100.0)
    p_est.add_argument("--cfl", type=float, default=1.0)
    p_est.add_argument("--km-per-degree", type=float, default=111.32)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=cmd_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single machine-readable failure line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
