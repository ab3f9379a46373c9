"""Command-line front end.

Subcommands: solve (seeded ensemble + reference fields + RMSE summary),
trace (per-iteration CSV for one ensemble member), decompose (Pauli
expansion of a matrix file), circuits (circuit-count sweep over term
counts), estimate (forecast-scale qubit resources).

Every command takes a --out directory and is deterministic for a given
configuration. A command only computes: it returns its output directory
and a mapping of fixed file names to their text, among them a
manifest_<command>.json echoing its effective configuration. `main` is
the one writer. It creates the directory and writes the files only after
the command has returned, so a command that fails creates no directory
and writes no file; it prints one JSON line to stderr and exits 1. An
argument that argparse rejects fails the same way.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _checks, pauli, problem, resources, spsa, vqls

__all__ = ["RunConfig", "main"]


def _reject_unknown_keys(what: str, mapping: Mapping, schema) -> None:
    """Reject the keys of `mapping` that are not fields of the dataclass `schema`, naming them."""
    unknown = set(mapping) - {f.name for f in dataclasses.fields(schema)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


@dataclass
class RunConfig:
    """Complete, serializable configuration of an ensemble run."""

    problem: problem.ProblemSpec = field(default_factory=problem.ProblemSpec)
    ansatz_units: int = 4
    spsa_overrides: dict = field(default_factory=dict)
    shots: int | None = None            # None or "exact" = exact expectations
    ensemble_size: int = 24
    base_seed: int = 0
    workers: int = 1                    # members run in lockstep in one process
    classical_only: bool = False
    out_dir: str | None = None          # default when --out is not given

    def __post_init__(self):
        # numbers are stored as plain Python numbers, so the manifest can hold them
        _checks.fields(self, _checks.integer, "ensemble_size", "ansatz_units", low=1)
        _checks.fields(self, _checks.integer, "base_seed", low=0)
        self.workers = vqls._check_workers(self.workers)
        if self.shots == "exact":
            self.shots = None
        if self.shots is not None:
            self.shots = _checks.integer("shots", self.shots, 1, vqls.MAX_SHOTS)
        if not isinstance(self.classical_only, bool):
            raise ValueError(f"classical_only must be true or false, got {self.classical_only!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or null, got {self.out_dir!r}")
        if not isinstance(self.spsa_overrides, Mapping):
            raise ValueError(f"spsa_overrides must be a mapping, got {self.spsa_overrides!r}")
        _reject_unknown_keys("spsa_overrides", self.spsa_overrides, spsa.SpsaConfig)
        # the override values pass SpsaConfig's own checks and keep its plain values
        cfg = self.spsa_config()
        self.spsa_overrides = {name: getattr(cfg, name) for name in self.spsa_overrides}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, Mapping):
            raise ValueError(
                "config must be a JSON object of RunConfig fields, got "
                + json.dumps(data, default=repr)
            )
        _reject_unknown_keys("config", data, cls)
        kwargs = dict(data)
        if "problem" in kwargs:
            if not isinstance(kwargs["problem"], Mapping):
                raise ValueError(
                    f"problem must be a mapping of ProblemSpec fields, got {kwargs['problem']!r}"
                )
            _reject_unknown_keys("problem", kwargs["problem"], problem.ProblemSpec)
            kwargs["problem"] = problem.ProblemSpec(**kwargs["problem"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def ansatz(self) -> vqls.AnsatzConfig:
        return vqls.ansatz_for(self.problem, self.ansatz_units)

    def spsa_config(self) -> spsa.SpsaConfig:
        return dataclasses.replace(vqls.DEFAULT_SPSA, **self.spsa_overrides)


def _apply_cli_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """A copy of `cfg` with the flags applied, validated like a loaded file."""
    changes: dict = {}
    if getattr(args, "seed", None) is not None:
        changes["base_seed"] = args.seed
    if getattr(args, "ensemble", None) is not None:
        changes["ensemble_size"] = args.ensemble
    if getattr(args, "shots", None) is not None:
        try:
            changes["shots"] = args.shots if args.shots == "exact" else int(args.shots)
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


def _csv(header: list[str], rows: list[list]) -> str:
    """CSV text: floats with 15 significant digits, anything else as its
    lower-cased str (bools as true/false)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        ["%.15g" % v if isinstance(v, (float, np.floating)) else str(v).lower() for v in row]
        for row in rows
    )
    return buf.getvalue()


def _manifest(command: str, config: dict) -> dict[str, str]:
    payload = {"command": command, "config": config}
    return {f"manifest_{command}.json": json.dumps(payload, indent=2, sort_keys=True) + "\n"}


Files = tuple[Path, dict[str, str]]


def cmd_solve(args: argparse.Namespace) -> Files:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = _apply_cli_overrides(cfg, args)
    out_dir = _resolve_out(cfg, args)
    spec = cfg.problem
    records = [] if cfg.classical_only else vqls.run_ensemble(
        spec, cfg.ansatz(), cfg.spsa_config(), cfg.shots, cfg.base_seed, cfg.ensemble_size
    )
    system, classical = vqls._reference(spec)
    files = _manifest("solve", cfg.to_dict())
    header = ["x"] + [f"u_t{k}" for k in range(spec.n_t)]
    files["classical_reference.csv"] = _csv(header, [
        [x, system.u0[j]] + [classical[k][j] for k in range(spec.n_t - 1)]
        for j, x in enumerate(spec.grid)
    ])
    analytic = [problem.analytic_solution(spec, k * spec.dt) for k in range(spec.n_t)]
    files["analytic_reference.csv"] = _csv(header, [
        [x] + [analytic[k][j] for k in range(spec.n_t)] for j, x in enumerate(spec.grid)
    ])
    if cfg.classical_only:
        return out_dir, files

    for i, record in enumerate(records):
        files[f"member_{i:03d}.json"] = json.dumps(record.to_dict(), sort_keys=True) + "\n"

    mean_fields = vqls.ensemble_mean_fields(records)
    header = ["x"] + [f"u_t{k}_mean" for k in range(1, spec.n_t)]
    files["ensemble_mean.csv"] = _csv(header, [
        [x] + [mean_fields[k - 1][j] for k in range(1, spec.n_t)]
        for j, x in enumerate(spec.grid)
    ])

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
    files["rmse_summary.csv"] = _csv(["member", "t_s", "rmse", "relative_error"], summary_rows)
    return out_dir, files


def cmd_trace(args: argparse.Namespace) -> Files:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = _apply_cli_overrides(cfg, args)
    out_dir = _resolve_out(cfg, args)
    member = args.member
    if member < 0 or member >= cfg.ensemble_size:
        raise ValueError(f"member {member} outside ensemble of {cfg.ensemble_size}")
    record_path = out_dir / f"member_{member:03d}.json"
    if not record_path.exists():
        raise FileNotFoundError(
            f"missing member record {record_path}; run `solve` into this directory first"
        )
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = vqls.SolveRecord.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"member record {record_path} cannot be read: {type(exc).__name__}: {exc}"
        ) from None

    spec = cfg.problem
    # a record holds no spec fields; the shape of its trace is what can be checked
    expected = (len(record.cost_trace), spec.n_t - 1, spec.n)
    if record.solution_trace.shape != expected:
        raise ValueError(
            f"member record {record_path} holds a solution_trace of shape "
            f"{record.solution_trace.shape}, but the config's spec needs {expected}; "
            "pass the config the record was solved with"
        )
    _, classical = vqls._reference(spec)
    sol_cols = [f"u_t{k}_g{j + 1}" for k in range(1, spec.n_t) for j in range(spec.n)]
    ref_cols = [f"ref_t{k}_g{j + 1}" for k in range(1, spec.n_t) for j in range(spec.n)]
    header = ["iteration", "cost"] + sol_cols + ref_cols
    # one row per iteration: its (n_t - 1, n) fields flattened row-major, as the header runs
    solutions = record.solution_trace.reshape(len(record.cost_trace), -1).tolist()
    ref_values = classical.ravel().tolist()
    rows = [
        [it, cost, *values, *ref_values]
        for it, (cost, values) in enumerate(zip(record.cost_trace, solutions))
    ]
    files = _manifest("trace", {**cfg.to_dict(), "member": member})
    files[f"trace_member_{member:03d}.csv"] = _csv(header, rows)
    return out_dir, files


def _load_matrix(path: str) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"matrix file {path} does not exist")
    try:
        # loadtxt only warns on a file with no data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if p.suffix == ".npy":
                data = np.load(p)   # a zip archive loads as an NpzFile
            elif p.suffix == ".json":
                with open(p, encoding="utf-8") as fh:
                    data = json.load(fh)
            elif not p.read_bytes().strip():
                # loadtxt reads a line of spaces as one unparsable field
                raise ValueError("it holds no data")
            else:
                data = np.loadtxt(p, delimiter=",", dtype=float)
            return np.asarray(data, dtype=complex)
    except (OSError, EOFError, ValueError, TypeError, Warning) as exc:
        raise ValueError(f"matrix file {path} cannot be read: {exc}") from None


def cmd_decompose(args: argparse.Namespace) -> Files:
    matrix = _load_matrix(args.matrix)
    decomposition = pauli.decompose(matrix, prune_eps=args.prune_eps)
    files = _manifest("decompose", {"matrix": str(args.matrix), "prune_eps": args.prune_eps})
    files["decomposition.json"] = json.dumps(decomposition.to_records(), indent=2) + "\n"
    return Path(args.out), files


def cmd_circuits(args: argparse.Namespace) -> Files:
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
    files = _manifest(
        "circuits",
        {"qubits": args.qubits, "l_min": args.l_min, "l_max": args.l_max, "modes": modes},
    )
    files["circuits.csv"] = _csv(header, rows)
    return Path(args.out), files


def cmd_estimate(args: argparse.Namespace) -> Files:
    try:
        resolutions = [float(r) for r in args.resolutions.split(",")]
    except ValueError as exc:  # float names the bad entry
        raise ValueError(
            f"--resolutions must be comma-separated numbers, got {args.resolutions!r} ({exc})"
        ) from None
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
    files = _manifest("estimate", {**dataclasses.asdict(cfg), "resolutions": resolutions})
    files["estimate.csv"] = _csv(resources.SWEEP_CSV_HEADER, [row.as_csv_row() for row in rows])
    return Path(args.out), files


class _Parser(argparse.ArgumentParser):
    # a usage error fails like any other, not with usage and exit 2;
    # subparsers are built with the same class
    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call. It holds no
    per-call state: each `parse_args` returns a fresh Namespace."""
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        out_dir, files = args.func(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            # newline="" keeps the CSV rows' \r\n and the JSON's \n as they are
            with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
    except Exception as exc:  # single machine-readable failure line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
