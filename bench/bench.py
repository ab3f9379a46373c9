"""Pipeline benchmark for advqls.

    python3 bench/bench.py --workload exact-ensemble --seed 0 --seconds 30 --trace 0
    python3 bench/bench.py --workload all

Workloads (why each is there is in workloads.py and BENCHMARK.json):
exact-ensemble, shot-ensemble and wide-cli. `--workload all` runs each in
its own process and prints one table of every end-to-end metric.

A run makes its inputs from --seed, warms up, then repeats the workload's
pass, a fixed list of units of work, until the next pass would end after
--seconds. Every unit is timed between two runs of a calibration kernel,
which scales its wall time to the reference machine speed (see
`calibrate`). The run checks what the passes produced, prints one line
per check and per metric, and as its last line one JSON object with the
keys correct, attempted, failed and metrics. `attempted` counts ensemble
members and checks; `failed` counts failed members and failed checks.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; set-up time
is the median over fresh interpreters (setup_probe.py). --trace 1 runs
one untraced and one traced pass and reports the per-layer metrics; the
spans are written to .bench_out/ when the run ends.

The package is imported from src/ beside this directory. Everything the
run writes goes under .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("exact-ensemble", "shot-ensemble", "wide-cli")
SETUP_REPEATS = 11
# Duration of `calibrate()` on the reference machine (2-vCPU Xeon VM,
# Python 3.11.7, NumPy 2.4.6) with nothing else running. Times are scaled
# by CAL_REF_S / (the kernel's duration around them): see `calibrate`.
CAL_REF_S = 0.010
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def calibrate() -> float:
    """Duration of a fixed kernel: small NumPy calls driven by the
    interpreter, then uniform draws searched in an 8-entry CDF.

    The host runs this VM at speeds up to 2x apart, switching every few
    seconds and drifting over minutes. Measured around every unit of
    work, the kernel's duration tracks that speed; dividing by it turns
    a unit's wall time into seconds at the reference speed, which keeps
    the end-to-end times steady across runs. The two halves mirror the
    two kinds of work the workloads do: interpreter-bound gate and
    expectation calls, and the shot sampler.
    """
    matrix = np.arange(64.0).reshape(8, 8) / 64.0
    cdf = np.cumsum(np.full(8, 0.125))
    start = time.perf_counter()
    x = np.ones(8)
    total = 0.0
    for _ in range(1300):
        x = matrix @ x
        x = x / np.linalg.norm(x)
        total += float(x[0])
    rng = np.random.default_rng(0)
    for _ in range(25):
        np.searchsorted(cdf, rng.random(8192))
    return time.perf_counter() - start


def scaled(walls: list[float], cals: list[float]) -> float:
    """Sum of wall times, each at the reference speed; cals[i] and
    cals[i + 1] are the kernel durations just before and after walls[i]."""
    return sum(w * CAL_REF_S * 2.0 / (a + b) for w, a, b in zip(walls, cals, cals[1:]))


@dataclass
class Pass:
    wall: float                          # measured, summed over units
    ref: float                           # at the reference speed
    error: str | None = None
    unit_walls: list[float] = field(default_factory=list)
    cals: list[float] = field(default_factory=list)
    records: list[dict] | None = None   # kept for the first pass only
    digest: str | None = None
    checks: list = field(default_factory=list)
    bytes_written: int = 0


def _load_package() -> None:
    init = SRC / "advqls" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no advqls package at {init}")
    sys.path.insert(0, str(SRC))
    import advqls

    if Path(advqls.__file__).resolve() != init.resolve():
        raise ImportError(f"advqls imported from {advqls.__file__}, not {init}")


def _tree_sha256(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_block() -> dict:
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256((SRC / "advqls").rglob("*.py")),
    }


def records_digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def repeat_digest_check(key: str, digest: str) -> tuple[str, bool, str]:
    """Compare with the digest an earlier run of the same code and seed stored."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key not in known:
        known[key] = digest
        OUT.mkdir(exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
        return ("digest_repeat", True, f"records sha256 {digest[:16]} stored; no earlier run to compare")
    same = known[key] == digest
    return ("digest_repeat", same, f"records sha256 {digest[:16]} "
            f"{'matches' if same else 'differs from'} earlier run {known[key][:16]}")


def run_pass(workload, seed: int, pass_dir: Path, tracer=None) -> Pass:
    """Run the workload's units in order, timing each between two
    calibrations; `tracer`, when given, is installed for the units only."""
    pass_dir.mkdir(parents=True)
    units = workload.units(seed, pass_dir)
    results, walls, cals = [], [], [calibrate()]
    if tracer is not None:
        tracer.install()
    try:
        for unit in units:
            start = time.perf_counter()
            with tracer.span("bench.unit") if tracer is not None else contextlib.nullcontext():
                results.append(unit())
            walls.append(time.perf_counter() - start)
            cals.append(calibrate())
    except Exception as exc:  # a failing pass is counted, not fatal
        return Pass(sum(walls), scaled(walls, cals), f"{type(exc).__name__}: {exc}", walls, cals)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall, ref = sum(walls), scaled(walls, cals)
    try:
        out = workload.collect(results, seed, pass_dir)
    except Exception as exc:
        return Pass(wall, ref, f"unreadable output: {type(exc).__name__}: {exc}", walls, cals)
    return Pass(wall, ref, None, walls, cals, out.records, records_digest(out.blobs), out.checks,
                out.bytes_written)


def setup_times(name: str, seed: int) -> tuple[list[float], list[float], list[str]]:
    """Set-up time of SETUP_REPEATS fresh interpreters: as measured, and
    at the reference speed (each probe calibrates itself)."""
    times, refs, errors = [], [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode:
            errors.extend(proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"])
        else:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(probe["setup_s"])
            refs.append(probe["setup_s"] * CAL_REF_S / probe["cal_s"])
    return times, refs, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _load_package()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    run_id = f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    workdir = OUT / "work" / run_id
    checks: list[tuple[str, bool, str]] = []
    machine = machine_block()

    if not trace:
        setup, setup_ref, errors = setup_times(name, seed)
        checks.append(("setup_probe", not errors, f"{len(setup)}/{SETUP_REPEATS} probes ran {errors}"))
    workload.setup(seed)  # warm-up: imports, caches, first evaluation

    passes: list[Pass] = []
    tracer = tracing.Tracer() if trace else None
    try:
        begin = time.perf_counter()
        passes.append(run_pass(workload, seed, workdir / "pass0"))
        # after one pass, so the figure does not depend on the pass count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer.begin_run(run_id)
            passes.append(run_pass(workload, seed, workdir / "pass1", tracer))
        else:
            while passes[-1].error is None and time.perf_counter() - begin + passes[-1].wall <= seconds:
                passes.append(run_pass(workload, seed, workdir / f"pass{len(passes)}"))
                passes[-1].records = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [p for p in passes if p.error is None]
    for k, p in enumerate(passes):
        if p.error:
            checks.append((f"pass{k}", False, p.error))
        checks += [(f"pass{k}.{n}", ok, detail) for n, ok, detail in p.checks]
    digests = [p.digest for p in done]
    if passes[0].error is None:
        try:
            checks += workload.checks(passes[0].records, seed)
        except Exception as exc:
            checks.append(("checks", False, f"{type(exc).__name__}: {exc}"))
        same = len(set(digests)) == 1
        label = "traced pass records equal untraced" if trace else "all passes give equal records"
        checks.append(("digest_passes", same, f"{label}: {sorted(set(d[:16] for d in digests))}"))
        key = f"{name}|seed={seed}|src={machine['src_sha256']}|bench={_tree_sha256(BENCH.glob('*.py'))}"
        checks.append(repeat_digest_check(key, digests[0]))

    failed_members = workload.pass_members * (len(passes) - len(done))
    attempted = workload.pass_members * len(passes) + len(checks)
    failed = failed_members + sum(not ok for _, ok, _ in checks)
    evals = sum(r["cost_evaluations"] for r in passes[0].records or [])
    timed = done or passes
    wall_s = statistics.median(p.wall for p in timed)
    wall_ref_s = statistics.median(p.ref for p in timed)

    if trace:
        metrics = tracer.layer_metrics()
        metrics["cli.bytes_written"] = passes[-1].bytes_written
        metrics["trace_overhead_frac"] = passes[1].ref / passes[0].ref - 1.0
        measured = {}
    else:
        metrics = {
            "wall_ref_s": wall_ref_s,
            "evals_per_ref_s": evals / wall_ref_s,
            "setup_s": statistics.median(setup_ref) if setup_ref else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        measured = {
            "wall_s": wall_s,
            "evals_per_s": evals / wall_s,
            "setup_measured_s": statistics.median(setup) if setup else 0.0,
        }

    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine,
        "pass_walls_s": [p.wall for p in passes],
        "pass_ref_s": [p.ref for p in passes],
        "unit_walls_s": [p.unit_walls for p in passes],
        "calibrations_s": [p.cals for p in passes],
        "setup_s_samples": [] if trace else setup,
        "setup_ref_s_samples": [] if trace else setup_ref,
        "evals_per_pass": evals,
        "records_sha256": digests[0] if digests else None,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "failed_frac": failed / attempted,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "measured": measured,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run_id}.json").write_text(json.dumps(report, indent=1))
    if trace:
        tracer.write(OUT / f"{run_id}-spans.npz")
    return report


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


MEASURED_UNITS = {"wall_s": "s", "evals_per_s": "1/s", "setup_measured_s": "s"}


def _print_report(report: dict, units: dict[str, str]) -> None:
    """Checks, then one `workload metric value unit` line per metric: the
    declared ones, the unscaled times, and failed_frac."""
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}: {report['why']}")
    print(f"# machine {json.dumps(report['machine'], sort_keys=True)}")
    print(f"# passes {len(report['pass_walls_s'])}, wall s {[round(w, 3) for w in report['pass_walls_s']]}, "
          f"at reference speed {[round(w, 3) for w in report['pass_ref_s']]}")
    for check in report["checks"]:
        print(f"CHECK {'PASS' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    rows = [(name, report["metrics"][name], unit) for name, unit in units.items()]
    rows += [(name, value, MEASURED_UNITS[name]) for name, value in report["measured"].items()]
    rows.append(("failed_frac", report["failed_frac"], "ratio"))
    for name, value, unit in rows:
        print(f"{report['workload']:15s} {name:48s} {value:14.6g} {unit}")


def _result_line(report: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": u} for n, u in units.items()},
    })


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter; one table, one summary line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            total["correct"] = False
            total["attempted"] += 1
            total["failed"] += 1
            continue
        print("\n".join(line for line in lines[:-1] if line.startswith(("#", "CHECK"))))
        table += [line for line in lines[:-1] if line.startswith(name)]
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print()
    print("\n".join(table))
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SPEC_FILE.is_file() or not (SRC / "advqls").is_dir():
        print(f"error: run from a checkout holding BENCHMARK.json and src/advqls (looked in {ROOT})",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else json.loads(SPEC_FILE.read_text())["run_seconds"]
    trace = bool(args.trace)
    if args.workload == "all":
        return run_all(args.seed, seconds, trace)
    units = _declared_metrics(trace)
    report = run_workload(args.workload, args.seed, seconds, trace)
    _print_report(report, units)
    print(_result_line(report, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
