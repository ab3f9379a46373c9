"""The benchmark's workloads: inputs made from a seed, the units of one
timed pass, and the checks on what a pass produced.

A pass is a list of units, each one call into the package's public entry
points: `vqls.run_ensemble` with `workers=1` for the two ensemble
workloads and `cli.main` for the CLI workload. A unit is one ensemble
member (or one CLI command), short enough that the machine-speed
calibration between units follows the host's speed changes. Member i of
every ensemble runs with seed `seed + i`, so a pass repeated with the
same seed must give the same member records byte for byte.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from advqls import pauli, problem, spsa, vqls

import oracle

DEFAULT_SPEC = problem.ProblemSpec()
DEFAULT_ANSATZ = vqls.AnsatzConfig(num_qubits=3, units=4)
SHOTS = 8192
# (4, 5): 4 qubits, 19 terms, template b-prep. (16, 3): 5 qubits, 25
# terms, Householder b-prep.
WIDE_SPECS = ({"n": 4, "n_t": 5}, {"n": 16, "n_t": 3})
ESTIMATE_ARGS = ["--tau", "3", "--resolutions", "5,2,1,0.5,0.25"]


@dataclass
class PassOutput:
    """What one pass produced, read back after its timer stopped."""

    records: list[dict]            # member records, in member order
    blobs: list[bytes]             # the bytes hashed into the digest
    checks: list[tuple[str, bool, str]]
    bytes_written: int = 0


def _fixed_run(max_iter: int) -> spsa.SpsaConfig:
    return spsa.SpsaConfig(max_iter=max_iter, stop_rule="none")


def _record_bytes(records) -> list[bytes]:
    return [json.dumps(r.to_dict(), sort_keys=True).encode() for r in records]


def _check(name: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def _evaluator(spec: problem.ProblemSpec, ansatz: vqls.AnsatzConfig) -> vqls.CostEvaluator:
    """The cost evaluator `vqls.solve` builds for this spec."""
    system = problem.build_block_system(spec)
    return vqls.CostEvaluator(
        pauli.decompose(system.a_reduced), ansatz, vqls._b_preparation(system)
    )


def oracle_check(spec, ansatz, records) -> tuple[str, bool, str]:
    """Exact cost at every member's theta_final against the dense oracle."""
    dense = oracle.DenseCost(spec)
    evaluator = _evaluator(spec, ansatz)
    worst = max(
        abs(evaluator.local_cost(np.asarray(r["theta_final"])).value - dense.cost(r["theta_final"]))
        for r in records
    )
    return _check(
        f"oracle_cost[n={spec.n},n_t={spec.n_t}]",
        worst <= 1e-10,
        f"exact cost at theta_final vs dense oracle ({dense.b_prep} b-prep): "
        f"max deviation {worst:.2e} (tol 1e-10)",
    )


def _iterations_check(records, expected: int) -> tuple[str, bool, str]:
    got = sorted({r["iterations"] for r in records})
    return _check("iterations", got == [expected], f"member iterations {got} (expect {expected})")


class _Ensemble:
    """A default-spec ensemble run one member per `vqls.run_ensemble`
    call, so the benchmark can calibrate machine speed between members."""

    shots: int | None
    members: int
    iterations: int

    @property
    def pass_members(self) -> int:
        return self.members

    def setup(self, seed: int) -> None:
        vqls.run_ensemble(DEFAULT_SPEC, DEFAULT_ANSATZ, _fixed_run(0), self.shots, seed, 1, 1)

    def units(self, seed: int, workdir: Path) -> list:
        cfg = _fixed_run(self.iterations)

        def member(i):
            return vqls.run_ensemble(
                DEFAULT_SPEC, ansatz=DEFAULT_ANSATZ, spsa_cfg=cfg, shots=self.shots,
                base_seed=seed + i, ensemble_size=1, workers=1,
            )

        return [functools.partial(member, i) for i in range(self.members)]

    def collect(self, results, seed: int, workdir: Path) -> PassOutput:
        records = [r for result in results for r in result]
        return PassOutput([r.to_dict() for r in records], _record_bytes(records), [])


class ExactEnsemble(_Ensemble):
    name = "exact-ensemble"
    why = (
        "24 members x 200 exact iterations at the acceptance fixture config: "
        "the ansatz interpreter and the term-sum assembly do the work; the sampler is idle"
    )
    shots, members, iterations = None, 24, 200

    def checks(self, records: list[dict], seed: int) -> list[tuple[str, bool, str]]:
        dense = oracle.DenseCost(DEFAULT_SPEC)
        classical = dense.classical_fields(DEFAULT_SPEC.n)
        reached = sum(min(r["cost_trace"]) <= 1e-2 for r in records)
        mean = np.mean([r["u_fields"] for r in records], axis=0)
        rel = [oracle.relative_error(mean[k], classical[k]) for k in range(2)]
        return [
            _iterations_check(records, self.iterations),
            _check("criterion_5", reached >= 20, f"{reached}/24 members reached cost <= 1e-2 (need >= 20)"),
            _check(
                "criterion_6", rel[0] <= 0.06 and rel[1] <= 0.15,
                f"ensemble-mean relative RMSE {rel[0]:.4f} (<= 0.06), {rel[1]:.4f} (<= 0.15)",
            ),
            oracle_check(DEFAULT_SPEC, DEFAULT_ANSATZ, records),
        ]


class ShotEnsemble(_Ensemble):
    name = "shot-ensemble"
    why = (
        "16 members x 10 iterations at 8192 shots: the inverse-CDF sampler does the work; "
        "exact-path changes should not move it"
    )
    shots, members, iterations = SHOTS, 16, 10

    def checks(self, records: list[dict], seed: int) -> list[tuple[str, bool, str]]:
        dense = oracle.DenseCost(DEFAULT_SPEC)
        evaluator = _evaluator(DEFAULT_SPEC, DEFAULT_ANSATZ)
        worst_z = 0.0
        for i, r in enumerate(records):
            theta = np.asarray(r["theta_final"])
            rng = np.random.default_rng([seed, i])
            sampled = evaluator.local_cost(theta, shots=SHOTS, rng=rng).value
            worst_z = max(worst_z, abs(sampled - dense.cost(theta)) / dense.shot_sigma(theta, SHOTS))
        return [
            _iterations_check(records, self.iterations),
            oracle_check(DEFAULT_SPEC, DEFAULT_ANSATZ, records),
            _check(
                "shot_clt", worst_z <= 5.0,
                f"8192-shot cost at theta_final within {worst_z:.2f} sigma of exact (bound 5)",
            ),
        ]


class WideCli:
    name = "wide-cli"
    why = (
        "cli solve on (4,5) and (16,3), then trace, estimate and circuits: "
        "the O(Q L^2) assembly, Householder b-prep and record writing do the work"
    )
    members, iterations = 4, 40  # per spec, one `solve` call per member
    pass_members = members * len(WIDE_SPECS)

    def setup(self, seed: int) -> None:
        from advqls import cli  # noqa: F401  (import time is part of set-up)

        for spec in WIDE_SPECS:
            spec = problem.ProblemSpec(**spec)
            vqls.run_ensemble(spec, _ansatz(spec), _fixed_run(0), None, seed, 1, 1)

    def units(self, seed: int, workdir: Path) -> list:
        (workdir / "config").mkdir(parents=True)
        out = workdir / "out"
        argvs = []
        for j, spec in enumerate(WIDE_SPECS):
            config = workdir / "config" / f"spec{j}.json"
            config.write_text(json.dumps({
                "problem": spec,
                "ensemble_size": 1,
                "shots": None,
                "workers": 1,
                "spsa_overrides": {"max_iter": self.iterations, "stop_rule": "none"},
            }))
            argvs += [
                ["solve", "--config", str(config), "--seed", str(seed + i), "--out", str(out / f"spec{j}" / f"m{i:02d}")]
                for i in range(self.members)
            ]
        argvs.append(["trace", "--config", str(workdir / "config" / "spec0.json"),
                      "--out", str(out / "spec0" / "m00"), "--member", "0"])
        argvs.append(["estimate", *ESTIMATE_ARGS, "--out", str(out / "estimate")])
        argvs.append(["circuits", "--l-max", "60", "--out", str(out / "circuits")])
        return [functools.partial(_cli_main, argv) for argv in argvs]

    def collect(self, codes, seed: int, workdir: Path) -> PassOutput:
        out = workdir / "out"
        paths = sorted(out.glob("spec*/m*/member_000.json"))
        blobs = [p.read_bytes() for p in paths]
        records = [json.loads(b) for b in blobs]
        checks = [_check("exit_codes", codes == [0] * len(codes), f"cli exit codes {codes}")]
        trace = out / "spec0" / "m00" / "trace_member_000.csv"
        rows = len(trace.read_text().splitlines()) - 1 if trace.exists() else -1
        expected = records[0]["iterations"] + 1 if records else None
        checks.append(_check("trace_rows", rows == expected, f"trace CSV rows {rows} (expect {expected})"))
        row5 = {}
        if (out / "estimate" / "estimate.csv").exists():
            with open(out / "estimate" / "estimate.csv", newline="") as fh:
                row5 = next((r for r in csv.DictReader(fh) if float(r["resolution_deg"]) == 5.0), {})
        checks.append(_check(
            "estimate_5deg", row5.get("n_t") == "156" and row5.get("qubits") == "49",
            f"5 deg row N_T={row5.get('n_t')} qubits={row5.get('qubits')} (expect 156, 49)",
        ))
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return PassOutput(records, blobs, checks, written)

    def checks(self, records: list[dict], seed: int) -> list[tuple[str, bool, str]]:
        found = [_check("member_count", len(records) == self.pass_members,
                        f"{len(records)} member records (expect {self.pass_members})")]
        found.append(_iterations_check(records, self.iterations))
        for j, spec in enumerate(WIDE_SPECS):
            spec = problem.ProblemSpec(**spec)
            mine = records[j * self.members:(j + 1) * self.members]
            if mine:
                found.append(oracle_check(spec, _ansatz(spec), mine))
        return found


def _cli_main(argv: list[str]) -> int:
    from advqls import cli  # looked up per call, so the traced run reaches its wrapper

    return cli.main(argv)


def _ansatz(spec: problem.ProblemSpec) -> vqls.AnsatzConfig:
    dim = (spec.n_t - 1) * spec.n
    return vqls.AnsatzConfig(num_qubits=dim.bit_length() - 1, units=4)


WORKLOADS = {w.name: w for w in (ExactEnsemble(), ShotEnsemble(), WideCli())}
