import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advqls import cli, problem, vqls
from advqls.cli import RunConfig, main
from oracles import csv_text

FAST_CONFIG = {
    "problem": {"n": 4, "nu": 0.05, "length": 1.0, "dt": 0.25, "n_t": 3},
    "ansatz_units": 4,
    "spsa_overrides": {"max_iter": 12, "stop_rule": "none"},
    "shots": None,
    "ensemble_size": 2,
    "base_seed": 0,
    "workers": 1,
}


def write_config(tmp_path, **overrides):
    data = {**FAST_CONFIG, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunConfig:
    def test_from_dict_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.problem.n == 4
        assert cfg.ensemble_size == 24
        assert cfg.shots is None

    def test_exact_keyword(self):
        assert RunConfig.from_dict({"shots": "exact"}).shots is None
        assert RunConfig.from_dict({"shots": 128}).shots == 128
        # a config file, the --shots flag and a direct construction share one mapping
        assert RunConfig(shots="exact").shots is None
        assert dataclasses.replace(RunConfig(shots=128), shots="exact").shots is None
        overrides = argparse.Namespace(shots="exact")
        assert cli._apply_cli_overrides(RunConfig(shots=128), overrides).shots is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"bogus": 1})

    def test_spsa_overrides_applied(self):
        cfg = RunConfig.from_dict({"spsa_overrides": {"max_iter": 7, "a": 2.0}})
        spsa_cfg = cfg.spsa_config()
        assert spsa_cfg.max_iter == 7
        assert spsa_cfg.a == 2.0
        assert spsa_cfg.stop_rule == "threshold"  # solver default

    def test_ansatz_dimension_check(self):
        cfg = RunConfig.from_dict({"problem": {"n": 3, "n_t": 3}})
        with pytest.raises(ValueError, match="power of two"):
            cfg.ansatz()


class TestSolveCommand:
    def test_outputs_and_determinism(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["solve", "--config", config, "--out", str(out1)]) == 0
        assert main(["solve", "--config", config, "--out", str(out2)]) == 0
        expected = [
            "manifest_solve.json",
            "member_000.json",
            "member_001.json",
            "ensemble_mean.csv",
            "classical_reference.csv",
            "analytic_reference.csv",
            "rmse_summary.csv",
        ]
        for name in expected:
            assert (out1 / name).exists(), name
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["trace", "decompose", "circuits", "estimate"])
    def test_command_outputs_repeat(self, tmp_path, command):
        config = write_config(tmp_path)
        matrix_path = tmp_path / "a_reduced.npy"
        np.save(matrix_path, problem.build_block_system(problem.ProblemSpec()).a_reduced)
        argvs, expected = {
            "trace": (
                [["solve", "--config", config], ["trace", "--config", config, "--member", "1"]],
                ["manifest_trace.json", "trace_member_001.csv"],
            ),
            "decompose": (
                [["decompose", "--matrix", str(matrix_path)]],
                ["manifest_decompose.json", "decomposition.json"],
            ),
            "circuits": ([["circuits", "--l-max", "60"]], ["manifest_circuits.json", "circuits.csv"]),
            "estimate": (
                [["estimate", "--tau", "3", "--resolutions", "5,1,0.25"]],
                ["manifest_estimate.json", "estimate.csv"],
            ),
        }[command]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            for argv in argvs:
                assert main([*argv, "--out", str(out)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert set(expected) <= set(names)
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_shot_run_on_large_spec_repeats(self, tmp_path):
        config = write_config(
            tmp_path,
            problem={"n": 16, "n_t": 3},
            spsa_overrides={"max_iter": 5, "stop_rule": "none"},
        )
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            assert main(["solve", "--config", config, "--out", str(out), "--shots", "8192"]) == 0
        for name in ("member_000.json", "member_001.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        member = json.loads((outs[0] / "member_000.json").read_text())
        assert member["shots"] == 8192
        assert member["iterations"] == 5
        assert member["circuits_per_evaluation"] == 1925

    def test_manifest_echoes_config(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out)])
        manifest = json.loads((out / "manifest_solve.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["config"]["ensemble_size"] == 2
        assert manifest["config"]["problem"]["n"] == 4

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out), "--ensemble", "1", "--seed", "5"])
        manifest = json.loads((out / "manifest_solve.json").read_text())
        assert manifest["config"]["ensemble_size"] == 1
        assert manifest["config"]["base_seed"] == 5
        assert not (out / "member_001.json").exists()
        member = json.loads((out / "member_000.json").read_text())
        assert member["seed"] == 5

    def test_out_dir_from_config(self, tmp_path):
        out = tmp_path / "configured"
        config = write_config(tmp_path, out_dir=str(out), classical_only=True)
        assert main(["solve", "--config", config]) == 0
        assert (out / "classical_reference.csv").exists()

    def test_missing_out_dir_fails(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["solve", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "output directory" in err["message"]

    def test_classical_only(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out), "--classical-only"]) == 0
        assert (out / "classical_reference.csv").exists()
        assert (out / "analytic_reference.csv").exists()
        assert not (out / "member_000.json").exists()
        assert not (out / "ensemble_mean.csv").exists()

    def test_classical_only_accepts_spec_without_register(self, tmp_path):
        # reduced dimension 6 maps onto no qubit register, but the classical
        # reference needs none
        config = write_config(tmp_path, problem={"n": 3})
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out), "--classical-only"]) == 0
        assert len(read_csv(out / "classical_reference.csv")) == 4

    @pytest.mark.usefixtures("cold_memo")
    def test_register_beyond_the_cap_fails_before_any_build(self, tmp_path, capsys, monkeypatch):
        # n = 512 asks for 10 qubits; the unit table alone would hold 8**10
        # doubles, so the command must fail before it builds anything
        builds = []
        monkeypatch.setattr(problem, "build_block_system", lambda spec: builds.append(spec))
        out = tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": {"n": 512}}))
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert "n=512 and n_t=3 need a 10-qubit register" in parsed["message"]
        assert not out.exists()
        assert builds == []

    @pytest.mark.usefixtures("cold_memo")
    def test_classical_only_is_not_capped(self, tmp_path):
        config = write_config(tmp_path, problem={"n": 512})
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out), "--classical-only"]) == 0
        assert len(read_csv(out / "classical_reference.csv")) == 513

    def test_reference_csv_values(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out), "--classical-only"])
        rows = read_csv(out / "classical_reference.csv")
        assert rows[0] == ["x", "u_t0", "u_t1", "u_t2"]
        spec = problem.ProblemSpec()
        system = problem.build_block_system(spec)
        classical = problem.classical_solve(system).reshape(2, 4)
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_allclose(data[:, 0], spec.grid, atol=1e-12)
        np.testing.assert_allclose(data[:, 1], system.u0, atol=1e-12)
        np.testing.assert_allclose(data[:, 2], classical[0], atol=1e-12)
        np.testing.assert_allclose(data[:, 3], classical[1], atol=1e-12)

    def test_rmse_summary_structure(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out)])
        rows = read_csv(out / "rmse_summary.csv")
        assert rows[0] == ["member", "t_s", "rmse", "relative_error"]
        members = [row[0] for row in rows[1:]]
        assert members.count("ensemble_mean") == 2  # one per time step
        assert members.count("0") == 2 and members.count("1") == 2

    def test_csv_precision(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out), "--classical-only"])
        rows = read_csv(out / "classical_reference.csv")
        # at least 12 significant digits survive the round trip
        value = rows[2][1]
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 12


class TestTraceCommand:
    def test_trace_columns_and_rows(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out)])
        assert main(["trace", "--config", config, "--out", str(out), "--member", "0"]) == 0
        rows = read_csv(out / "trace_member_000.csv")
        header = rows[0]
        assert header[:2] == ["iteration", "cost"]
        solution_cols = [c for c in header if c.startswith("u_t")]
        ref_cols = [c for c in header if c.startswith("ref_t")]
        assert len(solution_cols) == 8  # 4 grid points x 2 time steps
        assert len(ref_cols) == 8
        assert rows[1][0] == "0"  # iteration-0 row carries the initial cost
        member = json.loads((out / "member_000.json").read_text())
        assert float(rows[1][1]) == pytest.approx(member["cost_trace"][0])
        assert len(rows) - 1 == len(member["cost_trace"])

    def test_columns_follow_the_header(self, tmp_path):
        # u_t{k}_g{j} is the member's field at time level k, grid point j;
        # ref_t{k}_g{j} the classical one
        config = write_config(tmp_path, problem={"n": 4, "n_t": 5})
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        assert main(["trace", "--config", config, "--out", str(out), "--member", "1"]) == 0
        header, *rows = read_csv(out / "trace_member_001.csv")
        member = json.loads((out / "member_001.json").read_text())
        _, classical = vqls._reference(RunConfig.from_file(config).problem)
        assert len(rows) == len(member["cost_trace"])
        for it, row in enumerate(rows):
            cells = dict(zip(header, row))
            assert cells["iteration"] == str(it)
            assert float(cells["cost"]) == pytest.approx(member["cost_trace"][it], rel=1e-14)
            for k in range(1, 5):
                for j in range(1, 5):
                    expected = member["solution_trace"][it][k - 1][j - 1]
                    assert float(cells[f"u_t{k}_g{j}"]) == pytest.approx(expected, rel=1e-14)
                    expected = classical[k - 1, j - 1]
                    assert float(cells[f"ref_t{k}_g{j}"]) == pytest.approx(expected, rel=1e-14)

    def test_reference_columns_constant(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out)])
        main(["trace", "--config", config, "--out", str(out), "--member", "1"])
        rows = read_csv(out / "trace_member_001.csv")
        ref_start = rows[0].index("ref_t1_g1")
        first = rows[1][ref_start:]
        assert all(row[ref_start:] == first for row in rows[2:])

    def test_missing_member_fails(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        assert main(["trace", "--config", config, "--out", str(out), "--member", "0"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FileNotFoundError"

    @pytest.mark.parametrize(
        "content", ["{bad", "{}", "[]"], ids=["malformed", "no-theta-final", "list"]
    )
    def test_unreadable_member_record_names_the_file(self, tmp_path, capsys, content):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        record = out / "member_000.json"
        record.write_text(content)
        assert main(["trace", "--config", config, "--out", str(out), "--member", "0"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert f"member record {record} cannot be read" in parsed["message"]
        assert sorted(p.name for p in out.iterdir()) == ["member_000.json"]

    def test_member_out_of_range(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", config, "--out", str(out)])
        assert main(["trace", "--config", config, "--out", str(out), "--member", "9"]) == 1


class TestDecomposeCommand:
    def test_reference_matrix(self, tmp_path):
        system = problem.build_block_system(problem.ProblemSpec())
        matrix_path = tmp_path / "a_reduced.npy"
        np.save(matrix_path, system.a_reduced)
        out = tmp_path / "out"
        assert main(["decompose", "--matrix", str(matrix_path), "--out", str(out)]) == 0
        records = json.loads((out / "decomposition.json").read_text())
        assert len(records) == 7
        by_label = {r["label"]: complex(r["re"], r["im"]) for r in records}
        assert by_label["III"] == pytest.approx(1.0)
        assert by_label["XII"] == pytest.approx(-0.3875)
        assert by_label["YII"] == pytest.approx(0.3875j)

    def test_csv_matrix_input(self, tmp_path):
        matrix_path = tmp_path / "matrix.csv"
        np.savetxt(matrix_path, np.eye(4), delimiter=",")
        out = tmp_path / "out"
        assert main(["decompose", "--matrix", str(matrix_path), "--out", str(out)]) == 0
        records = json.loads((out / "decomposition.json").read_text())
        assert records == [{"label": "II", "re": 1.0, "im": 0.0}]

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["decompose", "--matrix", str(tmp_path / "nope.npy"), "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "message" in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1e-3"])
    def test_invalid_prune_eps_fails_before_writing(self, tmp_path, capsys, eps):
        matrix_path = tmp_path / "matrix.csv"
        np.savetxt(matrix_path, np.eye(4), delimiter=",")
        out = tmp_path / "out"
        argv = ["decompose", "--matrix", str(matrix_path), "--out", str(out), f"--prune-eps={eps}"]
        assert main(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert "prune_eps must be a finite real number >= 0" in parsed["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_matrix_fails_before_writing(self, tmp_path, capsys, bad):
        matrix_path = tmp_path / "matrix.csv"
        matrix_path.write_text(f"1,{bad}\n0,1\n")
        out = tmp_path / "out"
        assert main(["decompose", "--matrix", str(matrix_path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert "matrix must have finite entries" in parsed["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, content",
        [
            ("strings.json", '[["a", "b"], ["c", "d"]]'),
            ("ragged.json", "[[1, 2], [3]]"),
            ("object.npy", None),
            ("archive.npy", None),
        ],
        ids=["strings", "ragged", "object", "archive"],
    )
    def test_unreadable_matrix_names_the_file(self, tmp_path, capsys, name, content):
        matrix_path = tmp_path / name
        if name == "object.npy":
            np.save(matrix_path, np.array([[1, None], [0, 1]], dtype=object), allow_pickle=True)
        elif name == "archive.npy":
            with open(matrix_path, "wb") as fh:
                np.savez(fh, a=np.eye(2))
        else:
            matrix_path.write_text(content)
        out = tmp_path / "out"
        assert main(["decompose", "--matrix", str(matrix_path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert str(matrix_path) in parsed["message"]
        assert not out.exists()

    @pytest.mark.parametrize("content", ["", " \n\n"], ids=["empty", "blank"])
    def test_empty_matrix_file_fails_with_one_line(self, tmp_path, content):
        # a subprocess, so that NumPy's "input contained no data" warning
        # meets the default warning filters rather than pytest's
        (tmp_path / "e.csv").write_text(content)
        src = str(Path(cli.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        proc = subprocess.run(
            [sys.executable, "-m", "advqls.cli", "decompose", "--matrix", "e.csv", "--out", "d"],
            cwd=tmp_path, env={**env, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert "e.csv" in parsed["message"]
        assert "holds no data" in parsed["message"]
        assert not (tmp_path / "d").exists()


class TestCircuitsCommand:
    def test_sweep_output(self, tmp_path):
        out = tmp_path / "out"
        assert main(["circuits", "--qubits", "3", "--l-min", "1", "--l-max", "30", "--out", str(out)]) == 0
        rows = read_csv(out / "circuits.csv")
        assert rows[0] == [
            "l",
            "baseline", "baseline_submittable",
            "beta_sym", "beta_sym_submittable",
            "full_sym", "full_sym_submittable",
        ]
        assert len(rows) == 31
        data = [[row[0], row[1], row[3], row[5]] for row in rows[1:]]
        for l, baseline, beta_sym, full_sym in data:
            assert int(full_sym) <= int(beta_sym) <= int(baseline)
        last = rows[-1]
        assert int(last[1]) == 4 * 30 * 30
        assert abs(int(last[5]) / int(last[1]) - 0.5) <= 0.05
        # the 900-circuit submission cap shows up in the flags
        flagged = {row[0]: row[2] for row in rows[1:]}
        assert flagged["15"] == "true"   # 900 exactly
        assert flagged["16"] == "false"

    def test_invalid_range(self, tmp_path, capsys):
        assert main(["circuits", "--l-min", "5", "--l-max", "2", "--out", str(tmp_path)]) == 1

    def test_unknown_mode_is_named(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["circuits", "--modes", "full_sym,bogus", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == (
            "mode must be one of ('baseline', 'beta_sym', 'full_sym'), got 'bogus'"
        )
        assert not out.exists()


class TestEstimateCommand:
    def test_reference_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(["estimate", "--tau", "3", "--resolutions", "5", "--out", str(out)]) == 0
        rows = read_csv(out / "estimate.csv")
        assert rows[0] == ["resolution_deg", "dt_s", "n_t", "n", "dimension", "qubits"]
        row = rows[1]
        assert abs(float(row[1]) - 5574.0) / 5574.0 <= 0.01
        assert row[2] == "156"
        assert row[3] == "12960"
        assert 14 <= np.log10(float(row[4])) <= 16
        assert row[5] == "49"

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "out"
        main(["estimate", "--tau", "3", "--resolutions", "5,2,1", "--out", str(out)])
        rows = read_csv(out / "estimate.csv")
        assert len(rows) == 4
        dims = [float(r[4]) for r in rows[1:]]
        assert dims[0] < dims[1] < dims[2]


class TestErrorContract:
    def test_bad_config_path(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
        line = capsys.readouterr().err.strip()
        parsed = json.loads(line)
        assert set(parsed) == {"error", "message"}

    @pytest.mark.parametrize(
        "config_overrides, flags, message",
        [
            ({"workers": 0}, [], "workers"),
            ({"workers": 2}, [], "workers"),
            ({}, ["--ensemble", "0"], "ensemble_size"),
            ({"shots": 0}, [], "shots"),
            ({"shots": "many"}, [], "shots"),
            ({}, ["--shots", "0"], "shots"),
            ({"spsa_overrides": {"max_iter": 5, "bogus": 1}}, [], "bogus"),
            ({"problem": {"n": 3}}, [], "power of two"),
            ({}, ["--shots", "many"], "--shots"),
            ({"spsa_overrides": {"seed": 5}}, [], "'seed'"),
            ({"base_seed": -1}, [], "base_seed"),
            ({}, ["--seed", "-1"], "base_seed"),
            ({"ansatz_units": 2.5}, [], "ansatz_units"),
            ({"classical_only": "no"}, [], "classical_only"),
            ({"spsa_overrides": {"max_iter": 2.5}}, [], "max_iter"),
            ({"problem": {"n": 4.0}}, [], "n must be an integer"),
            ({"problem": {"n_t": True}}, [], "n_t must be an integer"),
            ({"problem": {"nu": "x"}}, [], "nu must be a finite real number"),
            ({"problem": {"dt": float("nan")}}, [], "dt must be a finite real number"),
            ({"problem": {"length": float("inf")}}, [], "length must be a finite real number"),
            ({"problem": {"kappa": "1"}}, [], "kappa must be a finite real number"),
            ({"problem": 5}, [], "problem must be a mapping"),
            ({"out_dir": 5}, [], "out_dir"),
            ({"spsa_overrides": {"A": -1.0}}, [], "A must be > -1"),
            ({"spsa_overrides": {"A": -11.0}}, [], "A must be > -1"),
            ({"spsa_overrides": {"tol": "x"}}, [], "tol must be a finite real number"),
            ({"spsa_overrides": {"alpha": "x"}}, [], "alpha must be a finite real number"),
            ({"spsa_overrides": {"c": float("nan")}}, [], "c must be a finite real number"),
            ({"spsa_overrides": {"a": float("inf")}}, [], "a must be a finite real number"),
            ({"shots": 2**63}, [], "shots"),
            ({}, ["--shots", str(2**63)], "shots"),
            # a top level that is not an object replaces the whole config
            ([], [], "config must be a JSON object"),
            (None, [], "config must be a JSON object"),
            (8192, [], "config must be a JSON object"),
            ("exact", [], "config must be a JSON object"),
            # degenerate or overflowing systems, named before anything divides
            ({"problem": {"kappa": 0}}, [], "right-hand side (I + M dt) u0 vanishes for kappa=0"),
            ({"problem": {"nu": 1e308}}, [], "nu=1e+308"),
            ({"problem": {"dt": 1e300}}, [], "dt=1e+300"),
            ({"problem": {"length": 1e-320}}, [], "length=1e-320"),
            ({"problem": {"kappa": 1e308}}, [], "kappa must have a finite square"),
            ({"problem": {"x": 1}}, [], "unknown problem keys: ['x']"),
            # the register is checked before the system is built, so a spec
            # with both faults is named for its register
            ({"problem": {"n": 3, "kappa": 0}}, [], "reduced dimension 6 is not a power of two"),
        ],
    )
    def test_invalid_config_fails_before_writing(self, tmp_path, capsys, config_overrides, flags, message):
        if isinstance(config_overrides, dict):
            config = write_config(tmp_path, **config_overrides)
        else:
            config = str(tmp_path / "config.json")
            Path(config).write_text(json.dumps(config_overrides))
        out = tmp_path / "run"
        out.mkdir()
        assert main(["solve", "--config", config, "--out", str(out), *flags]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert message in parsed["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--resolutions", "inf"], "horizontal_resolution_deg must be a finite real number"),
            (["--resolutions", "nan"], "horizontal_resolution_deg must be a finite real number"),
            (["--resolutions", "5,inf"], "horizontal_resolution_deg must be a finite real number"),
            (["--u-max", "nan"], "u_max must be a finite real number"),
            (["--u-max", "inf"], "u_max must be a finite real number"),
            (["--u-max", "0"], "u_max must be positive"),
            (["--forecast-days", "inf"], "forecast_length_s must be a finite real number"),
            (["--forecast-days", "nan"], "forecast_length_s must be a finite real number"),
            (["--cfl", "nan"], "cfl must be a finite real number"),
            (["--km-per-degree", "inf"], "km_per_degree must be a finite real number"),
            (["--tau", "2000"], "tau must be an integer in [1, 100], got 2000"),
            (["--resolutions", ""], "--resolutions must be comma-separated numbers, got ''"),
            (["--resolutions", "5,abc"], "--resolutions must be comma-separated numbers, got '5,abc'"),
            (["--tau", "100", "--resolutions", "1e-30"], "resolution 1e-30 deg gives a dimension too long to print"),
            (["--resolutions", "5,1e-320"], "resolution 1e-320 deg is too fine"),
            (["--resolutions", "400"], "resolution 400.0 deg: need n >= 2"),
        ],
    )
    def test_invalid_estimate_fails_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "estimate"
        out.mkdir()
        assert main(["estimate", "--tau", "3", "--out", str(out), *flags]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert message in parsed["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "cfl, u_max, dt",
        [("1e-300", "1e300", "0.0"), ("1e300", "1e-300", "inf")],
        ids=["underflow", "overflow"],
    )
    def test_degenerate_cfl_step_is_named(self, tmp_path, capsys, cfl, u_max, dt):
        out = tmp_path / "estimate"
        argv = ["estimate", "--tau", "3", "--cfl", cfl, "--u-max", u_max, "--resolutions", "5"]
        assert main([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError",
            "message": f"resolution 5.0 deg with cfl={float(cfl)} and u_max={float(u_max)} "
            f"gives a CFL time step of {dt} s, not a positive finite number",
        }
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "trace", "decompose", "circuits", "estimate"])
    def test_failed_command_creates_nothing(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "trace":
            # trace reads its record from --out: one solved on n = 8, traced
            # under the n = 4 spec
            config = write_config(tmp_path, problem={"n": 8}, ensemble_size=1)
            assert main(["solve", "--config", config, "--out", str(out)]) == 0
            capsys.readouterr()
        matrix_path = tmp_path / "matrix.csv"
        np.savetxt(matrix_path, np.eye(4), delimiter=",")
        argv = {
            "solve": ["solve", "--config", write_config(tmp_path, problem={"n": 3})],
            "trace": ["trace", "--member", "0"],
            "decompose": ["decompose", "--matrix", str(matrix_path), "--prune-eps=nan"],
            "circuits": ["circuits", "--modes", "bogus"],
            "estimate": ["estimate", "--tau", "100", "--resolutions", "1e-30"],
        }[command]
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert out.exists() == (command == "trace")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--tau", "abc"], "argument --tau: invalid int value: 'abc'"),
            (["trace"], "the following arguments are required: --member"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
        ids=["bad-type", "missing-required", "unknown-command"],
    )
    def test_rejected_argument_creates_nothing(self, tmp_path, capsys, argv, message):
        # argparse's own rejections follow the same one-JSON-line contract
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "ValueError"
        assert message in parsed["message"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--help"])
        assert exc.value.code == 0
        assert "--tau" in capsys.readouterr().out


# every kind of value a CSV cell can hold
CSV_CELLS = [
    0.1, 1 / 3, np.float64(0.1), np.float32(0.1), np.float16(0.1),
    123456789012345678.0, float("nan"), np.float64("nan"), float("inf"), float("-inf"),
    np.float64("-inf"), -0.0, np.float64(-0.0), 5e-324, 1e300, -1e300,
    0, -7, 2**70, np.int64(-7), np.uint8(255),
    True, False, np.bool_(True), np.bool_(False),
    "ensemble_mean", "Mixed Case", "", "a,b", 'say "hi"', "line\nbreak",
]


class TestCsvCells:
    @pytest.mark.parametrize("value", CSV_CELLS, ids=[f"{type(v).__name__}-{v!r}" for v in CSV_CELLS])
    def test_cell_matches_the_oracle(self, value):
        rows = [[value], [1, value, "x"]]
        assert cli._csv(["v"], rows) == csv_text(["v"], rows)

    def test_mixed_rows_match_the_oracle(self):
        rows = [CSV_CELLS, CSV_CELLS[::-1], []]
        header = [f"c{i}" for i in range(len(CSV_CELLS))]
        assert cli._csv(header, rows) == csv_text(header, rows)


class TestSharedParser:
    """`main` reuses one parser; no call sees what an earlier one passed."""

    def test_one_parser_per_process(self, tmp_path):
        assert main(["circuits", "--l-max", "2", "--out", str(tmp_path / "c")]) == 0
        assert cli.build_parser() is cli.build_parser()

    def test_parser_not_built_at_import(self):
        # importing the CLI builds no parser, so it adds nothing to start-up
        code = "from advqls import cli; print(cli.build_parser.cache_info().currsize)"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "0"

    def test_omitted_flag_takes_its_default(self, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["circuits", "--qubits", "4", "--l-max", "3", "--out", str(out1)]) == 0
        assert main(["circuits", "--l-max", "3", "--out", str(out2)]) == 0
        manifest = json.loads((out2 / "manifest_circuits.json").read_text())
        assert manifest["config"]["qubits"] == 3

    def test_omitted_seed_takes_its_default(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["solve", "--classical-only", "--seed", "5", "--out", str(out1)]) == 0
        assert main(["solve", "--classical-only", "--out", str(out2)]) == 0
        first = json.loads((out1 / "manifest_solve.json").read_text())
        second = json.loads((out2 / "manifest_solve.json").read_text())
        assert (first["config"]["base_seed"], second["config"]["base_seed"]) == (5, 0)

    def test_rejected_argv_between_calls_changes_nothing(self, tmp_path, capsys):
        argv = ["estimate", "--tau", "3", "--resolutions", "5,2", "--cfl", "0.5"]
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main([*argv, "--out", str(out1)]) == 0
        assert main(["estimate", "--tau", "abc", "--levels", "7", "--out", str(out2)]) == 1
        assert not out2.exists()
        assert main([*argv, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
