import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import arcshoot
from arcshoot import cli, shooting
from arcshoot import problems as P
from arcshoot.arc_structure import write_trajectory_csv
from arcshoot.cli import main
from arcshoot.shooting import ConvergenceReport, gauss_newton, load_omega, save_omega


def run(args):
    return main([str(a) for a in args])


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solved")
    code = run(["solve", "--problem", "regulator", "--structure", "B-,C,S",
                "--tau", "1.25,2.55", "--init", "analytic", "--steps", "333",
                "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def toy_bang_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_bang")
    assert run(["solve", "--problem", "toy-bang", "--structure", "B-",
                "--init", "analytic", "--out", out]) == 0
    return out


class TestSolve:
    def test_outputs_and_report(self, solved_dir):
        report = json.loads((solved_dir / "report.json").read_text())
        assert report["converged"] is True
        assert report["validation"]["passed"] is True
        assert abs(report["cost"] - 0.3925013) < 1e-4
        assert abs(report["tau"][0] - 1.2) < 1e-6
        assert {"trajectory.csv", "omega.json", "report.json"} <= {
            p.name for p in solved_dir.iterdir()
        }

    def test_trajectory_header(self, solved_dir):
        first = (solved_dir / "trajectory.csv").read_text().splitlines()[0]
        assert first == "arc,k,s,t,u,x1,x2,x3,p1,p2,p3"

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["solve", "--problem", "regulator", "--structure", "B-,C,S",
                        "--init", "analytic", "--steps", "120", "--out", out]) == 0
            assert run(["verify", "--problem", "regulator", "--omega", out / "omega.json",
                        "--nodes", "40", "--out", out]) != 1
            outs.append(out)
        for name in ("trajectory.csv", "report.json", "positivity.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_round_trip_warm_start(self, solved_dir, regulator):
        struct, omega, meta = load_omega(solved_dir / "omega.json", regulator)
        omega, report = gauss_newton(regulator, struct, omega, steps=meta["steps"])
        assert report.converged and report.jacobian_rank == omega.pack().size
        assert report.n_iter <= 2

    def test_toy_bang(self, tmp_path):
        out = tmp_path / "tb"
        assert run(["solve", "--problem", "toy-bang", "--structure", "B-",
                    "--init", "analytic", "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gauss_newton"]["final_residual"] <= 1e-12
        assert report["cost"] == -1.0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "toy-bang", "structure": "B-", "init": "analytic",
            "out": str(tmp_path / "ignored"),
        }))
        out = tmp_path / "flagged"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        assert (out / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_unknown_problem_exits_1(self, tmp_path):
        assert run(["solve", "--problem", "nope", "--structure", "B-",
                    "--init", "analytic", "--out", tmp_path]) == 1

    def test_invalid_structure_exits_1(self, tmp_path):
        assert run(["solve", "--problem", "regulator", "--structure", "B-,B-",
                    "--init", "analytic", "--out", tmp_path]) == 1

    def test_analytic_init_structure_mismatch_exits_1(self, tmp_path):
        assert run(["solve", "--problem", "regulator", "--structure", "S",
                    "--init", "analytic", "--out", tmp_path]) == 1

    def test_out_of_order_solved_tau_writes_report(self, tmp_path, capsys, monkeypatch):
        # Gauss-Newton "converges" to switching times that collapse an arc.
        solved = P.regulator_analytic_omega()
        solved.tau = np.array([2.14227789, 2.14227789])
        gn = ConvergenceReport(iterations=[{"residual_norm": 0.25, "step_norm": 0.5}],
                               converged=True, final_residual=4.4e-11, jacobian_rank=24,
                               smallest_singular_value=0.067)
        monkeypatch.setattr(cli, "gauss_newton", lambda *a, **k: (solved, gn))
        assert run(["solve", "--problem", "regulator", "--structure", "B-,C,S",
                    "--init", "analytic", "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "switching times must be strictly increasing" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report == {"problem": "regulator", "converged": False,
                          "tau": [2.14227789, 2.14227789],
                          "error": err.split("solve: error: ", 1)[1].strip(),
                          "gauss_newton": gn.to_json_dict()}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_rank_deficient_solve_exits_2(self, tmp_path, monkeypatch):
        # A rank cutoff of half the largest singular value leaves the
        # Jacobian at the analytic start rank deficient: the solution is
        # written, flagged, and the exit code is 2.
        monkeypatch.setattr(shooting, "SVD_RCOND", 0.5)
        assert run(["solve", "--problem", "regulator", "--structure", "B-,C,S",
                    "--init", "analytic", "--steps", "120", "--tol", "1e-3",
                    "--out", tmp_path]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rank_deficient"] is True and report["converged"] is True
        assert report["gauss_newton"]["jacobian_rank"] < 24
        assert (tmp_path / "omega.json").exists()

    def test_max_iter_exceeded_exits_1(self, tmp_path, capsys):
        assert run(["solve", "--problem", "regulator", "--structure", "B-,C,S",
                    "--init", "analytic", "--steps", "120", "--tol", "1e-14",
                    "--max-iter", "0", "--out", tmp_path]) == 1
        assert "solve: no convergence after 0 iterations" in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is False and report["gauss_newton"]["iterations"] == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    @pytest.mark.parametrize("structure", [["detect"], ["B-,C,S", "--tau", "1.2,2.6"]],
                             ids=["detected", "given"])
    def test_cold_start_from_the_direct_solve(self, tmp_path, monkeypatch, reg_direct, structure):
        # reg_direct is the direct solve at the CLI's defaults (grid 100,
        # penalty 1e3, 800 iterations); the solve runs it once.
        calls = []
        monkeypatch.setattr(cli, "_run_direct", lambda prob, cfg: calls.append(cfg) or reg_direct)
        assert run(["solve", "--problem", "regulator", "--structure", *structure,
                    "--init", "direct", "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(calls) == 1 and report["structure"] == ["B-", "C", "S"]
        np.testing.assert_allclose(report["tau"], [1.2, 2.6], rtol=0, atol=1e-6)
        assert abs(report["cost"] - 0.3925013) <= 1e-7

    def test_analytic_init_without_reference_exits_1(self, tmp_path, capsys):
        assert run(["solve", "--problem", "arcshoot.problems:make_regulator_fd_brackets",
                    "--structure", "B-,C,S", "--init", "analytic", "--out", tmp_path]) == 1
        assert ("solve: error: init=analytic needs a built-in problem with a reference "
                "solution: unknown problem") in capsys.readouterr().err

    def test_missing_warm_start_exits_1(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert run(["solve", "--problem", "regulator", "--structure", "B-,C,S",
                    "--init", path, "--out", tmp_path]) == 1
        assert f"solve: error: warm-start file {path} does not exist" in capsys.readouterr().err

    def test_warm_start_of_other_structure_exits_1(self, tmp_path, solved_dir, capsys):
        assert run(["solve", "--problem", "regulator", "--structure", "B-,S", "--tau", "2.0",
                    "--init", solved_dir / "omega.json", "--out", tmp_path]) == 1
        assert ("solve: error: warm start has structure ['B-', 'C', 'S'], requested "
                "['B-', 'S']") in capsys.readouterr().err

    def test_problem_factory_by_module_path(self, tmp_path, solved_dir):
        assert run(["solve", "--problem", "arcshoot.problems:make_regulator_fd_brackets",
                    "--structure", "B-,C,S", "--init", solved_dir / "omega.json",
                    "--steps", "333", "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["problem"] == "arcshoot.problems:make_regulator_fd_brackets"
        assert report["converged"] is True

    @pytest.mark.parametrize("spec, what", [
        ("arcshoot.no_such_module:make", "cannot import problem factory "
                                         "'arcshoot.no_such_module:make': No module named"),
        ("arcshoot.problems:no_such_factory", "cannot import problem factory "
                                              "'arcshoot.problems:no_such_factory'"),
        ("arcshoot.problems:regulator_structure",
         "'arcshoot.problems:regulator_structure' did not return a ProblemDef"),
    ], ids=["no_module", "no_attribute", "not_a_problem"])
    def test_bad_problem_factory_exits_1(self, tmp_path, capsys, spec, what):
        assert run(["solve", "--problem", spec, "--out", tmp_path]) == 1
        assert f"solve: error: {what}" in capsys.readouterr().err

    def test_validation_checks_without_c_or_s_arcs(self, toy_bang_dir):
        # One B- arc: the four checks over C/S arcs and CS junctions pass
        # vacuously at +-inf, and first-order passes on an empty sample.
        checks = json.loads((toy_bang_dir / "report.json").read_text())["validation"]["checks"]
        inf = float("inf")
        assert checks == [
            {"name": "bound_margin_on_interior_arcs", "passed": True, "value": inf,
             "detail": "no C or S arcs"},
            {"name": "control_jump_at_cs_junctions", "passed": True, "value": inf,
             "detail": "no CS or SC junctions"},
            {"name": "first_order_condition_on_c_arcs", "passed": True, "value": inf,
             "detail": "min |dg.f1| vs guard 0.000e+00"},
            {"name": "legendre_clebsch_sign_on_s_arcs", "passed": True, "value": -inf,
             "detail": "no S arcs"},
            {"name": "constraint_multiplier_nonnegative", "passed": True, "value": inf,
             "detail": "no C arcs"},
            {"name": "state_constraint_satisfied", "passed": True, "value": -10.0,
             "detail": "max g(x) over all nodes"},
            {"name": "hamiltonian_constant_per_arc", "passed": True, "value": 0.0,
             "detail": "max relative drift of H along each arc"},
        ]

    @pytest.mark.parametrize("text, what", [
        ("{not json", "is not valid JSON"),
        ('["problem", "toy-bang"]', "must hold a JSON object, not list"),
    ], ids=["not_json", "list"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, text, what):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["solve", "--config", cfg, "--problem", "toy-bang", "--structure", "B-",
                    "--init", "analytic", "--out", tmp_path]) == 1
        assert f"solve: error: {cfg} {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, what", [
        ({"steps": "many"}, "key 'steps': invalid int value: 'many'"),
        ({"tau": "1.2,late"}, "key 'tau': invalid float_list value: '1.2,late'"),
    ], ids=["steps", "tau"])
    def test_mistyped_config_value_exits_1(self, tmp_path, capsys, entry, what):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy-bang", "structure": "B-", **entry}))
        assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
        assert f"solve: error: {cfg} {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["stepz", "max-iter"])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy-bang", "structure": "B-", "init": "analytic",
                                   key: 0}))
        assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
        assert f"solve: error: {cfg} key {key!r} names no flag" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_one_config_serves_solve_and_verify(self, tmp_path):
        # Each subcommand reads its own keys and ignores the other's.
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy-bang", "structure": "B-", "init": "analytic",
                                   "steps": 40, "nodes": 30, "out": str(out)}))
        assert run(["solve", "--config", cfg]) == 0
        assert run(["verify", "--config", cfg]) == 0
        assert json.loads((out / "omega.json").read_text())["meta"]["steps"] == 40
        assert json.loads((out / "positivity.json").read_text())["nodes"] == 30

    def test_directory_as_config_exits_1(self, tmp_path, capsys):
        assert run(["solve", "--config", tmp_path, "--out", tmp_path]) == 1
        assert "solve: error: [Errno 21] Is a directory: " in capsys.readouterr().err

    def test_non_string_problem_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": 5, "structure": "B-"}))
        assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
        assert "solve: error: unknown problem '5'" in capsys.readouterr().err

    def test_config_values_read_like_flags(self, tmp_path):
        # The same run from flags and from a file of JSON numbers and a tau
        # list writes the same bytes.
        flags = ["--problem", "regulator", "--structure", "B-,C,S", "--init", "analytic"]
        assert run(["solve", *flags, "--tau", "1.25,2.55", "--steps", "120",
                    "--tol", "1e-6", "--out", tmp_path / "flags"]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "regulator", "structure": "B-,C,S",
                                   "init": "analytic", "tau": [1.25, 2.55], "steps": 120,
                                   "tol": 1e-6, "out": str(tmp_path / "file")}))
        assert run(["solve", "--config", cfg]) == 0
        for name in ("trajectory.csv", "omega.json", "report.json"):
            assert ((tmp_path / "flags" / name).read_bytes()
                    == (tmp_path / "file" / name).read_bytes()), name

    def test_no_problem_exits_1(self, tmp_path, capsys):
        assert run(["solve", "--structure", "B-", "--out", tmp_path]) == 1
        assert "solve: error: no problem given" in capsys.readouterr().err

    def test_warm_start_of_other_problem_exits_1(self, tmp_path, toy_bang_dir, capsys):
        assert run(["solve", "--problem", "regulator", "--structure", "B-", "--tau", "",
                    "--init", toy_bang_dir / "omega.json", "--out", tmp_path]) == 1
        assert "solve: error: " in capsys.readouterr().err


class TestDetect:
    def test_from_csv(self, tmp_path, regulator):
        t, u, x = P.sample_regulator(800)
        csv_path = tmp_path / "traj.csv"
        write_trajectory_csv(csv_path, t, u, x)
        out = tmp_path / "det"
        assert run(["detect", "--problem", "regulator", "--from-csv", csv_path,
                    "--out", out]) == 0
        doc = json.loads((out / "structure.json").read_text())
        assert doc["kinds"] == ["B-", "C", "S"]
        assert abs(doc["tau"][0] - 1.2) <= 0.01 and abs(doc["tau"][1] - 2.6) <= 0.01

    def test_csv_files_end_lines_with_lf(self, tmp_path, solved_dir):
        # Both CSV files end their lines with LF; the detect --from-csv
        # structure of the direct trajectory is that of its CRLF copy.
        assert run(["detect", "--problem", "regulator", "--grid", "40",
                    "--direct-iters", "100", "--out", tmp_path]) == 0
        direct = (tmp_path / "direct_trajectory.csv").read_bytes()
        assert b"\r" not in direct
        assert b"\r" not in (solved_dir / "trajectory.csv").read_bytes()
        (tmp_path / "crlf.csv").write_bytes(direct.replace(b"\n", b"\r\n"))
        docs = []
        for name in ("direct_trajectory.csv", "crlf.csv"):
            out = tmp_path / name.replace(".", "_")
            assert run(["detect", "--problem", "regulator", "--from-csv", tmp_path / name,
                        "--out", out]) == 0
            docs.append(_without(json.loads((out / "structure.json").read_text()), "source"))
        assert docs[0] == docs[1]
        detected = json.loads((tmp_path / "structure.json").read_text())
        assert docs[0] == {k: detected[k] for k in ("kinds", "tau")}

    @pytest.mark.parametrize("iters", ["-1", "-5"])
    def test_negative_direct_iters_exits_1(self, tmp_path, capsys, iters):
        assert run(["detect", "--problem", "regulator", "--direct-iters", iters,
                    "--out", tmp_path]) == 1
        assert f"detect: error: max_iters must be >= 0, got {iters}" in capsys.readouterr().err
        assert not (tmp_path / "structure.json").exists()

    def test_empty_csv_fails(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("t,u,x1,x2,x3\n")
        assert run(["detect", "--problem", "regulator", "--from-csv", csv_path,
                    "--out", tmp_path]) == 1

    def test_nan_time_in_csv_exits_1(self, tmp_path, capsys):
        t, u, x = P.sample_regulator(200)
        t = t.copy()
        t[47] = np.nan
        csv_path = tmp_path / "nan.csv"
        write_trajectory_csv(csv_path, t, u, x)
        assert run(["detect", "--problem", "regulator", "--from-csv", csv_path,
                    "--out", tmp_path]) == 1
        assert "detect: error: grid must be 1-D and strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["0.1,abc,0,1,0", "0.1,-1,0,1"])
    def test_malformed_csv_row_exits_1(self, tmp_path, capsys, bad_row):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"t,u,x1,x2,x3\n0,-1,0,1,0\n{bad_row}\n")
        assert run(["detect", "--problem", "regulator", "--from-csv", csv_path,
                    "--out", tmp_path]) == 1
        assert "detect: error: line 3 of " in capsys.readouterr().err


class TestVerify:
    def test_toy_bang_vacuous_pass(self, tmp_path):
        out = tmp_path / "tb"
        assert run(["solve", "--problem", "toy-bang", "--structure", "B-",
                    "--init", "analytic", "--out", out]) == 0
        assert run(["verify", "--problem", "toy-bang", "--omega", out / "omega.json",
                    "--nodes", "40", "--out", out]) == 0
        doc = json.loads((out / "positivity.json").read_text())
        assert doc["pass"] is True and doc["nullspace_dim"] == 0

    def test_regulator_reports_certificate(self, tmp_path, solved_dir):
        out = tmp_path / "ver"
        code = run(["verify", "--problem", "regulator",
                    "--omega", solved_dir / "omega.json", "--nodes", "80",
                    "--out", out])
        doc = json.loads((out / "positivity.json").read_text())
        # The junction-shift null direction keeps the margin-based pass off;
        # the raw smallest eigenvalue sits at the discretization floor.
        assert code == 2 and doc["pass"] is False
        assert doc["nullspace_dim"] > 0
        assert doc["nodes"] == 80 and doc["ncoord"] == 11 + 81
        eig = doc["smallest_eigenvalues"]
        assert len(eig) == 3 and eig == sorted(eig) and eig[0] == doc["c_est"]
        assert doc["lam_max"] >= abs(eig[-1])

    def test_omega_of_other_problem_exits_1(self, tmp_path, toy_bang_dir, capsys):
        assert run(["verify", "--problem", "regulator", "--omega",
                    toy_bang_dir / "omega.json", "--out", tmp_path]) == 1
        assert "n=1, q=1; the problem has n=3, q=3" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, what", [
        (lambda doc: "not json", "is not valid JSON"),
        (lambda doc: json.dumps({**doc, "meta": _without(doc["meta"], "N")}),
         "has no key 'meta.N'"),
        (lambda doc: json.dumps(_without(doc, "structure")),
         "has no key 'structure.kinds'"),
        (lambda doc: json.dumps({**doc, "omega": ["x"] + doc["omega"][1:]}),
         "key 'omega' is not a list of numbers"),
        (lambda doc: json.dumps({**doc, "meta": {**doc["meta"], "n": "1"}}),
         "key 'meta.n' must be an integer, got '1'"),
        (lambda doc: json.dumps({**doc, "meta": {**doc["meta"], "n_singular": 0.0}}),
         "key 'meta.n_singular' must be an integer, got 0.0"),
        (lambda doc: json.dumps({**doc, "structure": {**doc["structure"], "tau": ["x", 2.6]}}),
         "key 'structure.tau' is not a list of numbers: could not convert string to float: 'x'"),
        (lambda doc: json.dumps({**doc, "structure": {**doc["structure"], "tau": None}}),
         "key 'structure.tau' is not a list of numbers: got None"),
        (lambda doc: json.dumps({**doc, "structure": {**doc["structure"], "kinds": 5}}),
         "key 'structure.kinds' is not a list of arc tokens: got 5"),
        (lambda doc: json.dumps({**doc, "structure": {"kinds": ["B-", 1, "S"], "tau": [1, 2]}}),
         "key 'structure': unknown arc token '1', use B-, B+, C or S"),
        (lambda doc: json.dumps({**doc, "structure": {"kinds": ["B-", "B-"], "tau": [0.5]}}),
         "key 'structure': adjacent arcs must differ, got B-B-"),
        (lambda doc: json.dumps({**doc, "structure": {"kinds": ["B-", "C", "S"], "tau": [0.5]}}),
         "key 'structure': 3 arcs need 2 switching times, got 1"),
    ], ids=["not_json", "no_meta_N", "no_structure", "non_numeric_omega", "string_meta_n",
            "float_meta_n_singular", "non_numeric_tau", "null_tau", "int_kinds",
            "unknown_token", "adjacent_equal_kinds", "short_tau"])
    def test_malformed_omega_exits_1(self, tmp_path, toy_bang_dir, capsys, edit, what):
        path = tmp_path / "omega.json"
        path.write_text(edit(json.loads((toy_bang_dir / "omega.json").read_text())))
        assert run(["verify", "--problem", "toy-bang", "--omega", path, "--out", tmp_path]) == 1
        assert f"verify: error: {path} {what}" in capsys.readouterr().err

    def test_metadata_of_another_structure_exits_1(self, tmp_path, toy_bang_dir, capsys):
        doc = json.loads((toy_bang_dir / "omega.json").read_text())
        doc["meta"]["n_constrained"] = 1
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "--problem", "toy-bang", "--omega", path, "--out", tmp_path]) == 1
        assert (f"verify: error: warm-start metadata inconsistent with structure in {path}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("tau", [[-0.5, 2.6], [1.0, 2.6], [1.2, 6.0]],
                             ids=["outside_0_T", "moved_tau1", "past_T"])
    def test_packed_tau_other_than_structure_tau_exits_1(self, tmp_path, capsys, tau):
        # Only the switching times inside the packed omega differ from the
        # analytic file's; its structure.tau stays [1.2, 2.6].
        path = tmp_path / "omega.json"
        save_omega(path, P.regulator_structure(), P.regulator_analytic_omega(),
                   P.make_regulator(), 1000)
        doc = json.loads(path.read_text())
        doc["omega"][9:11] = tau          # after the 3 x 3 arc initial states
        path.write_text(json.dumps(doc))
        assert run(["verify", "--problem", "regulator", "--omega", path, "--nodes", "50",
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert (f"verify: error: {path} holds switching times [1.2, 2.6] in 'structure.tau' "
                f"but {tau} in 'omega'") in err

    def test_directory_as_omega_exits_1(self, tmp_path, capsys):
        assert run(["verify", "--problem", "regulator", "--omega", tmp_path,
                    "--out", tmp_path]) == 1
        assert f"verify: error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_missing_omega_exits_1(self, tmp_path):
        assert run(["verify", "--problem", "regulator",
                    "--omega", tmp_path / "none.json", "--out", tmp_path]) == 1


def test_every_exported_name_resolves():
    missing = [name for name in arcshoot.__all__ if not hasattr(arcshoot, name)]
    assert not missing and len(set(arcshoot.__all__)) == len(arcshoot.__all__)


def _perfbench_workloads():
    """The benchmark's workloads module, loaded by its path and left as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["warm", "certify"])
def test_perfbench_job_passes_the_benchmark_output_checks(tmp_path, workload):
    # The benchmark's own gate, c_est within REF_C_EST_RTOL = 1e-6 of REF_VERIFY
    # among its checks: a change that moves the certificate past it fails here.
    wl = _perfbench_workloads()
    inputs = wl.generate_inputs(workload, 1, tmp_path / "inputs")
    out = tmp_path / "out"
    out.mkdir()
    codes = [main(argv) for argv in wl.job_argvs(workload, 1, inputs, out)]
    assert wl.check_job(workload, out, codes) is None
