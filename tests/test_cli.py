import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import daecont

from daecont.cli import MAX_BRANCH_STEPS, MAX_LEMMA_PATHS, build_parser, main
from daecont.degree import Box
from daecont.fixtures import load_fixture, problem_text
from daecont.linalg import norm_inf
from daecont.periodic import branch_seeds

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "help.txt"


# semilinear_4x4 plus a decoupled pair (x5, x6): n = 6, rank E = 3
SEMILINEAR_6X6 = """[problem]
kind = semilinear
name = semilinear_6x6
n = 6
period = 6.283185307179586

[E]
1, 0, 0, 0, 0, 0
0, 0, 0, 0, 0, 0
0, 0, 0, 1, 0, 0
0, 0, 0, 0, 0, 0
0, 0, 0, 0, 1, 0
0, 0, 0, 0, 0, 0

[F]
0, 0, 0, 0, 0, 0
cos(t), 1, 0, -sin(t), 0, 0
0, 0, 0, 0, 0, 0
sin(t), 0, 1, cos(t), 0, 0
0, 0, 0, 0, 0, 0
0, 0, 0, 0, 1, 1

[C]
2 + cos(t), 1, 0, 1, 0, 0
0, 0, 0, 0, 0, 0
1, 3 + sin(t), 2, 0, 0, 0
0, 0, 0, 0, 0, 0
0, 0, 0, 0, 1, 2
0, 0, 0, 0, 0, 0

[S]
x1
x2
x3
x4
x5
x6
"""


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_rotating_surface(self, capsys):
        code, out, _ = run(capsys, "check", "rotating_surface")
        assert code == 0
        data = json.loads(out)
        assert np.allclose(data["M"], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-10)
        assert data["orthogonal"] is True
        assert data["right_constant"] is True

    def test_counterexample4_passes(self, capsys):
        code, out, _ = run(capsys, "check", "counterexample4")
        assert code == 0
        data = json.loads(out)
        assert data["right_constant"] and data["left_constant"]
        # the two one-sided products differ although both are constant
        assert not np.allclose(data["M"], data["K"], atol=0.5)

    def test_semilinear_reduction_report(self, capsys):
        code, out, _ = run(capsys, "check", "semilinear_4x4")
        assert code == 0
        data = json.loads(out)
        assert data["reduction"]["conditions_hold"] is True
        audit = data["averaged_map_audit"]
        assert audit["quadrature_gap"] <= 1e-10
        assert "reference_gap" in audit
        assert data["frame_suitable"] is True

    def test_semilinear_report_matches_golden(self, capsys):
        # the averaged-map audit reads the frame at its quadrature times
        code, out, err = run(capsys, "check", "semilinear_4x4")
        assert (code, err) == (0, "")
        assert out == (GOLDEN_DIR / "check_semilinear_4x4.json").read_text()

    def test_semilinear_rank_three(self, capsys, tmp_path):
        # the audit's probes have 2 * rank = 6 entries
        f = tmp_path / "semilinear_6x6.prob"
        f.write_text(SEMILINEAR_6X6)
        code, out, err = run(capsys, "check", str(f))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["reduction"]["rank"] == 3 and data["reduction"]["conditions_hold"] is True
        audit = data["averaged_map_audit"]
        assert [len(row["point"]) for row in audit["probes"]] == [6, 6, 6]
        assert audit["quadrature_gap"] <= 1e-10

    def test_problem_file_path(self, capsys, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text(problem_text("scalar_linear"))
        code, out, _ = run(capsys, "check", str(f))
        assert code == 0

    def test_bad_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "no_such_fixture"])
        assert exc.value.code == 2

    def test_failed_audit_exits_one(self, capsys, tmp_path):
        text = problem_text("rotating_surface").replace("sin(t), cos(t)", "sin(t), 2*cos(t)")
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, out, _ = run(capsys, "check", str(f))
        assert code == 1


class TestLemmas:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--count", "3", "--seed", "5")
        assert code == 0
        data = json.loads(out)
        assert data["all_identities_hold"] is True
        names = [e["name"] for e in data["paths"]]
        assert names[:3] == ["rot2", "rot2cw", "counterexample4"]

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "lemmas", "--count", "2", "--seed", "9")
        _, out2, _ = run(capsys, "lemmas", "--count", "2", "--seed", "9")
        assert out1 == out2


class TestDegree:
    def test_rotating_surface_both(self, capsys):
        code, out, _ = run(capsys, "degree", "rotating_surface", "--method", "both",
                           "--radius", "2")
        assert code == 0
        data = json.loads(out)
        assert data["reduced"]["degree"] == 1
        assert data["generic"]["degree"] == 1
        assert data["agree"] is True

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "degree", "rotating_surface", "--method", "reduced")
        assert code == 0
        assert json.loads(out)["reduced"]["degree"] == 1

    def test_hypothesis_violation_exits_one(self, capsys, tmp_path):
        text = problem_text("rotating_surface").replace("sin(t), cos(t)", "sin(t), 2*cos(t)")
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, _, err = run(capsys, "degree", str(f))
        assert code == 1
        assert "HypothesisViolated" in err


    # The goldens' generic zeros came from Newton on a forward-difference
    # Jacobian (step 1e-7 (1 + |x|)); the exact Jacobian lands Newton on
    # another point inside its 1e-12 residual tolerance.  Everything the
    # certificate claims stays exact: the reduced slot, the degrees, signs,
    # zero counts and margins.
    @pytest.mark.parametrize("name", ["commuting_h", "rotating_surface",
                                      "rotating_surface_2nd", "semilinear_4x4"])
    def test_both_methods_match_golden(self, capsys, name):
        code, out, err = run(capsys, "degree", name, "--method", "both")
        assert code == 0 and err == ""
        got = json.loads(out)
        golden = json.loads((GOLDEN_DIR / f"degree_{name}.json").read_text())
        assert got["reduced"] == golden["reduced"] and got["agree"] is golden["agree"] is True
        gen, ref = got["generic"], golden["generic"]
        for key in ("degree", "method", "boundary_margin", "zero_count"):
            assert gen[key] == ref[key], key
        assert len(gen["zeros"]) == len(ref["zeros"])
        for zero, ref_zero in zip(gen["zeros"], ref["zeros"]):
            assert zero["sign"] == ref_zero["sign"]
            assert np.max(np.abs(np.subtract(zero["point"], ref_zero["point"]))) <= 1e-12
            assert zero["residual"] <= 1e-12
            assert abs(zero["det"] - ref_zero["det"]) <= 1e-6 * abs(ref_zero["det"])

    # scalar_linear has no drift (D0 = 0): its candidate block is zero, and
    # the averaged map seeds its branches
    def test_generic_certifies_the_seeding_map(self, capsys):
        code, out, err = run(capsys, "degree", "scalar_linear", "--method", "generic")
        assert code == 0 and err == ""
        cert = json.loads(out)["generic"]
        assert cert["degree"] == -1 and cert["boundary_margin"] == 2.0
        (zero,) = cert["zeros"]
        assert zero["sign"] == -1
        (seed,) = branch_seeds(load_fixture("scalar_linear"), Box.cube(2.0, 2))
        assert norm_inf(np.array(zero["point"]) - seed.point) <= 1e-10

    def test_failed_method_fills_its_slot(self, capsys):
        message = "SingularMatrixError: reduction shortcut needs a nonsingular linear block"
        code, out, err = run(capsys, "degree", "scalar_linear", "--method", "both")
        assert code == 1
        assert err == f"daecont: {message}\n"
        data = json.loads(out)
        assert data["reduced"] == {"error": message}
        assert data["generic"]["degree"] == -1
        assert data["agree"] is False
        code, out, err = run(capsys, "degree", "scalar_linear", "--method", "reduced")
        assert (code, out, err) == (1, "", f"daecont: {message}\n")


class TestReduce:
    def test_emits_problem_and_report(self, capsys, tmp_path):
        out_file = tmp_path / "reduced.prob"
        code, _, _ = run(capsys, "reduce", "semilinear_4x4", "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert "kind = dae1" in text
        report = json.loads(Path(str(out_file) + ".report.json").read_text())
        assert report["conditions_hold"] is True
        assert report["frame_suitable"] is True

    def test_matches_golden(self, capsys, tmp_path):
        out_file = tmp_path / "reduced.prob"
        main(["reduce", "semilinear_4x4", "--out", str(out_file)])
        assert out_file.read_bytes() == (GOLDEN_DIR / "reduce_semilinear_4x4.prob").read_bytes()
        report = json.loads(Path(str(out_file) + ".report.json").read_text())
        golden = json.loads((GOLDEN_DIR / "reduce_semilinear_4x4.report.json").read_text())
        # the problem text is byte-stable; the report may move at roundoff
        # level in the kernel residuals only
        for key in ("kernel_residual_c", "kernel_residual_f"):
            assert report.pop(key) <= 1e-14
            golden.pop(key)
        assert report == golden

    def test_rejects_non_semilinear(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "scalar_linear"])
        assert exc.value.code == 2


class TestIntegrate:
    def test_trajectory_json(self, capsys):
        code, out, _ = run(capsys, "integrate", "scalar_linear", "--lambda", "1.0")
        assert code == 0
        data = json.loads(out)
        assert len(data["times"]) == 257
        # state settles onto the (cos + sin)/2 orbit from x0 = 0
        xs = np.array(data["x"])[:, 0]
        ts = np.array(data["times"])
        ref = 0.5 * (np.cos(ts) + np.sin(ts)) - 0.5 * np.exp(-ts)
        assert np.max(np.abs(xs - ref)) <= 1e-6

    def test_modes_agree(self, capsys):
        _, out_raw, _ = run(capsys, "integrate", "rotating_surface", "--lambda", "0.5",
                            "--x0", "0.3,0.1", "--raw")
        _, out_fix, _ = run(capsys, "integrate", "rotating_surface", "--lambda", "0.5",
                            "--x0", "0.3,0.1", "--fixed-frame")
        raw = json.loads(out_raw)
        fix = json.loads(out_fix)
        assert np.max(np.abs(np.array(raw["x"]) - np.array(fix["x"]))) <= 1e-6

    def test_second_order_fixed_frame_matches_golden(self, capsys):
        # pulled-back velocities and the conjugated order-2 forcing
        code, out, err = run(capsys, "integrate", "rotating_surface_2nd", "--lambda", "0.5",
                             "--fixed-frame")
        assert code == 0 and err == ""
        assert out == (GOLDEN_DIR / "integrate_rotating_surface_2nd_fixed.json").read_text()

    def test_first_order_fixed_frame_matches_golden(self, capsys):
        code, out, err = run(capsys, "integrate", "rotating_surface", "--lambda", "0.5",
                             "--fixed-frame")
        assert code == 0 and err == ""
        assert out == (GOLDEN_DIR / "integrate_rotating_surface_fixed.json").read_text()

    def test_negative_lambda_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "scalar_linear", "--lambda", "-1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, needle", [
    (["integrate", "rotating_surface", "--h", "0.3"], "does not divide"),
    (["integrate", "rotating_surface", "--x0", "a,b"], "--x0"),
    (["check", "rotating_surface", "--grid", "3"], "grid"),
    (["degree", "rotating_surface", "--zero-grid", "1"], "zero-grid"),
    (["continue", "rotating_surface", "--h", "100"], "does not divide"),
    (["continue", "rotating_surface", "--h", "0.3"], "does not divide"),
    (["check", "rotating_surface", "--tol", "nan"], "tol"),
    (["integrate", "rotating_surface", "--lambda", "nan"], "lambda"),
    (["integrate", "rotating_surface", "--lambda", "inf"], "lambda"),
    (["integrate", "rotating_surface", "--x0", "nan,0"], "--x0"),
    (["continue", "rotating_surface", "--ds", "inf"], "ds"),
    (["continue", "rotating_surface", "--radius", "inf"], "radius"),
    (["continue", "rotating_surface", "--lam-max", "nan"], "lam-max"),
    (["lemmas", "--count", "-2"], "count"),
    (["lemmas", "--seed", "-1"], "seed"),
    # sizes that would run for hours or exhaust memory are rejected before any work
    (["integrate", "rotating_surface", "--h", "1e-300"], "more than 100000 steps"),
    (["continue", "rotating_surface", "--h", "5e-324"], "more than 100000 steps"),
    (["check", "rotating_surface", "--grid", "100000000000"], "grid must be at most"),
    (["degree", "rotating_surface", "--zero-grid", "1000000"], "zero-grid"),
    (["lemmas", "--count", str(MAX_LEMMA_PATHS + 1)], "count must be at most"),
    (["lemmas", "--count", "100000000"], "count must be at most"),
    (["continue", "rotating_surface", "--steps", str(MAX_BRANCH_STEPS + 1)],
     "steps must be at most"),
    (["continue", "rotating_surface", "--steps", "0"], "steps must be at least 1"),
    # the flags' product: --count 5000 runs at the default grid, not at this one
    (["lemmas", "--count", "5000", "--grid", "10000"], "path nodes"),
    # --tol only where check reads it, --seed only where lemmas reads it
    (["degree", "rotating_surface", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["integrate", "rotating_surface", "--tol", "1e-3"], "unrecognized arguments: --tol"),
    (["check", "rotating_surface", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["lemmas", "--tol", "1e-3"], "unrecognized arguments: --tol"),
    # the reduction audit of a semilinear problem has a fixed tolerance
    (["check", "semilinear_4x4", "--tol", "1e-300"], "--tol does not apply"),
])
def test_bad_input_is_usage_error(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert needle in err and "Traceback" not in err


def test_lam_max_may_be_infinite():
    args = build_parser().parse_args(["continue", "rotating_surface", "--lam-max", "inf"])
    assert args.lam_max == float("inf")


def overflowing_problem(tmp_path, forcing):
    # rotating_surface with the forcing rows replaced
    path = tmp_path / "overflow.prob"
    path.write_text(problem_text("rotating_surface").replace("cos(t) - x1\n-x2", forcing))
    return str(path)


class TestModelFailure:
    def test_integrate_overflow_exits_one(self, capsys, tmp_path):
        prob = overflowing_problem(tmp_path, "exp(1000*x1) - x1\n-x2")
        code, out, err = run(capsys, "integrate", prob, "--x0", "1,0")
        assert code == 1 and out == ""
        assert err.startswith("daecont: NonfiniteResultError: ")

    def test_integrate_domain_error_exits_one(self, capsys, tmp_path):
        # a float product overflows to inf without raising; sin(inf) is a domain error
        prob = overflowing_problem(tmp_path, "sin(x1^300*x1^300) - x1\n-x2")
        code, _, err = run(capsys, "integrate", prob, "--x0", "10,0")
        assert code == 1 and "daecont: NonfiniteResultError: math domain error" in err

    @pytest.mark.parametrize("forcing, x0", [("x1^400 - x1\n-x2", "10,0"),
                                             ("1/x2 - x1\n-x2", "1,0")])
    def test_integrate_nonfinite_state_names_cause(self, capsys, tmp_path, forcing, x0):
        # the float power overflows, the float division divides by zero
        prob = overflowing_problem(tmp_path, forcing)
        code, out, err = run(capsys, "integrate", prob, "--x0", x0)
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith("daecont: NonfiniteResultError: ")

    def test_overflow_raises_at_the_model_call(self, capsys, tmp_path):
        # one error line from the forcing call: no RuntimeWarning, and not
        # a constraint residual that later meets an inf
        prob = overflowing_problem(tmp_path, "x1^400 - x1\n-x2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "integrate", prob, "--x0", "10,0")
        assert caught == []
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("daecont: NonfiniteResultError: ")
        assert "constraint" not in err

    def test_integrate_nonfinite_literal_is_syntax_error(self, capsys, tmp_path):
        # 1e400 parses to inf, which has no source form in a compiled model
        prob = overflowing_problem(tmp_path, "1e400*x1 - x1\n-x2")
        code, out, err = run(capsys, "integrate", prob)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("daecont: ExpressionSyntaxError: ")
        assert "'1e400'" in lines[0]

    def test_integrate_overflowed_product_blames_the_state(self, capsys, tmp_path):
        # the float product overflows to inf without raising; the next
        # stage's constraint solve meets that state, which is to blame
        prob = overflowing_problem(tmp_path, "x1^300*x1^300 - x1\n-x2")
        code, out, err = run(capsys, "integrate", prob, "--x0", "10,0")
        assert code == 1 and out == ""
        last = err.splitlines()[-1]
        assert last.startswith("daecont: NonfiniteResultError: state [inf, ")
        assert " at t = " in last and "constraint" not in last

    def test_fixed_frame_inf_forcing_is_named(self, capsys, tmp_path):
        # the overflowed forcing value is named before A(t) f, where 0 * inf
        # would make a NaN and a numpy warning (an error under this suite)
        prob = overflowing_problem(tmp_path, "x1^300*x1^300 - x1\n-x2")
        code, out, err = run(capsys, "integrate", prob, "--fixed-frame", "--x0", "10,0")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("daecont: NonfiniteResultError: forcing f at t = ")

    def test_continue_overflow_keeps_trivial_pair(self, capsys, tmp_path):
        prob = overflowing_problem(tmp_path, "exp(1000*x1) - x1\n-x2")
        code, out, err = run(capsys, "continue", prob, "--steps", "3")
        assert code == 0
        assert "branch: 1 pairs, termination: solver_failure" in err
        rows = out.splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,0,") and rows[1].endswith(",1")


class TestContinue:
    def test_left_box(self, capsys):
        code, out, err = run(capsys, "continue", "rotating_surface", "--ds", "0.5",
                             "--steps", "8", "--radius", "0.3")
        assert code == 0
        assert "branch: 2 pairs, termination: left_box" in err
        assert len(out.splitlines()) == 3

    def test_small_branch_csv(self, capsys, tmp_path):
        out_file = tmp_path / "branch.csv"
        code, _, err = run(capsys, "continue", "scalar_linear", "--ds", "0.2",
                           "--steps", "3", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("step,lambda,xi0_1,")
        assert len(lines) >= 4
        first = lines[1].split(",")
        assert float(first[1]) == 0.0 and first[-1] == "1"
        assert "termination" in err


# The branch goldens were recorded with forward-difference shooting
# Jacobians.  Exact Jacobians move each corrected point inside the
# corrector's stopping tolerance (periodic._CORRECTOR, residual 1e-10);
# the shooting Jacobian is O(1)-conditioned on these branches, so values
# may move by about that much (measured: at most 7e-12).
GOLDEN_VALUE_TOL = 1e-10
RESIDUAL_LIMITS = {"periodicity_residual": 1e-8, "constraint_residual": 1e-10}


def assert_branch_matches_golden(capsys, golden_name, *argv):
    # Exit code, termination line, header, row count, step and trivial_flag
    # exact; lambda, xi0_* and the sup norms within GOLDEN_VALUE_TOL;
    # residuals under their limits.
    code, out, err = run(capsys, *argv)
    ref = [line.split(",") for line in (GOLDEN_DIR / golden_name).read_text().splitlines()]
    rows = [line.split(",") for line in out.splitlines()]
    assert code == 0 and err == f"branch: {len(ref) - 1} pairs, termination: budget\n"
    assert rows[0] == ref[0] and len(rows) == len(ref)
    header = ref[0]
    for row, ref_row in zip(rows[1:], ref[1:]):
        for name, value, ref_value in zip(header, row, ref_row):
            if name in ("step", "trivial_flag"):
                assert value == ref_value, name
            elif name in RESIDUAL_LIMITS:
                assert float(value) <= RESIDUAL_LIMITS[name], name
            else:
                assert abs(float(value) - float(ref_value)) <= GOLDEN_VALUE_TOL, name


@pytest.mark.parametrize("problem, steps", [("commuting_h", "3"),
                                            ("rotating_surface_2nd", "2")])
def test_branch_matches_golden_within_roundoff(capsys, problem, steps):
    assert_branch_matches_golden(capsys, f"continue_{problem}_{steps}.csv",
                                 "continue", problem, "--steps", steps)


def test_branch_of_criterion_8_fixture_matches_golden(capsys):
    assert_branch_matches_golden(capsys, "continue_rotating_surface_6.csv",
                                 "continue", "rotating_surface", "--steps", "6")


def test_branch_output_is_byte_stable(capsys):
    first = run(capsys, "continue", "rotating_surface", "--steps", "3")
    assert run(capsys, "continue", "rotating_surface", "--steps", "3") == first


def test_python_m_daecont_runs_the_cli():
    src = str(Path(daecont.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "daecont", "fixtures"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines()[0].startswith("commuting_h ")


class TestFixtures:
    def test_lists_everything(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        for name in ("rotating_surface", "rotating_surface_2nd", "commuting_h",
                     "semilinear_4x4", "scalar_linear", "counterexample4", "rot2", "rot2cw"):
            assert name in out


class TestHelp:
    def test_golden_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        parser = build_parser()
        text = parser.format_help()
        for name in ("check", "lemmas", "degree", "reduce", "integrate", "continue",
                     "fixtures"):
            sub = parser._subparsers._group_actions[0].choices[name]
            text += "\n" + "=" * 30 + f" {name} " + "=" * 30 + "\n" + sub.format_help()
        golden = GOLDEN.read_text()
        normalize = lambda s: re.sub(r"\s+", " ", s).strip()
        assert normalize(text) == normalize(golden)

    def test_every_flag_documented(self):
        golden = GOLDEN.read_text()
        for flag in ("--grid", "--tol", "--ds", "--steps", "--radius", "--lambda",
                     "--h", "--method", "--out", "--seed", "--raw", "--fixed-frame",
                     "--lam-max", "--seed-index", "--x0", "--count", "--zero-grid", "--dump"):
            assert flag in golden, flag

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestByteStability:
    def test_check_output_stable(self, capsys):
        _, out1, _ = run(capsys, "check", "rotating_surface")
        _, out2, _ = run(capsys, "check", "rotating_surface")
        assert out1 == out2

    def test_degree_output_stable(self, capsys):
        _, out1, _ = run(capsys, "degree", "rotating_surface", "--method", "reduced")
        _, out2, _ = run(capsys, "degree", "rotating_surface", "--method", "reduced")
        assert out1 == out2


class TestTrajectoryDump:
    def test_continue_dump_json(self, capsys, tmp_path):
        out_file = tmp_path / "branch.csv"
        dump_file = tmp_path / "pairs.json"
        code = main(["continue", "scalar_linear", "--ds", "0.2", "--steps", "2",
                     "--out", str(out_file), "--dump", str(dump_file)])
        capsys.readouterr()
        assert code == 0
        pairs = json.loads(dump_file.read_text())
        assert len(pairs) >= 2
        assert pairs[0]["lambda"] == 0.0 and pairs[0]["trivial"] is True
        assert len(pairs[0]["trajectory"]["times"]) == 257
