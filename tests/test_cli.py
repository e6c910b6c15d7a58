import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import daecont
from daecont import cli, kernel, periodic, transform

from daecont.cli import MAX_BRANCH_STEPS, MAX_LEMMA_PATHS, build_parser, main
from daecont.degree import Box
from daecont.errors import EvaluationError, SingularMatrixError
from daecont.expressions import MAX_NESTING
from daecont.fixtures import load_fixture, problem_text
from daecont.kernel import March
from daecont.linalg import norm_inf
from daecont.paths import DEFAULT_GRID, MatrixPath, _grid_times
from daecont.periodic import branch_seeds
from daecont.probfile import build_problem, parse_problem
from daecont.transform import fixed_frame, fixed_frame_first
from oracles import fixed_frame_at
from test_periodic import HUGE_G_Q, MARCH_LEVEL_FAILURES, THREE_CONSTRAINTS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "help.txt"

# rotating_surface with a second constraint and a 2x2 B, singular at t = 0
TWO_CONSTRAINTS = """
[problem]
kind = dae1
m = 2
s = 2
period = 6.283185307179586

[A]
cos(t), -sin(t)
sin(t), cos(t)

[B]
1, cos(t)
cos(t), 1

[g]
q1^3 + q1 - p1^2
q2^3 + q2 - p2^2 - q1

[f]
cos(t) - x1 + 0.3*y1
-x2 + 0.2*y2
"""


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


# The averaged map sums the products of its emitted forcing where numpy's
# matvec, which recorded the check golden, may fuse a multiply-add: its
# values and gaps may move in the last bits (1e-16 measured).
AVERAGED_MAP_TOL = 1e-14
JSON_NUMBER = r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?"


def averaged_map_numbers(audit):
    # pop the values and gaps of an averaged-map audit and return them
    numbers = [audit.pop("quadrature_gap"), audit.pop("reference_gap")]
    for probe in audit["probes"]:
        numbers += probe.pop("value") + [probe.pop("reference_gap")]
    return numbers


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

    @pytest.mark.parametrize("name", ["rot2", "counterexample4", "rotating_surface"])
    def test_audit_matches_golden(self, capsys, name):
        # recorded by the per-time samplers that the stacked ones replaced
        golden = (GOLDEN_DIR / f"check_{name}.json").read_text()
        assert run(capsys, "check", name) == (0, golden, "")

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
        # the averaged-map audit reads the frame at its quadrature times;
        # its values and gaps hold within AVERAGED_MAP_TOL of their scale,
        # and every other byte is the golden's
        code, out, err = run(capsys, "check", "semilinear_4x4")
        assert (code, err) == (0, "")
        golden = (GOLDEN_DIR / "check_semilinear_4x4.json").read_text()
        assert re.sub(JSON_NUMBER, "#", out) == re.sub(JSON_NUMBER, "#", golden)
        got, ref = json.loads(out), json.loads(golden)
        moved, ref_moved = (averaged_map_numbers(data["averaged_map_audit"]) for data in (got, ref))
        assert got == ref and len(moved) == len(ref_moved) == 17
        scale = max(1.0, max(map(abs, ref_moved)))
        assert max(abs(a - b) for a, b in zip(moved, ref_moved)) <= AVERAGED_MAP_TOL * scale

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
        # the raw march takes a frame A that fails the audit
        assert run(capsys, "integrate", str(f), "--raw")[0] == 0


    @pytest.mark.parametrize("edit, message", [
        ("[B]\n2 + t\n", "path B is not 6.283185307179586-periodic: residual 6.283e+00"),
        ("[B]\n1\n\n[H]\n1, 0\n0, 2\n",
         "H does not commute with the frame path: residual 1.000e+00 > 1.0e-08"),
    ])
    def test_problem_fails_the_transform_audit(self, capsys, tmp_path, edit, message):
        # the audit A passes; the hypotheses of the fixed-frame transform do not
        f = tmp_path / "bad.txt"
        f.write_text(problem_text("rotating_surface").replace("[B]\n1\n", edit))
        err = f"daecont: HypothesisViolatedError: {message}\n"
        assert run(capsys, "check", str(f)) == (1, "", err)
        assert run(capsys, "continue", str(f), "--steps", "2") == (1, "", err)

    @pytest.mark.parametrize("argv", [("check",), ("continue", "--steps", "2"),
                                      ("integrate", "--fixed-frame")])
    def test_overflowing_audit_products_fail_cleanly(self, capsys, tmp_path, argv):
        # A = [[1e200 cos t, -sin t], [sin t, cos t]]: A @ A.T overflows;
        # one daecont line on stderr, no numpy warning (they are errors here)
        f = tmp_path / "overflow.txt"
        f.write_text(problem_text("rotating_surface").replace("cos(t), -sin(t)",
                                                              "1e200*cos(t), -sin(t)"))
        assert run(capsys, argv[0], str(f), *argv[1:]) == (
            1, "", "daecont: EvaluationError: audit quantity orthogonality_residual "
                   "is not finite: inf\n")

    def test_finite_non_orthogonal_frame_keeps_its_message(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(problem_text("rotating_surface").replace("sin(t), cos(t)", "sin(t), 2*cos(t)"))
        assert run(capsys, "continue", str(f), "--steps", "2") == (
            1, "", "daecont: HypothesisViolatedError: frame path is not orthogonal: "
                   "residual 3.000e+00 > 1.0e-08\n")

    # size of B -> (an order-1 problem text, B's first singular time and the solve's message)
    SINGULAR_B = {
        "1x1": (problem_text("rotating_surface").replace("[B]\n1\n", "[B]\n2 + 2*cos(t)\n"),
                "t = 3.141592653589793: 1x1 system is singular"),
        "2x2": (TWO_CONSTRAINTS, "t = 0.0: 2x2 system is singular"),
        "3x3": (THREE_CONSTRAINTS.replace("0, 0.2, 1\n", "0, 0.2, cos(t)\n"),
                "t = 1.5707963267948966: pivot 6.123e-17 below threshold 1.000e-13 at column 2"),
    }

    @pytest.mark.parametrize("argv", [("check",), ("degree", "--method", "both"),
                                      ("integrate", "--fixed-frame"), ("continue", "--steps", "2"),
                                      ("integrate", "--raw")])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("size", sorted(SINGULAR_B))
    def test_singular_b_fails_every_transforming_command(self, capsys, tmp_path, argv, order, size):
        text, where = self.SINGULAR_B[size]
        f = tmp_path / "singular_b.txt"
        f.write_text(text.replace("kind = dae1", f"kind = dae{order}"))
        code, _, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (code, err) == (1, "daecont: HypothesisViolatedError: path B is not invertible at "
                                  f"{where}\n")


@pytest.mark.parametrize("argv", [("check", "rotating_surface"), ("check", "rotating_surface_2nd"),
                                  ("integrate", "rotating_surface", "--raw"),
                                  ("integrate", "rotating_surface_2nd", "--raw")],
                         ids=lambda argv: "_".join(argv))
def test_audits_and_raw_march_build_one_frame_function(capsys, argv):
    # check's printed audit and the transform's read one raw frame
    # function, and a raw integration tests B on its march's own
    kernel._frame_build.cache_clear()
    assert run(capsys, *argv)[0] == 0
    assert kernel._frame_build.cache_info().misses == 1


@pytest.mark.parametrize("name", ["commuting_h", "rotating_surface", "rotating_surface_2nd"])
@pytest.mark.parametrize("grid", [64, 65])
def test_check_fills_the_audit_grid_once(capsys, path_times, name, grid):
    # the printed audit's fill at --grid serves the transform's audit when
    # --grid is the transform's 64-node grid: each of its times is filled
    # once (A, B, dA, dB), before the periodicity times; another --grid
    # fills the transform's grid too
    path = load_fixture(name).A
    del path_times[:]
    assert run(capsys, "check", name, "--grid", str(grid))[0] == 0
    fill = lambda times: [t for t in times.tolist() for _ in range(4)]
    again = fill(_grid_times(path, 64)) if grid != 64 else []
    assert path_times == fill(_grid_times(path, grid)) + again + fill(path.periodicity_times())


@pytest.mark.parametrize("grid", [64, 65])
def test_semilinear_check_fills_the_audit_grid_once(capsys, monkeypatch, grid):
    # the reduced problem's audit fill at --grid 64 serves its transform
    fills, sample = [], transform._frame_samples

    def counted(prob, grid=DEFAULT_GRID, times=None, frames=None):
        fills.append(grid if times is None else "times")
        return sample(prob, grid, times, frames)

    monkeypatch.setattr(transform, "_frame_samples", counted)
    monkeypatch.setattr(cli, "_frame_samples", counted)
    assert run(capsys, "check", "semilinear_4x4", "--grid", str(grid))[0] == 0
    assert fills == ([64] if grid == 64 else [65, 64])


@pytest.mark.parametrize("argv", [("check", "rotating_surface"), ("check", "rotating_surface_2nd"),
                                  ("check", "semilinear_4x4"), ("reduce", "semilinear_4x4")],
                         ids=lambda argv: "_".join(argv))
def test_frame_audits_make_no_numpy_path_call(capsys, monkeypatch, argv):
    # check's printed audit, check's and reduce's frame_suitable and the
    # transform's audit read the stacks of the frame function, and the
    # semi-linear audit the stacks of its F and C paths: the paths of a
    # compiled problem are not called as arrays
    names, call = [], MatrixPath.__call__

    def counted(self, t, order=0):
        names.append(self.name)
        return call(self, t, order)

    monkeypatch.setattr(MatrixPath, "__call__", counted)
    assert run(capsys, *argv)[0] == 0
    assert names == []


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

    def test_matches_golden(self, capsys):
        # recorded by the per-node audits the stacked ones replaced
        golden = (GOLDEN_DIR / "lemmas_count_10_seed_0.json").read_text()
        assert run(capsys, "lemmas", "--count", "10", "--seed", "0") == (0, golden, "")


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

    @pytest.mark.parametrize("command", [
        ["degree", "--method", "both"],
        ["integrate", "--lambda", "0.5"],
        ["continue", "--ds", "0.05", "--steps", "4"],
    ])
    def test_written_problem_runs_like_the_source(self, capsys, tmp_path, command):
        # reduce --out writes exactly the problem the other commands run
        out_file = tmp_path / "reduced.prob"
        assert run(capsys, "reduce", "semilinear_4x4", "--out", str(out_file))[0] == 0
        code, out, _ = run(capsys, command[0], "semilinear_4x4", *command[1:])
        assert (code, out) == run(capsys, command[0], str(out_file), *command[1:])[:2]
        assert code == 0 and out

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

    @pytest.mark.parametrize("mode", ["raw", "fixed"])
    @pytest.mark.parametrize("name", ["commuting_h", "rotating_surface", "rotating_surface_2nd",
                                      "scalar_linear", "semilinear_4x4"])
    def test_matches_golden(self, capsys, name, mode):
        # every problem fixture in both modes, byte for byte: order-2
        # pulled-back velocities, a commuting drift, the closed-form orbit
        # and a reduced s = 2 pull-back with a time-varying B
        code, out, err = run(capsys, "integrate", name, "--lambda", "0.5",
                             "--raw" if mode == "raw" else "--fixed-frame")
        assert (code, err) == (0, "")
        assert out == (GOLDEN_DIR / f"integrate_{name}_{mode}.json").read_text()

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


@pytest.mark.parametrize("command, message", [
    ("degree", "degree needs a problem, not a path fixture"),
    ("integrate", "integrate needs a problem, not a path fixture"),
    ("continue", "continue needs a problem, not a path fixture"),
    ("reduce", "reduce needs a semilinear problem"),
])
def test_path_fixture_is_usage_error(capsys, command, message):
    with pytest.raises(SystemExit) as exc:
        main([command, "rot2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"daecont: {message}\n"


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
        assert code == 1 and "daecont: NonfiniteResultError: ValueError: math domain error" in err

    @pytest.mark.parametrize("case, argv, message", [
        ("nonfinite_g_p", ("integrate", "--lambda", "0.5", "--fixed-frame"),
         "NonfiniteResultError: constraint residual is nan: a model value is not finite"),
        ("nonfinite_g_p", ("continue", "--steps", "2"),
         "NonfiniteResultError: FloatingPointError: invalid value encountered in multiply"),
        ("singular_g_q", ("integrate", "--lambda", "0.5", "--fixed-frame"),
         "SingularMatrixError: 2x2 system is singular"),
        ("singular_g_q", ("continue", "--steps", "2"),
         "BoundaryZeroError: zero at [ 0.  0. -2.  2.] lies within 1e-06 of the boundary"),
    ])
    def test_failing_march_level_blocks_keep_their_error(self, capsys, tmp_path, case, argv, message):
        # g_p not finite, or g_q constant and singular: each command ends
        # with the error of a march that runs its every stage in full
        path = tmp_path / f"{case}.prob"
        path.write_text(MARCH_LEVEL_FAILURES[case][0])
        assert run(capsys, argv[0], str(path), *argv[1:]) == (1, "", f"daecont: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("integrate", "--raw"), "NoConvergenceError: constraint solve stalled at residual 1.227e-02 (tol 1.0e-12)"),
        (("integrate", "--fixed-frame"),
         "NoConvergenceError: constraint solve stalled at residual 1.227e-02 (tol 1.0e-12)"),
        (("degree", "--method", "reduced"), "EvaluationError: zero at [0. 0.] has a non-finite det J = inf"),
    ])
    def test_huge_constraint_entries_end_typed(self, capsys, tmp_path, argv, message):
        # g_q = [[1e300, 1], [1, 1e300]]: the 2x2 pivot bounds and det J
        # overflow to inf, with no OverflowError, warning or traceback
        path = tmp_path / "huge.prob"
        path.write_text(HUGE_G_Q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, argv[0], str(path), *argv[1:]) == (1, "", f"daecont: {message}\n")

    def test_huge_constraint_entries_fail_both_degrees(self, capsys, tmp_path):
        # each method's error in its slot and as one line of its own
        path = tmp_path / "huge.prob"
        path.write_text(HUGE_G_Q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "degree", str(path), "--method", "both")
        assert code == 1 and not json.loads(out)["agree"]
        assert err.splitlines() == [
            "daecont: EvaluationError: zero at [0. 0.] has a non-finite det J = inf",
            "daecont: DegenerateZeroError: zero at [0. 0. 0. 0.] has |det J| = 0.000e+00 < 1e-10"]

    def test_overflow_is_named_in_words(self, capsys, tmp_path):
        # the steps of a huge period overflow a float power: no errno tuple
        path = tmp_path / "huge.prob"
        path.write_text(problem_text("rotating_surface").replace(
            "period = 6.283185307179586", "period = 1e300"))
        code, out, err = run(capsys, "integrate", str(path))
        assert code == 1 and out == ""
        assert err == "daecont: NonfiniteResultError: OverflowError: Numerical result out of range\n"

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
    H16 = repr(2.0 * np.pi / 16)

    def test_transforms_the_problem_once(self, capsys, path_calls):
        # the seeds and the branch share one system: one frame audit, and
        # A and B once at each of the 2N + 1 march times (N = 16)
        fixed_frame(load_fixture("rotating_surface"))
        audit = len(path_calls)
        del path_calls[:]
        code, _, _ = run(capsys, "continue", "rotating_surface", "--steps", "2", "--h", self.H16)
        assert code == 0 and len(path_calls) == audit + 2 * (2 * 16 + 1)

    def test_second_continue_builds_no_kernel(self, capsys):
        argv = ("continue", "rotating_surface_2nd", "--steps", "2", "--h", self.H16)
        first = run(capsys, *argv)
        builds = kernel._build.cache_info().misses
        assert run(capsys, *argv) == first and first[0] == 0
        assert kernel._build.cache_info().misses == builds

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


def assert_branch_close(out, ref_text, tol):
    # Header, row count, step and trivial_flag exact; lambda, xi0_* and the
    # sup norms within tol; residuals under their limits.
    ref = [line.split(",") for line in ref_text.splitlines()]
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ref[0] and len(rows) == len(ref)
    header = ref[0]
    for row, ref_row in zip(rows[1:], ref[1:]):
        for name, value, ref_value in zip(header, row, ref_row):
            if name in ("step", "trivial_flag"):
                assert value == ref_value, name
            elif name in RESIDUAL_LIMITS:
                assert float(value) <= RESIDUAL_LIMITS[name], name
            else:
                assert abs(float(value) - float(ref_value)) <= tol, name


def assert_branch_matches_golden(capsys, golden_name, *argv):
    # Exit code and termination line exact, and the rows within
    # GOLDEN_VALUE_TOL of the golden's (see assert_branch_close).
    code, out, err = run(capsys, *argv)
    ref_text = (GOLDEN_DIR / golden_name).read_text()
    assert code == 0 and err == f"branch: {len(ref_text.splitlines()) - 1} pairs, termination: budget\n"
    assert_branch_close(out, ref_text, GOLDEN_VALUE_TOL)


@pytest.mark.parametrize("problem, steps", [("commuting_h", "3"),
                                            ("rotating_surface_2nd", "2")])
def test_branch_matches_golden_within_roundoff(capsys, problem, steps):
    assert_branch_matches_golden(capsys, f"continue_{problem}_{steps}.csv",
                                 "continue", problem, "--steps", steps)


def test_branch_of_criterion_8_fixture_matches_golden(capsys):
    assert_branch_matches_golden(capsys, "continue_rotating_surface_6.csv",
                                 "continue", "rotating_surface", "--steps", "6")


# Recorded at the per-stage-call march: the step loop's march keeps every
# float operation and its order, so branches stay byte for byte.  The
# branches of more than one arclength step (rotating_surface_4,
# commuting_h_3) were recorded again when the corrector's accepting march
# began to reuse the Jacobian of its previous iterate; their
# *_fresh_jacobian.csv keep the branches of a sensitivity march at every
# corrected point and the linear predictor.  All but semilinear_4x4_4 were
# recorded again when the corrector began at the Hermite start within a
# wider reuse radius (periodic.JACOBIAN_REUSE).
EXACT_BRANCHES = [("rotating_surface", "4"), ("rotating_surface_2nd", "2"), ("commuting_h", "3"),
                  ("semilinear_4x4", "4"), ("scalar_linear", "2")]


@pytest.mark.parametrize("problem, steps", EXACT_BRANCHES)
def test_branch_matches_golden_byte_for_byte(capsys, problem, steps):
    golden = GOLDEN_DIR / "branch" / f"{problem}_{steps}"
    assert run(capsys, "continue", problem, "--steps", steps) == (
        0, golden.with_suffix(".csv").read_text(), golden.with_suffix(".err").read_text())


# The Hermite start moves each corrected point of the fresh-Jacobian
# branches inside the corrector's stopping tolerance, as the corrector
# looks for the same point on the same hyperplane (measured: at most
# 1.2e-11 here, and 7.2e-11 on any golden branch).
PREDICTOR_TOL = 1e-9


@pytest.mark.parametrize("problem, steps", [("rotating_surface", "4"), ("commuting_h", "3")])
def test_branch_without_jacobian_reuse_matches_fresh_golden(capsys, monkeypatch, problem, steps):
    monkeypatch.setattr(periodic, "JACOBIAN_REUSE", 0.0)
    golden = GOLDEN_DIR / "branch" / f"{problem}_{steps}"
    code, out, err = run(capsys, "continue", problem, "--steps", steps)
    assert code == 0 and err == golden.with_suffix(".err").read_text()
    assert_branch_close(out, golden.with_name(f"{golden.name}_fresh_jacobian.csv").read_text(), PREDICTOR_TOL)


def test_criterion_8_fixture_without_jacobian_reuse_matches_fresh_golden(capsys, monkeypatch):
    monkeypatch.setattr(periodic, "JACOBIAN_REUSE", 0.0)
    assert_branch_matches_golden(capsys, "continue_rotating_surface_6_fresh_jacobian.csv",
                                 "continue", "rotating_surface", "--steps", "6")


# A tangent from the Jacobian of a point up to JACOBIAN_REUSE away slides
# the later points of criterion 8 along the branch (measured: at most
# 1.34e-6 in lambda, 4.5e-7 in xi0_1 and 1.3e-6 in the sup norms, row by
# row), while each point stays on the branch: its xi0 lies within
# ON_BRANCH_TOL of the fresh-Jacobian branch interpolated at its lambda
# (measured: at most 4.0e-11).
LAMBDA_GRID_TOL = 2e-6
ON_BRANCH_TOL = 1e-9


def branch_columns(text):
    # lambda and the xi0_* columns of a branch CSV
    header, *rows = [line.split(",") for line in text.splitlines()]
    values = np.array(rows, dtype=float)
    return values[:, header.index("lambda")], values[:, [k for k, name in enumerate(header) if name.startswith("xi0_")]]


def test_jacobian_reuse_moves_criterion_8_within_tolerance(capsys, monkeypatch):
    argv = ("continue", "rotating_surface", "--ds", "0.05", "--steps", "40")
    reused = run(capsys, *argv)
    monkeypatch.setattr(periodic, "JACOBIAN_REUSE", 0.0)
    fresh = run(capsys, *argv)
    assert reused[0] == fresh[0] == 0
    assert reused[2] == fresh[2] == "branch: 41 pairs, termination: budget\n"
    assert_branch_close(reused[1], fresh[1], LAMBDA_GRID_TOL)
    assert_branch_close(fresh[1], reused[1], LAMBDA_GRID_TOL)  # the residuals of both
    (lam, xi0), (fresh_lam, fresh_xi0) = (branch_columns(text) for text in (reused[1], fresh[1]))
    assert np.all(np.diff(fresh_lam) > 0.0)  # a spline in lambda
    assert norm_inf(CubicSpline(fresh_lam, fresh_xi0)(lam) - xi0) <= ON_BRANCH_TOL


def test_predictor_inside_the_reuse_radius_takes_a_plain_march(capsys, monkeypatch):
    # at ds = 1e-6 the first step converges on its one sensitivity march,
    # and each arclength step predicts a point within the radius of it,
    # where a plain march converges at once
    rows, march = [], kernel.March.march
    monkeypatch.setattr(kernel.March, "march",
                        lambda self, state, *args: rows.append(len(state) // 2) or march(self, state, *args))
    code, out, err = run(capsys, "continue", "rotating_surface", "--ds", "1e-6", "--steps", "3")
    assert code == 0 and err == "branch: 4 pairs, termination: budget\n"
    assert sorted(rows) == [1, 1, 4]
    header, *lines = [line.split(",") for line in out.splitlines()]
    for line in lines:
        for name, limit in RESIDUAL_LIMITS.items():
            assert float(line[header.index(name)]) <= limit, name


def test_branch_dump_matches_golden_byte_for_byte(capsys, tmp_path):
    # the accepted pairs' nodes, on 32 steps per period
    dump = tmp_path / "pairs.json"
    code, _, err = run(capsys, "continue", "rotating_surface_2nd", "--steps", "2",
                       "--h", repr(2.0 * np.pi / 32), "--dump", str(dump))
    assert code == 0 and err == "branch: 3 pairs, termination: budget\n"
    assert dump.read_bytes() == (GOLDEN_DIR / "branch" / "rotating_surface_2nd_2_h32.dump.json").read_bytes()


def test_first_order_branch_dump_matches_golden_byte_for_byte(capsys, tmp_path):
    # an order-1 branch's pulled-back nodes, on 32 steps per period
    dump = tmp_path / "pairs.json"
    golden = GOLDEN_DIR / "branch" / "rotating_surface_2_h32"
    assert run(capsys, "continue", "rotating_surface", "--ds", "0.05", "--steps", "2",
               "--h", repr(2.0 * np.pi / 32), "--dump", str(dump)) == (
        0, golden.with_suffix(".csv").read_text(), golden.with_suffix(".err").read_text())
    assert dump.read_bytes() == golden.with_suffix(".dump.json").read_bytes()


def test_a_record_that_fails_at_one_node_raises_its_error():
    # B = [[1, cos t], [cos t, 1]] is singular at t = pi: the nodes before it
    # are pulled back with the bits, and the node raises the error, that
    # the per-node record gave
    sys_t = fixed_frame_first(build_problem(parse_problem(TWO_CONSTRAINTS)), validate=False)
    stepper = March(sys_t, 0.0)
    nodes = [(t, [0.3, 0.1], [0.2, 0.1], fixed_frame_at(sys_t, t)) for t in (0.5, 1.0, np.pi, 4.0)]
    times, x, y, xdot, ydot, residuals = stepper.records(nodes[:2])
    assert (times, xdot, ydot) == ([0.5, 1.0], None, None)
    assert x == [0.3112173224275321, -0.05606940539222362, 0.24623779024123157, -0.19841106485555496]
    assert y == [0.4883285047706468, -0.32854858026071937, 0.2061506132642155, -0.01138365170278672]
    assert residuals == [0.11799999999999997, 0.11800000000000005]
    with pytest.raises(SingularMatrixError) as error:
        stepper.records(nodes)
    assert str(error.value) == "2x2 system is singular" and error.value.__cause__ is None


@pytest.mark.parametrize("argv", [
    ("continue", "rotating_surface", "--steps", "3"),
    # the averaged map's emitted forcing, in the degree and as a seeding map
    ("degree", "scalar_linear", "--method", "generic"),
    ("check", "semilinear_4x4"),
    ("continue", "scalar_linear", "--steps", "2"),
], ids=lambda argv: "_".join(argv[:2]))
def test_output_is_byte_stable(capsys, argv):
    # a run that emits its kernels and frame functions, then a run on the cached ones
    kernel._build.cache_clear()
    kernel._frame_build.cache_clear()
    cold = run(capsys, *argv)
    assert kernel._build.cache_info().currsize > 0 and cold[0] == 0
    assert run(capsys, *argv) == cold


@pytest.mark.parametrize("argv", [
    ("integrate",),
    ("integrate", "--fixed-frame"),
    ("degree", "--method", "both"),
    ("continue", "--steps", "3"),
], ids="_".join)
def test_long_sum_runs_as_its_short_form(capsys, tmp_path, argv):
    # 300 more terms than Python's parser takes nested parentheses
    path = tmp_path / "padded.prob"
    path.write_text(problem_text("rotating_surface").replace("2*p2^2", "2*p2^2" + " + 0*q" * 300))
    padded = run(capsys, argv[0], str(path), *argv[1:])
    assert padded[0] == 0 and padded == run(capsys, argv[0], "rotating_surface", *argv[1:])


G = "q^3 + q - p1^2 - 2*p2^2"  # rotating_surface's constraint
# g with a nest of n parentheses, or of n calls whose value is zero
NESTS = {"parentheses": lambda n: "(" * n + G + ")" * n,
         "calls": lambda n: G + " + 0*" + "sin(" * n + "q" + ")" * n}
DEPTH_RUNS = [("check",), ("integrate",), ("integrate", "--fixed-frame"), ("continue", "--steps", "2")]


def with_g(tmp_path, g):
    path = tmp_path / "deep.prob"
    path.write_text(problem_text("rotating_surface").replace(G, g))
    return str(path)


@pytest.mark.parametrize("argv", DEPTH_RUNS, ids="_".join)
@pytest.mark.parametrize("signs", [300, 1000])
def test_a_run_of_signs_runs_as_its_short_form(capsys, tmp_path, signs, argv):
    # pairs of unary minus signs cancel at parse
    signed = run(capsys, argv[0], with_g(tmp_path, f"{G} + {'-' * signs}q"), *argv[1:])
    assert signed[0] == 0 and signed == run(capsys, argv[0], with_g(tmp_path, f"{G} + q"), *argv[1:])


@pytest.mark.parametrize("argv", DEPTH_RUNS, ids="_".join)
@pytest.mark.parametrize("nest", sorted(NESTS))
def test_a_nest_at_the_limit_runs(capsys, tmp_path, nest, argv):
    nested = run(capsys, argv[0], with_g(tmp_path, NESTS[nest](MAX_NESTING)), *argv[1:])
    assert nested[0] == 0 and nested == run(capsys, argv[0], "rotating_surface", *argv[1:])


@pytest.mark.parametrize("nest, offset", [("parentheses", MAX_NESTING),
                                          ("calls", len(G + " + 0*") + 4 * MAX_NESTING + 3)])
def test_a_nest_past_the_limit_is_a_syntax_error(capsys, tmp_path, nest, offset):
    # the first parenthesis past the limit is named; 300 levels is past the
    # recursion of the parser and CPython's limit on nested parentheses
    path = with_g(tmp_path, NESTS[nest](300))
    message = (f"daecont: ExpressionSyntaxError: parentheses at offset {offset} nest deeper "
               f"than {MAX_NESTING} levels\n")
    for argv in DEPTH_RUNS:
        assert run(capsys, argv[0], path, *argv[1:]) == (1, "", message)


def test_emitted_code_that_does_not_compile_ends_the_branch(capsys, tmp_path):
    # the product rule nests df's source one level per factor, past what
    # CPython compiles: the sensitivity march's kernel fails to build, and
    # the branch ends after its trivial pair
    path = tmp_path / "product.prob"
    text = problem_text("rotating_surface").replace(
        "cos(t) - x1\n", "cos(t) - x1 + 0*x1" + "*sin(x2)" * 150 + "\n")
    path.write_text(text)
    assert run(capsys, "integrate", str(path), "--fixed-frame")[0] == 0
    code, out, err = run(capsys, "continue", str(path), "--steps", "2")
    assert code == 0 and err == "branch: 1 pairs, termination: solver_failure\n"
    assert len(out.splitlines()) == 2  # the header and the trivial pair
    message = "^emitted code does not compile: SyntaxError: too many nested parentheses$"
    with pytest.raises(EvaluationError, match=message):
        March(fixed_frame(build_problem(parse_problem(text))), 0.5, sensitivity=True)


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

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        from daecont import cli

        assert build_parser() is not build_parser()  # public: a fresh parser per call
        main(["fixtures"])
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["fixtures"]) == 0 and cli._parser() is cli._parser()
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--count", "-1"])
        assert exc.value.code == 2
        assert main(["lemmas", "--count", "0"]) == 0  # a failed parse leaves the parser usable
        capsys.readouterr()


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
