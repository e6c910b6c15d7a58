import json
import re
from pathlib import Path

import numpy as np
import pytest

from daecont.cli import build_parser, main
from daecont.fixtures import problem_text

GOLDEN = Path(__file__).parent / "golden" / "help.txt"


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

    def test_negative_lambda_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "scalar_linear", "--lambda", "-1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, needle", [
    (["integrate", "rotating_surface", "--h", "0.3"], "does not divide"),
    (["integrate", "rotating_surface", "--x0", "a,b"], "--x0"),
    (["check", "rotating_surface", "--grid", "3"], "grid"),
    (["degree", "rotating_surface", "--zero-grid", "1"], "zero-grid"),
])
def test_bad_input_is_usage_error(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert needle in err and "Traceback" not in err


class TestContinue:
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
