import numpy as np
import pytest

from daecont.degree import Box
from daecont.errors import SchemaError
from daecont.fixtures import PROBLEMS, load_fixture, problem_text
from daecont.linalg import norm_inf
from daecont.paths import frame_audit
from daecont.periodic import Branch, TPair, Trajectory, integrate
from daecont import probfile
from daecont.cli import main
from daecont.probfile import (
    _float_array,
    _fmt_float,
    _json_value,
    branch_to_csv,
    build_problem,
    parse_problem,
    problem_to_text,
    reduced_spec,
    serialize,
    to_json,
)
from daecont.semilinear import check_conditions, reduce_semilinear
from oracles import row_loop_float_array, semilinear_reduction


class TestParseProblem:
    def test_all_fixtures_parse_and_build(self):
        for name, text in PROBLEMS.items():
            spec = parse_problem(text)
            assert spec.name == name
            build_problem(spec)

    def test_building_compiles_no_function(self, exec_calls):
        # model functions are compiled at their first call, not by the build
        for text in PROBLEMS.values():
            build_problem(parse_problem(text))
        assert exec_calls == [0]
        dae = load_fixture("semilinear_4x4")
        report = check_conditions(dae)  # samples F and C: compiles their values
        before = exec_calls[0]
        build_problem(reduced_spec(dae.spec, report.P, report.sigma, report.Q))
        assert exec_calls[0] == before

    def test_rotating_surface_fields(self):
        spec = parse_problem(problem_text("rotating_surface"))
        assert spec.kind == "dae1"
        assert (spec.m, spec.s) == (2, 1)
        assert spec.period == pytest.approx(2 * np.pi, abs=0)

    def test_semilinear_fields(self):
        spec = parse_problem(problem_text("semilinear_4x4"))
        assert spec.kind == "semilinear"
        assert spec.n == 4
        dae = build_problem(spec)
        assert dae.mass[0, 0] == 1.0 and dae.mass[2, 3] == 1.0
        assert dae.Fpath(0.0)[1, 0] == 1.0  # cos(0)

    def test_shape_mismatch(self):
        text = problem_text("rotating_surface").replace("cos(t) - x1\n-x2", "cos(t) - x1")
        with pytest.raises(SchemaError):
            parse_problem(text)

    def test_constraint_shape_mismatch(self):
        # g rows are s x 1; a stray second entry must be rejected
        text = problem_text("rotating_surface").replace(
            "q^3 + q - p1^2 - 2*p2^2", "q^3 + q, p1")
        with pytest.raises(SchemaError):
            parse_problem(text)

    def test_missing_section(self):
        text = problem_text("rotating_surface").replace("[g]\nq^3 + q - p1^2 - 2*p2^2\n", "")
        with pytest.raises(SchemaError):
            parse_problem(text)

    def test_unknown_key(self):
        text = problem_text("scalar_linear").replace("period =", "extra = 3\nperiod =")
        with pytest.raises(SchemaError):
            parse_problem(text)

    def test_unknown_section(self):
        with pytest.raises(SchemaError):
            parse_problem(problem_text("scalar_linear") + "\n[W]\n1\n")

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            parse_problem("[problem]\nkind = dae9\nm = 1\ns = 1\nperiod = 1\n")

    @pytest.mark.parametrize("line", [
        "period = inf", "period = nan", "period = 0", "period = -1", "period = abc",
        "period = 6.283185307179586\nfd_step = abc",
        "period = 6.283185307179586\nfd_step = 0",
        "period = 6.283185307179586\nfd_step = nan",
        "period = 6.283185307179586\nfd_step = inf",
        "period = 6.283185307179586\nfd_step = -1e-6",
    ])
    def test_period_and_fd_step_must_be_finite_and_positive(self, line):
        text = problem_text("rotating_surface").replace("period = 6.283185307179586", line)
        with pytest.raises(SchemaError):
            parse_problem(text)

    def test_fd_step_lost_in_the_float_spacing_rejected(self):
        # 4 pi + 1e-300 == 4 pi: every difference derivative would be 0
        text = problem_text("rotating_surface").replace(
            "period = 6.283185307179586",
            "period = 6.283185307179586\nderivatives = fd\nfd_step = 1e-300")
        with pytest.raises(SchemaError, match="fd_step"):
            parse_problem(text)
        assert parse_problem(text.replace("1e-300", "1e-14")).fd_step == 1e-14

    def test_fd_step_round_trips(self):
        text = problem_text("rotating_surface").replace(
            "period = 6.283185307179586", "period = 6.283185307179586\nfd_step = 1e-05")
        spec = parse_problem(text)
        assert spec.fd_step == 1e-05
        assert parse_problem(problem_to_text(spec)).fd_step == 1e-05

    def test_comments_and_aliases(self):
        text = """
# a comment
[problem]
kind = dae1
m = 1
s = 1
period = 6.283185307179586

[A]
1  # identity frame

[B]
1

[g]
eta - xi   # alias spelling

[f]
cos(t) - x
"""
        prob = build_problem(parse_problem(text))
        assert abs(prob.g(np.array([2.0]), np.array([5.0]))[0] - 3.0) <= 1e-15

    def test_velocity_variables_only_in_second_order(self):
        text = problem_text("rotating_surface").replace("cos(t) - x1", "cos(t) - u1")
        with pytest.raises(Exception):
            parse_problem(text)
        text2 = problem_text("rotating_surface_2nd").replace("cos(t) - x1", "cos(t) - u1")
        parse_problem(text2)

    def test_fd_mode(self):
        text = problem_text("rotating_surface").replace(
            "period = 6.283185307179586", "period = 6.283185307179586\nderivatives = fd")
        prob = build_problem(parse_problem(text))
        assert not prob.A.analytic
        audit = frame_audit(prob.A)
        assert audit.right_constancy <= 1e-5


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_parse_serialize_parse(self, name):
        spec1 = parse_problem(problem_text(name))
        text = serialize(spec1)
        spec2 = parse_problem(text)
        assert spec2.kind == spec1.kind
        assert (spec2.m, spec2.s, spec2.n) == (spec1.m, spec1.s, spec1.n)
        assert spec2.period == spec1.period
        assert spec2.tables == spec1.tables  # parsed trees reprint structurally

    def test_serialize_deterministic(self):
        spec = parse_problem(problem_text("semilinear_4x4"))
        assert serialize(spec) == serialize(spec)


class TestJsonOutput:
    def test_float_precision_and_key_order(self):
        text = to_json({"b": 1.0 / 3.0, "a": True, "z": None, "v": np.array([1.0, 0.5])})
        assert '"b": 0.33333333333333331' in text
        assert text.index('"b"') < text.index('"a"') < text.index('"z"')
        assert '"v": [1, 0.5]' in text

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            to_json({"a": float("inf")})
        for bad in (float("nan"), float("inf"), float("-inf")):
            for rows in ([[0.5, 1.0], [2.0, bad]], np.array([[0.5, 1.0], [2.0, bad]]),
                         np.array([0.5, bad])):
                with pytest.raises(ValueError,
                                   match=f"^refusing to serialize non-finite value {bad!r}$"):
                    to_json({"rows": rows})

    def test_lists_render_alike_whatever_their_entries(self):
        assert to_json([1.0, 0.5, -2.0]) == to_json([1, 0.5, np.float64(-2.0)]) == "[1, 0.5, -2]\n"
        long = to_json({"v": np.arange(20) / 3.0})
        assert long.count("\n") == 24 and "    0.33333333333333331,\n" in long

    @pytest.mark.parametrize("values", [
        [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e17, -1.5e-7, 0.1, 3.0],  # 113 characters
        [-0.0, 5e-324, 1e16, 1e17, 1.5e-7],  # 69 characters
        [0.5] * 24,  # 72 characters: inline
        [0.5] * 23 + [0.25],  # 73 characters: one past the inline rule
        [],
    ])
    def test_float_arrays_render_as_value_by_value(self, values):
        # a finite float array is formatted a row at a time, into the bytes
        # of the per-value route (its entries as Python floats, each through
        # _fmt_float) in 1-D, in 2-D (empty ones too) and at any depth; a
        # Python list of floats takes the per-value route
        a = np.array(values, dtype=float)
        rows = [_fmt_float(v) for v in values]
        inline = sum(len(r) for r in rows) <= 72
        assert _json_value(a, 2, 1) == _json_value(values, 2, 1) == (
            "[" + ", ".join(rows) + "]" if inline else
            "[\n" + ",\n".join("    " + r for r in rows) + "\n  ]")
        rng = np.random.default_rng(5)
        wide = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, (7, 3))
        for arr in (a, a.reshape(1, -1), a.reshape(-1, 1), np.resize(a, (3, a.size)), wide):
            for level in (0, 1, 3):
                assert _json_value(arr, 2, level) == _json_value(arr.tolist(), 2, level)

    EXTREMES = [-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, -3.0]

    @pytest.mark.parametrize("shape", [(72,), (73,), (300,), (24, 3), (25, 3), (25, 4), (25, 1),
                                       (24, 1), (25, 0), (0,), (257, 2), (40, 3)])
    @pytest.mark.parametrize("fill", ["zeros", "extremes", "random"])
    def test_template_renders_as_the_row_loop(self, shape, fill):
        # an array that is never inline (1-D above 72 entries, 2-D of 25 or
        # more rows of 1 to 3 entries) takes one template; each shape on
        # either side of that rule renders as the row loop did
        size = int(np.prod(shape))
        if fill == "zeros":
            a = np.zeros(shape)
        elif fill == "extremes":
            a = np.resize(np.array(self.EXTREMES), shape)
        else:
            rng = np.random.default_rng(size)
            a = (rng.standard_normal(size) * 10.0 ** rng.integers(-310, 308, size)).reshape(shape)
        for indent, level in ((2, 0), (2, 1), (2, 3), (4, 2)):
            assert _float_array(a, indent, level) == row_loop_float_array(a, indent, level)

    def test_never_inline_arrays_span_lines(self):
        # the shortest arrays past the rule: 73 one-character entries, and
        # 25 rows of one
        assert _float_array(np.zeros(73), 2, 0) == "[\n" + ",\n".join(["  0"] * 73) + "\n]"
        assert _float_array(np.zeros((25, 1)), 2, 1) == "[\n" + ",\n".join(["    [0]"] * 25) + "\n  ]"
        assert _float_array(np.zeros(72), 2, 0) == "[" + ", ".join(["0"] * 72) + "]"
        assert _float_array(np.zeros((24, 1)), 2, 0) == "[" + ", ".join(["[0]"] * 24) + "]"

    def test_all_zero_dump_renders_as_the_row_loop(self, tmp_path, monkeypatch, capsys):
        # continue semilinear_4x4 traces the zero branch: every x and y of
        # its dump is zero, in 257 rows of two
        dumps = []
        for route in (None, row_loop_float_array):
            if route is not None:
                monkeypatch.setattr(probfile, "_float_array", route)
            dump = tmp_path / f"dump{len(dumps)}.json"
            assert main(["continue", "semilinear_4x4", "--steps", "2", "--dump", str(dump)]) == 0
            dumps.append(dump.read_bytes())
        capsys.readouterr()
        assert dumps[0] == dumps[1] and b'"x": [\n        [0, 0],\n' in dumps[0]

    def test_reports_serialize(self):
        audit = frame_audit(load_fixture("rotating_surface").A)
        out = serialize(audit)
        assert '"M"' in out and out == serialize(audit)
        report = check_conditions(load_fixture("semilinear_4x4"))
        assert '"conditions_hold": true' in serialize(report)
        from daecont.paths import lemma_audit

        identities = serialize(lemma_audit(load_fixture("rotating_surface").A))
        assert '"accel_drift_square"' in identities


def _tiny_trajectory(m=1, s=1, nodes=3):
    times = np.linspace(0.0, 1.0, nodes)
    return Trajectory(times=times, x=np.zeros((nodes, m)), y=np.zeros((nodes, s)))


class TestBranchCsv:
    def test_single_trivial_pair(self):
        pair = TPair(lam=0.0, trajectory=_tiny_trajectory(), xi0=np.zeros(1),
                     periodicity_residual=0.0, constraint_residual=0.0, is_trivial=True)
        branch = Branch(pairs=[pair], seed=np.zeros(2), termination="budget")
        lines = branch_to_csv(branch).splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "0" and fields[1] == "0" and fields[-1] == "1"

    def test_csv_stable(self):
        pair = TPair(lam=0.25, trajectory=_tiny_trajectory(2, 1), xi0=np.array([0.1, -0.2]),
                     periodicity_residual=1e-12, constraint_residual=1e-13, is_trivial=False)
        branch = Branch(pairs=[pair], seed=np.zeros(3), termination="left_box")
        assert branch_to_csv(branch) == branch_to_csv(branch)


class TestReducedSpec:
    def test_emitted_reduction_matches_oracle(self):
        # the emitted text, parsed back, is the numpy reduction of the
        # sampled paths and integrates exactly like reduce_semilinear's problem
        spec = parse_problem(problem_text("semilinear_4x4"))
        dae = build_problem(spec)
        report = check_conditions(dae)
        red_spec = reduced_spec(spec, report.P, report.sigma, report.Q)
        text = problem_to_text(red_spec)
        emitted = build_problem(parse_problem(text))
        a_ref, b_ref, f_ref, df_ref = semilinear_reduction(dae, report, lambda x: x,
                                                           lambda x: np.eye(4))
        x, y = np.array([0.7, -0.2]), np.array([0.4, 1.1])
        for t in np.linspace(0.0, dae.period, 7):
            for order in (0, 1, 2):
                assert norm_inf(emitted.A(t, order) - a_ref(t, order)) <= 1e-13
                assert norm_inf(emitted.B(t, order) - b_ref(t, order)) <= 1e-13
            assert norm_inf(emitted.f(t, x, y) - f_ref(t, x, y)) <= 1e-13 * max(1.0, norm_inf(f_ref(t, x, y)))
            assert norm_inf(emitted.df(t, x, y) - df_ref(t, x, y)) <= 1e-13 * max(1.0, norm_inf(df_ref(t, x, y)))
        h = dae.period / 256
        x0 = np.array([0.4, -0.3])
        tr1 = integrate(emitted, 0.8, x0, h=h)
        tr2 = integrate(reduce_semilinear(dae, report=report), 0.8, x0, h=h)
        assert np.array_equal(tr1.x, tr2.x) and np.array_equal(tr1.y, tr2.y)

    def test_rejects_wrong_kind(self):
        spec = parse_problem(problem_text("scalar_linear"))
        with pytest.raises(SchemaError):
            reduced_spec(spec, np.eye(1), np.ones(1), np.eye(1))


class TestDerivativeSections:
    def test_da_section_round_trips_and_feeds_the_path(self):
        text = problem_text("rotating_surface") + """
[dA]
-sin(t), -cos(t)
cos(t), -sin(t)
"""
        spec = parse_problem(text)
        assert "dA" in spec.tables
        spec2 = parse_problem(serialize(spec))
        assert spec2.tables["dA"] == spec.tables["dA"]
        prob = build_problem(spec2)
        t = 0.8
        dref = np.array([[-np.sin(t), -np.cos(t)], [np.cos(t), -np.sin(t)]])
        assert norm_inf(prob.A(t, 1) - dref) <= 1e-15
