import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from daecont import paths
from daecont.cli import random_exp_frame
from daecont.errors import EvaluationError, SingularMatrixError
from daecont.fixtures import PATHS, PROBLEMS, load_fixture, path_fixture
from daecont.linalg import norm_inf
from daecont.paths import (
    MatrixPath,
    frame_audit,
    inverse_derivative,
    lemma_audit,
)
from daecont.probfile import expr_path
from daecont.semilinear import SemiLinearDae, reduce_semilinear
from daecont.transform import _frame_samples
from oracles import audit_nodes, frame_audit_of_nodes, lemma_audit_of_nodes, report_bits

ROT_GEN = np.array([[0.0, -1.0], [1.0, 0.0]])


def skew(rng, n):
    raw = rng.normal(size=(n, n))
    return 0.5 * (raw - raw.T)


class TestEvalPath:
    def test_constant_derivative_zero(self):
        path = MatrixPath.constant(np.eye(3), period=1.0)
        assert np.array_equal(path(0.37, 1), np.zeros((3, 3)))
        assert np.array_equal(path(0.37, 2), np.zeros((3, 3)))

    def test_rotation_derivative(self):
        rot = path_fixture("rot2")
        assert norm_inf(rot(0.0, 1) - ROT_GEN) <= 1e-15

    def test_exp_frame_second_derivative(self):
        rng = np.random.default_rng(0)
        s = skew(rng, 3)
        path = MatrixPath.exp_frame(s)
        assert norm_inf(path(0.0, 2) - s @ s) <= 1e-13

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [-np.inf, 1.0]]),
        np.eye(3),
    ])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_bad_values_raise(self, bad, order):
        # NaN, inf or the wrong shape from the value or from a derivative
        good = lambda t: np.eye(2)
        tables = [good, good, good]
        tables[order] = lambda t: bad
        path = MatrixPath(2, 1.0, tables[0], d1=tables[1], d2=tables[2], name="P")
        with pytest.raises(EvaluationError, match="path P returned"):
            path(0.5, order)

    def test_order_limit(self):
        with pytest.raises(Exception):
            path_fixture("rot2")(0.0, 3)

    def test_fd_agrees_with_analytic_at_second_order_rate(self):
        rot = path_fixture("rot2")
        errs = []
        for h in (1e-3, 5e-4):
            fd = MatrixPath(2, rot.period, lambda t: rot(t), fd_step=h)
            errs.append(max(norm_inf(fd(0.4, 1) - rot(0.4, 1)),
                            norm_inf(fd(0.4, 2) - rot(0.4, 2))))
        assert errs[0] <= 1e-5
        # halving the step should cut the error by about four
        assert errs[1] <= 0.35 * errs[0]


class TestFrameAudit:
    def test_rot2(self):
        audit = frame_audit(path_fixture("rot2"))
        assert audit.orthogonality <= 1e-10
        assert audit.right_constancy <= 1e-10
        assert norm_inf(audit.M - np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-10

    def test_rot2cw(self):
        audit = frame_audit(path_fixture("rot2cw"))
        assert norm_inf(audit.M - np.array([[0.0, -1.0], [1.0, 0.0]])) <= 1e-10

    def test_constant_orthogonal(self):
        q = expm(skew(np.random.default_rng(1), 4))
        audit = frame_audit(MatrixPath.constant(q, period=2.0))
        assert audit.orthogonality <= 1e-12
        assert norm_inf(audit.M) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_exp_frame_product_is_minus_generator(self, seed):
        rng = np.random.default_rng(seed)
        s = skew(rng, int(rng.integers(2, 6)))
        a0 = expm(skew(rng, s.shape[0]))
        audit = frame_audit(MatrixPath.exp_frame(s, a0))
        assert audit.orthogonality <= 1e-12
        assert audit.right_constancy <= 1e-10
        assert norm_inf(audit.M - (-s)) <= 1e-10

    def test_skewness_property(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            path = MatrixPath.exp_frame(skew(rng, 3), expm(skew(rng, 3)))
            audit = frame_audit(path)
            assert audit.skewness <= 1e-10

    def test_non_orthogonal_path_flagged(self):
        path = MatrixPath.constant(np.array([[2.0, 0.0], [0.0, 1.0]]), period=1.0)
        audit = frame_audit(path)
        assert audit.orthogonality > 0.5
        assert not audit.is_orthogonal


@pytest.fixture
def numpy_path_calls(monkeypatch):
    """Every call of a MatrixPath from here on, as the list of paths called."""
    calls, call = [], MatrixPath.__call__
    monkeypatch.setattr(MatrixPath, "__call__", lambda self, *args: calls.append(self)
                        or call(self, *args))
    return calls


def counted_rotation(calls, fd=False):
    # the rotation frame as Python callables, each call appended to calls
    rot = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    order = lambda k: lambda t: calls.append(k) or np.linalg.matrix_power(ROT_GEN, k) @ rot(t)
    if fd:
        return MatrixPath(2, 2 * np.pi, order(0), fd_step=1e-4)
    return MatrixPath(2, 2 * np.pi, order(0), d1=order(1), d2=order(2))


class TestSampling:
    # an audit reads one stack per path and derivative order
    @pytest.mark.parametrize("audit", [frame_audit, lemma_audit])
    def test_compiled_and_exp_frame_paths_make_no_path_call(self, numpy_path_calls, audit):
        rng = np.random.default_rng(5)
        for path in (path_fixture("rot2"), MatrixPath.exp_frame(skew(rng, 3), expm(skew(rng, 3)))):
            audit(path, 16)
        assert numpy_path_calls == []

    @pytest.mark.parametrize("audit, orders", [(frame_audit, 2), (lemma_audit, 3)])
    def test_python_callable_is_called_once_per_node_and_order(self, numpy_path_calls, audit,
                                                               orders):
        calls = []
        audit(counted_rotation(calls), 16)
        assert sorted(calls) == sorted(list(range(orders)) * 16) and numpy_path_calls == []

    def test_differenced_orders_call_the_value_at_shifted_times(self):
        calls = []
        frame_audit(counted_rotation(calls, fd=True), 16)
        assert calls == [0] * 3 * 16  # A at t, then at t + h and t - h

    def test_exp_frame_exponentiates_all_nodes_at_once(self, monkeypatch):
        # the value and both derivatives at every node come from one
        # exponential, and the generator is factored once, at construction
        rng = np.random.default_rng(7)
        s, a0 = skew(rng, 3), expm(skew(rng, 3))
        path = MatrixPath.exp_frame(s, a0)
        calls = []
        exp_, eigh_ = np.exp, np.linalg.eigh
        monkeypatch.setattr(np, "exp", lambda z: calls.append("exp") or exp_(z))
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append("eigh") or eigh_(m))
        lemma_audit(path, 16)
        assert calls == ["exp"]
        monkeypatch.undo()
        for t in (0.3, 0.7, 0.3):  # a call at a new time evaluates afresh
            assert np.array_equal(path(t, 1), s @ MatrixPath.exp_frame(s, a0)(t))


def stack_kinds():
    # (name, path) of every kind of path that MatrixPath.stack evaluates
    rng = np.random.default_rng(12)
    table = [["exp(t/7)*cos(t)", "-sin(t)"], ["sin(t)^2", "exp(-t)"]]
    trig = lambda t: np.array([[np.cos(t), t * np.sin(t)], [np.exp(0.1 * t), 1.0 + t * t]])
    rate = lambda t: np.array([[-np.sin(t), np.sin(t) + t * np.cos(t)],
                               [0.1 * np.exp(0.1 * t), 2.0 * t]])
    return [
        ("expression", expr_path(table, 2 * np.pi)),
        ("expression_fd", expr_path(table, 2 * np.pi, derivative_mode="fd", fd_step=1e-3)),
        ("exp_frame", MatrixPath.exp_frame(skew(rng, 4), expm(skew(rng, 4)))),
        ("constant", MatrixPath.constant(rng.normal(size=(3, 3)), period=2.0)),
        ("callable", MatrixPath(2, 2 * np.pi, trig, d1=rate, d2=lambda t: t * rate(t))),
        ("callable_d1", MatrixPath(2, 2 * np.pi, trig, d1=rate)),
        ("callable_fd", MatrixPath(2, 2 * np.pi, trig)),
    ]


class TestStack:
    # a stack has the bits and the errors of the path's calls, node by node
    TIMES = np.array([0.0, 0.37, -1.25, 3.0, 9.871, 1e-9, 2.5])

    @pytest.mark.parametrize("name, path", stack_kinds(), ids=[name for name, _ in stack_kinds()])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_bits_of_the_calls(self, name, path, order):
        stacks = path.stack(self.TIMES, order)
        assert len(stacks) == order + 1
        for k, stack in enumerate(stacks):
            nodes = np.array([path(t, k) for t in self.TIMES])
            assert stack.shape == nodes.shape and stack.tobytes() == nodes.tobytes()

    def test_order_limit(self):
        with pytest.raises(EvaluationError, match=r"^derivative order 3 not supported \(max 2\)$"):
            path_fixture("rot2").stack(self.TIMES, 3)

    @staticmethod
    def _same_error(path, order=0):
        with pytest.raises(Exception) as call:
            for t in TestStack.TIMES:
                for k in range(order + 1):
                    path(t, k)
        with pytest.raises(Exception) as stack:
            path.stack(TestStack.TIMES, order)
        assert type(stack.value) is type(call.value) and str(stack.value) == str(call.value)
        return stack.value

    @pytest.mark.parametrize("bad", [np.eye(3), np.ones(2), np.array([[1.0, np.inf], [0.0, 1.0]])])
    @pytest.mark.parametrize("everywhere", [True, False])
    def test_a_bad_node_raises_as_its_call(self, bad, everywhere):
        # the wrong shape or a non-finite entry at every node, or at one
        value = lambda t: bad if everywhere or t == 3.0 else np.eye(2)
        error = self._same_error(MatrixPath(2, 1.0, value, name="P"))
        assert isinstance(error, EvaluationError) and str(error).startswith("path P returned")

    def test_a_bad_derivative_raises_as_its_call(self):
        value = lambda t: np.eye(2)
        rate = lambda t: np.full((2, 2), np.nan) if t == 9.871 else np.zeros((2, 2))
        error = self._same_error(MatrixPath(2, 1.0, value, d1=rate, name="P"), 1)
        assert str(error) == "path P returned non-finite entries"

    def test_bad_constant_raises_as_its_call(self):
        assert "shape (2, 3)" in str(self._same_error(MatrixPath.constant(np.zeros((2, 3)))))
        assert "non-finite" in str(self._same_error(MatrixPath.constant(np.full((2, 2), np.nan))))

    def test_compiled_failure_raises_as_its_call(self):
        # exp overflows at t = 9.871 only: the compiled function's
        # NonfiniteResultError, raised at that node
        path = expr_path([["exp(100*t)", "0"], ["0", "1"]], 2 * np.pi)
        error = self._same_error(path)
        assert type(error).__name__ == "NonfiniteResultError"


def compiled_paths():
    # (name, path) of every compiled path of the fixtures: the path
    # fixtures, the problem fixtures' A and B (a semi-linear system's F and
    # C, and its reduction's A and B)
    out = [(name, path_fixture(name)) for name in sorted(PATHS)]
    for name in sorted(PROBLEMS):
        prob = load_fixture(name)
        if isinstance(prob, SemiLinearDae):
            out += [(f"{name}.F", prob.Fpath), (f"{name}.C", prob.Cpath)]
            prob = reduce_semilinear(prob)
        out += [(f"{name}.A", prob.A), (f"{name}.B", prob.B)]
    return out


def differenced(path, keep_d1=False):
    # the path with its derivatives (or its second alone) by differences
    return MatrixPath(path.dim, path.period, path._value, d1=path._d1 if keep_d1 else None,
                      fd_step=1e-3, name=path.name)


def counted_fragments(fn, calls):
    # fn with its fragments, each call appended to calls
    def counted(t):
        calls.append(t)
        return fn(t)

    counted.fragments = fn.fragments
    return counted


class TestCompiledFill:
    """A compiled function fills a stack in one call of emitted code, with
    the bits and the errors of its calls node by node."""

    TIMES = TestStack.TIMES
    PATHS = compiled_paths()

    @pytest.mark.parametrize("kind", ["analytic", "differenced", "differenced_d2"])
    @pytest.mark.parametrize("name, path", PATHS, ids=[name for name, _ in PATHS])
    def test_bits_of_the_calls(self, name, path, kind):
        assert all(path.fragments(k) is not None for k in (0, 1))
        if kind != "analytic":
            path = differenced(path, keep_d1=kind == "differenced_d2")
        for order in (0, 1, 2):
            stacks = path.stack(self.TIMES, order)
            for k, stack in enumerate(stacks):
                nodes = np.array([path(t, k) for t in self.TIMES])
                assert stack.shape == nodes.shape and stack.tobytes() == nodes.tobytes(), (order, k)

    @pytest.mark.parametrize("times", [TIMES, TIMES[::-1]], ids=["forward", "reversed"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_the_first_failing_node_raises_as_its_call(self, times, order):
        # 1/(t - 3) divides by zero at t = 3.0 and exp(100 t) overflows at
        # t = 9.871: the stack raises the error of the first failing call,
        # in the order of times
        path = expr_path([["1/(t - 3)", "0"], ["exp(100*t)", "1"]], 2 * np.pi, name="P")
        with pytest.raises(Exception) as call:
            for k in range(order + 1):
                for t in times:
                    path(t, k)
        with pytest.raises(Exception) as stack:
            path.stack(times, order)
        assert type(stack.value) is type(call.value) and str(stack.value) == str(call.value)

    def test_an_inf_entry_raises_as_its_call(self):
        # inf without raising, at every node but t = 0: the stack's finiteness test
        path = expr_path([["(1e200*t)*1e200", "0"], ["0", "1"]], 2 * np.pi, name="P")
        with pytest.raises(EvaluationError, match="^path P returned non-finite entries$"):
            path.stack(self.TIMES)
        with pytest.raises(EvaluationError, match="^path P returned non-finite entries$"):
            path(0.37)

    def test_a_wrong_shape_raises_as_its_call(self):
        path = MatrixPath(3, 1.0, path_fixture("rot2")._value, name="P")
        with pytest.raises(EvaluationError, match=r"^path P returned shape \(2, 2\), expected \(3, 3\)$"):
            path.stack(self.TIMES)
        with pytest.raises(EvaluationError, match=r"^path P returned shape \(2, 2\), expected \(3, 3\)$"):
            path(0.37)

    @pytest.mark.parametrize("keep_d1", [True, False])
    def test_a_stack_makes_no_call_of_the_function(self, keep_d1):
        # the work pin: every order of a compiled path, analytic or
        # differenced, is filled by emitted code that calls nothing
        rot2, calls = path_fixture("rot2"), []
        value, d1, d2 = (counted_fragments(fn, calls) for fn in (rot2._value, rot2._d1, rot2._d2))
        for path in (MatrixPath(2, rot2.period, value, d1=d1, d2=d2),
                     MatrixPath(2, rot2.period, value, d1=d1 if keep_d1 else None, fd_step=1e-3)):
            path.stack(self.TIMES, 2)
        assert calls == []

    def test_one_fill_per_fragments(self):
        # every parse of one table shares one emitted fill
        a, b = path_fixture("rot2"), path_fixture("rot2")
        assert a._value is not b._value and a.fragments(0) == b.fragments(0)
        assert paths._fill(a.fragments(0)) is paths._fill(b.fragments(0))


class TestSkewExponential:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_orthogonal_and_matches_scipy_expm(self, n):
        # Re(V diag(e^{-itw}) V^H) against scipy's Pade expm: at most
        # 1.6e-13 apart on these sizes, orthogonal to a few eps (the
        # offset is exponentiated the same way, as `lemmas` does)
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            s, a0 = skew(rng, n), MatrixPath.exp_frame(skew(rng, n))(1.0)
            path = MatrixPath.exp_frame(s, a0)
            for t in rng.uniform(0.0, 2 * np.pi, size=4):
                a = path(t)
                assert norm_inf(a @ a.T - np.eye(n)) <= 1e-14
                assert norm_inf(a - expm(t * s) @ a0) <= 1e-12

    def test_generator_that_is_not_skew_raises(self):
        s = skew(np.random.default_rng(3), 4)
        scale = norm_inf(s)
        near = s.copy()
        near[0, 1] += 0.5 * paths.SKEW_REL * scale
        MatrixPath.exp_frame(near)  # within the stated tolerance
        for bad in (s + 2.0 * paths.SKEW_REL * scale * np.eye(4), np.eye(4),
                    np.full((4, 4), np.nan)):
            with pytest.raises(EvaluationError, match="not skew"):
                MatrixPath.exp_frame(bad)


class TestLemmaAudit:
    def test_rotation_second_product(self):
        rot = path_fixture("rot2")
        report = lemma_audit(rot)
        assert report.residuals["accel_drift_square"] <= 1e-8
        # second-derivative product equals M^2 = -I for the rotation frame
        assert norm_inf(report.second_mean - (-np.eye(2))) <= 1e-10

    def test_counterexample4_products_constant_but_unequal(self):
        report = lemma_audit(path_fixture("counterexample4"))
        right, left = report.constancy_pair
        assert right <= 1e-10 and left <= 1e-10
        assert report.one_sided_gap >= 0.5
        assert max(report.residuals.values()) <= 1e-10

    def test_constant_path_all_zero(self):
        report = lemma_audit(MatrixPath.constant(np.eye(3), period=1.0))
        assert max(report.residuals.values()) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_exp_frames_satisfy_identities(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        path = MatrixPath.exp_frame(skew(rng, n), expm(skew(rng, n)))
        assert frame_audit(path).suitable
        report = lemma_audit(path)
        assert max(report.residuals.values()) <= 1e-8

    def test_fd_mode_tolerance(self):
        rot = path_fixture("rot2")
        fd = MatrixPath(2, rot.period, lambda t: rot(t), fd_step=1e-4)
        report = lemma_audit(fd)
        assert max(report.residuals.values()) <= 1e-4

    def test_constancy_equivalence(self):
        # one-sided constancy holds or fails on both sides together
        rng = np.random.default_rng(11)
        tol = 1e-8
        cases = [path_fixture("counterexample4")]
        for _ in range(5):
            n = int(rng.integers(2, 6))
            cases.append(MatrixPath.exp_frame(skew(rng, n), expm(skew(rng, n))))
        # non-example: expm(t s1) @ expm(t^2 s2) has time-varying products
        s1, s2 = skew(rng, 3), skew(rng, 3)
        cases.append(MatrixPath(
            3, 2 * np.pi, lambda t: expm(t * s1) @ expm(t * t * s2), fd_step=1e-5
        ))
        for path in cases:
            audit = frame_audit(path, tol=tol)
            assert (audit.right_constancy <= tol) == (audit.left_constancy <= tol)
        # and the non-example really is non-constant on both sides
        audit = frame_audit(cases[-1], tol=tol)
        assert audit.right_constancy > tol and audit.left_constancy > tol


class TestInverseDerivative:
    def test_identity(self):
        path = MatrixPath.constant(np.eye(2), period=1.0)
        assert norm_inf(inverse_derivative(path(0.3), path(0.3, 1))) == 0.0

    def test_exponential_diagonal(self):
        # B(t) = diag(e^t): d/dt B^{-1} at 0 is diag(-1)
        path = MatrixPath(1, 2 * np.pi, lambda t: np.array([[np.exp(t)]]),
                          d1=lambda t: np.array([[np.exp(t)]]))
        assert abs(inverse_derivative(path(0.0), path(0.0, 1))[0, 0] + 1.0) <= 1e-12

    def test_shear(self):
        # B(t) = [[1, t], [0, 1]]: B^{-1} = [[1, -t], [0, 1]]
        path = MatrixPath(2, 2 * np.pi, lambda t: np.array([[1.0, t], [0.0, 1.0]]),
                          d1=lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]))
        ref = np.array([[0.0, -1.0], [0.0, 0.0]])
        assert norm_inf(inverse_derivative(path(0.0), path(0.0, 1)) - ref) <= 1e-12

    def test_singular_raises(self):
        path = MatrixPath.constant(np.zeros((2, 2)), period=1.0)
        with pytest.raises(SingularMatrixError):
            inverse_derivative(path(0.0), path(0.0, 1))


class TestPeriodicity:
    def test_periodic_path(self):
        assert path_fixture("rot2").periodicity_residual() <= 1e-12

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_below_one_is_rejected(self, grid):
        with pytest.raises(ValueError, match=rf"^periodicity grid must have at least 1 point, got {grid}$"):
            path_fixture("rot2").periodicity_residual(grid=grid)

    def test_non_periodic_path_reports(self):
        path = MatrixPath(1, 1.0, lambda t: np.array([[np.exp(t)]]),
                          d1=lambda t: np.array([[np.exp(t)]]))
        assert path.periodicity_residual() > 1.0

    def test_expression_path_matches_callable(self):
        table = [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]]
        path = expr_path(table, 2 * np.pi)
        for t in (0.0, 0.5, 2.0):
            ref = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            assert norm_inf(path(t) - ref) <= 1e-15
            dref = np.array([[-np.sin(t), -np.cos(t)], [np.cos(t), -np.sin(t)]])
            assert norm_inf(path(t, 1) - dref) <= 1e-15
            assert norm_inf(path(t, 2) + ref) <= 1e-15


class TestExplicitDerivativeTables:
    def test_supplied_first_derivative_table_is_used(self):
        table = [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]]
        d1 = [["-sin(t)", "-cos(t)"], ["cos(t)", "-sin(t)"]]
        path = expr_path(table, 2 * np.pi, d1_table=d1)
        t = 1.3
        dref = np.array([[-np.sin(t), -np.cos(t)], [np.cos(t), -np.sin(t)]])
        assert norm_inf(path(t, 1) - dref) <= 1e-15
        # second derivatives come from differentiating the supplied table
        assert norm_inf(path(t, 2) + path(t)) <= 1e-15

    def test_wrong_table_is_trusted_verbatim(self):
        # explicit tables override the symbolic rules; a deliberately wrong
        # one shows up directly in the audit
        table = [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]]
        d1 = [["0", "0"], ["0", "0"]]
        path = expr_path(table, 2 * np.pi, d1_table=d1)
        audit = frame_audit(path)
        assert norm_inf(audit.M) <= 1e-15


class TestStackedAudits:
    # the stacked audits give the per-node loops' bits (tests/oracles.py)
    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_lemma_audit_of_path_fixtures(self, name):
        path = path_fixture(name)
        assert report_bits(lemma_audit(path)) == report_bits(lemma_audit_of_nodes(path))

    @pytest.mark.parametrize("seed", range(40))
    def test_lemma_audit_of_random_exp_frames(self, seed):
        rng = np.random.default_rng(seed)
        path = random_exp_frame(rng, int(rng.integers(2, 7)))
        assert report_bits(lemma_audit(path)) == report_bits(lemma_audit_of_nodes(path))

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_frame_audit_through_frame_samples(self, name):
        problem = load_fixture(name)
        if isinstance(problem, SemiLinearDae):
            problem = reduce_semilinear(problem)
        # one fill of the frame function gives the bits of the path's calls
        _, a, _, da, _ = _frame_samples(problem)
        audit = frame_audit(problem.A, stacks=(a, da))
        nodes = audit_nodes(problem.A, paths.DEFAULT_GRID, 1)
        assert report_bits(audit) == report_bits(frame_audit_of_nodes(nodes, audit.tol))

    def test_periodicity_residual_is_the_max_over_the_nodes(self):
        path = MatrixPath(2, 1.0, lambda t: np.array([[np.exp(t), t], [0.0, np.cos(t)]]),
                          d1=lambda t: np.eye(2))
        worst = max(norm_inf(path(k / 16 + 1.0) - path(k / 16)) for k in range(16))
        assert path.periodicity_residual() == worst


def _rot2_with_node(value=None, accel=None, k_bad=3, grid=16):
    # the rotation frame with, at grid node k_bad, its value replaced (and
    # its rate zeroed) or its second derivative replaced
    rot = path_fixture("rot2")
    t_bad = k_bad * rot.period / grid
    bad = {0: value, 1: None if value is None else np.zeros((2, 2)), 2: accel}
    order = lambda k: lambda t: bad[k] if t == t_bad and bad[k] is not None else rot(t, k)
    return MatrixPath(2, rot.period, order(0), d1=order(1), d2=order(2))


class TestNonFiniteAudits:
    def test_overflowing_products_raise_without_warnings(self):
        big = MatrixPath(2, 2 * np.pi, lambda t: np.array([[1e200 * np.cos(t), -np.sin(t)],
                                                           [np.sin(t), np.cos(t)]]),
                         d1=lambda t: np.array([[-1e200 * np.sin(t), -np.cos(t)],
                                                [np.cos(t), -np.sin(t)]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for audit in (frame_audit, lemma_audit):
                with pytest.raises(EvaluationError,
                                   match="orthogonality_residual is not finite: inf"):
                    audit(big, 16)

    def test_nan_residual_after_the_first_node_is_kept(self):
        # at node 3, d2A @ A.T has an infinite diagonal entry, so the
        # accel_symmetry residual there is inf - inf = NaN: Python's
        # max(0.0, nan) drops it, a stacked max keeps it
        path = _rot2_with_node(accel=np.full((2, 2), 1.5e308))
        with np.errstate(all="ignore"):
            dropped = lemma_audit_of_nodes(path, 16).residuals["accel_symmetry"]
        assert np.isfinite(dropped)
        with pytest.raises(EvaluationError, match="accel_symmetry is not finite: nan"):
            lemma_audit(path, 16)

    def test_finite_non_orthogonal_frame_is_reported(self):
        audit = frame_audit(_rot2_with_node(value=2.0 * np.eye(2)), 16)
        assert audit.orthogonality == 3.0 and not audit.is_orthogonal

    def test_non_finite_periodicity_residual_raises(self):
        path = MatrixPath(1, 1.0, lambda t: np.array([[1e308 if t >= 1.0 else -1e308]]))
        with pytest.raises(EvaluationError, match="periodicity_residual is not finite"):
            path.periodicity_residual()
