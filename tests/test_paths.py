import numpy as np
import pytest
from scipy.linalg import expm

from daecont.errors import SingularMatrixError
from daecont.fixtures import path_fixture
from daecont.linalg import norm_inf
from daecont.paths import (
    MatrixPath,
    frame_audit,
    inverse_derivative,
    lemma_audit,
)
from daecont.probfile import expr_path

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


class TestSampling:
    # each audit samples every grid node once, at each derivative order it reads
    def test_frame_audit_path_calls(self, path_calls):
        frame_audit(path_fixture("rot2"), 16)
        assert len(path_calls) == 2 * 16

    def test_lemma_audit_path_calls(self, path_calls):
        lemma_audit(path_fixture("rot2"), 16)
        assert len(path_calls) == 3 * 16


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
