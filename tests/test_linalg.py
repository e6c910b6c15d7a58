import re
import warnings

import numpy as np
import pytest

from daecont.errors import (
    EvaluationError,
    NoConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
)
from daecont.linalg import (
    PIVOT_REL,
    NewtonConfig,
    _eliminate,
    determinant,
    fd_jacobian,
    newton_solve,
    norm_inf,
    quadrature_periodic,
    solve_linear,
    solve_stacked,
    svd_small,
)
from oracles import (
    central_jacobian,
    determinant_of_matrix,
    eliminate_reference,
    lu_determinant_reference,
    lu_solve_reference,
    rk4_step,
    svd_of_matrix,
)


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=0)

    def test_random_well_conditioned_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
            b = rng.normal(size=5)
            x = solve_linear(a, b)
            assert norm_inf(a @ x - b) <= 1e-10 * (1.0 + norm_inf(b))

    def test_multiple_rhs(self):
        rng = np.random.default_rng(4)
        a = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 3))
        x = solve_linear(a, b)
        assert norm_inf(a @ x - b) <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
        with pytest.raises(SingularMatrixError):
            solve_linear(np.zeros((3, 3)), np.zeros(3))
        # zero pivot in a middle column, with nonzero pivots after it
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 1.0, 3.0]]),
                         np.ones(3))

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_pivot_threshold(self, n, factor):
        # Rows of a unit upper-triangular matrix, reversed: partial pivoting
        # restores the triangle without arithmetic, so the pivots are exactly
        # the diagonal, and the last one sits at factor * PIVOT_REL * ||a||.
        u = np.triu(np.ones((n, n)))
        u[-1, -1] = factor * PIVOT_REL
        a = u[::-1]
        if factor < 1.0:
            with pytest.raises(SingularMatrixError, match=f"at column {n - 1}"):
                solve_linear(a, np.ones(n))
        else:
            x = solve_linear(a, np.ones(n))
            assert norm_inf(a @ x - np.ones(n)) <= 1e-12 * norm_inf(x)

    @pytest.mark.parametrize("bad, error", [(np.nan, EvaluationError),
                                            (np.inf, SingularMatrixError)])
    def test_non_finite_matrix(self, bad, error):
        # inf: the threshold is inf and the later pivots come out NaN, so
        # only a test of every pivot (not their min) sees the finite first one
        a = np.eye(3)
        a[0, 1] = bad
        with pytest.raises(error):
            solve_linear(a, np.ones(3))

    def test_pivoting_needed(self):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        x = solve_linear(a, np.array([5.0, 7.0, 9.0]))
        assert np.allclose(x, [7.0, 5.0, 9.0], atol=0)

    # scipy's LAPACK LU as the independent reference: two partial-pivot
    # eliminations of a random normal matrix agree to about cond * eps
    # (up to 4e-13 relative on 8,000 such matrices of sizes 3 to 6)
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scipy_lu(self, n):
        rng = np.random.default_rng(10 + n)
        a = rng.normal(size=(n, n))
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            x = solve_linear(a, b)
            assert x.shape == b.shape
            ref = lu_solve_reference(a, b)
            assert norm_inf(x - ref) <= 1e-12 * norm_inf(ref)
        assert determinant(a) == pytest.approx(lu_determinant_reference(a), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_is_the_stacked_elimination(self, n):
        # one solve: a system solved alone, and each column of a matrix
        # right-hand side, is its solve in a stack, bit for bit (the closed
        # forms for 1x1 and 2x2, the elimination from 3x3), also in a stack
        # of 1,024 systems with singular and non-finite ones among them
        rng = np.random.default_rng(20 + n)
        stack, rhs = rng.normal(size=(8, n, n)), rng.normal(size=(8, n))
        x, singular = solve_stacked(stack, rhs)
        assert not singular.any()
        for k in range(len(stack)):
            assert solve_linear(stack[k], rhs[k]).tobytes() == x[k].tobytes()
        b = rng.normal(size=(n, 3))
        columns, _ = solve_stacked(np.repeat(stack[:1], 3, axis=0), b.T)
        assert solve_linear(stack[0], b).tobytes() == columns.T.tobytes()
        big, big_rhs = (part[:1024] for part in _test_stack(n, rng))
        big[[3, 700]], big[[5, 900], 0, -1] = np.nan, np.inf
        if n < 3:
            with np.errstate(invalid="ignore"):
                x, singular = solve_stacked(big, big_rhs)
        else:  # solve_stacked raises on the non-finite solutions
            x, _, singular, _ = _eliminate(big, big_rhs)
        assert singular.any()
        for k in np.flatnonzero(~singular & np.isfinite(x).all(axis=1)):
            assert solve_linear(big[k], big_rhs[k]).tobytes() == x[k].tobytes()
        if n < 3:
            return
        # the elimination on separate arrays, every column swapped and
        # updated, is the reference: the same bytes of x, pivots, flags and
        # thresholds, also on the non-contiguous views solve_linear passes
        # (a matrix broadcast over the columns of a transposed right-hand
        # side) and on a transposed stack
        for a, b in ((stack, rhs), (big, big_rhs), (np.broadcast_to(stack[0], (3, n, n)), b.T),
                     (stack.transpose(0, 2, 1), rhs)):
            got, ref = _eliminate(a, b), eliminate_reference(a, b)
            assert [part.tobytes() for part in got] == [part.tobytes() for part in ref]

    def test_exact_zero_pivot_raises_without_a_warning(self):
        # the elimination divides by no zero pivot and warns of nothing;
        # the pivot test turns it into SingularMatrixError
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                solve_linear(a, np.ones(3))
            assert determinant(a) == 0.0


def _test_stack(n, rng):
    # random systems, and near-singular ones on both sides of the pivot test
    well = rng.normal(size=(200, n, n)) + 2.0 * n * np.eye(n)
    rough = rng.normal(size=(200, n, n))
    near = rng.normal(size=(6, 200, n, n))
    for k, eps in enumerate((0.0, 1e-16, 1e-15, 1e-9, 1e-6)):
        near[k, :, -1] = near[k, :, 0] * (1.0 + eps) if n > 1 else near[k, :, -1] * eps
    near[5] *= 1e-200  # a tiny matrix is singular only relative to its norm
    near[5, :50] = 0.0
    return np.concatenate([well, rough, *near]), rng.normal(size=(1600, n))


class TestSolveStacked:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flags_and_solutions_match_solve_linear(self, n):
        a, b = _test_stack(n, np.random.default_rng(n))
        x, singular = solve_stacked(a, b)
        for k in range(len(a)):
            try:
                ref = solve_linear(a[k], b[k])
            except SingularMatrixError:
                assert singular[k], k
                continue
            assert not singular[k], k
            if n <= 2:
                assert x[k].tobytes() == ref.tobytes(), k
            elif np.linalg.cond(a[k]) < 1e3:
                # two stable eliminations agree to about cond * eps
                assert norm_inf(x[k] - ref) <= 1e-12 * norm_inf(ref), k
        assert 0 < singular.sum() < len(a)

    def test_nonfinite_solution_raises_like_solve_linear(self):
        a = np.array([np.eye(3), np.diag([1.0, np.nan, 1.0])])
        b = np.ones((2, 3))
        with pytest.raises(EvaluationError):
            solve_linear(a[1], b[1])
        with pytest.raises(EvaluationError):
            solve_stacked(a, b)


class TestDeterminant:
    def test_known(self):
        assert determinant(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 1.0
        assert determinant(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
        assert determinant(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0

    def test_matches_expansion(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            # cofactor expansion as the independent oracle
            ref = (
                a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
            )
            assert determinant(a) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("shift", [1, 2])
    def test_permutation_sign(self, n, shift):
        perm = np.roll(np.arange(n), shift)
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        assert determinant(np.eye(n)[perm]) == (-1.0) ** inversions


class TestNewton:
    def test_cubic_with_known_factorization(self):
        # q^3 + q - 2 = (q - 1)(q^2 + q + 2): unique real root 1
        x = newton_solve(lambda q: q**3 + q - 2.0, lambda q: np.array([[3.0 * q[0] ** 2 + 1.0]]),
                         np.array([0.0]))
        assert abs(x[0] - 1.0) < 1e-10

    def test_linear(self):
        x = newton_solve(lambda q: q, None, np.array([5.0]))
        assert abs(x[0]) <= 1e-12

    def test_odd_cubic(self):
        x = newton_solve(lambda q: q**3 + q, None, np.array([0.5]))
        assert abs(x[0]) <= 1e-10

    def test_post_residual_enforced(self):
        fun = lambda q: np.array([np.tanh(q[0]) - 0.3, q[1] ** 3 + q[1] - 1.0])
        x = newton_solve(fun, None, np.array([0.0, 0.0]))
        assert norm_inf(fun(x)) <= 1e-12

    def test_no_root_raises(self):
        with pytest.raises(NoConvergenceError):
            newton_solve(lambda q: q**2 + 1.0, None, np.array([0.3]),
                         NewtonConfig(max_iters=40))

    def test_singular_jacobian_raises(self):
        with pytest.raises(SingularJacobianError):
            newton_solve(lambda q: np.array([1.0 + 0.0 * q[0]]), None, np.array([0.0]))

    @pytest.mark.parametrize("a, message", [
        ([[0.0]], "^1x1 system is singular$"),
        ([[1.0, 2.0], [2.0, 4.0]], "^2x2 system is singular$"),
        ([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 1.0, 3.0]],
         r"^pivot 0\.000e\+00 below threshold 3\.000e-13 at column 1$"),
    ])
    def test_singular_jacobian_carries_the_solve_message(self, a, message):
        a = np.array(a)
        with pytest.raises(SingularJacobianError, match=message):
            newton_solve(lambda q: a @ q - 1.0, lambda q: a, np.zeros(len(a)))

    def test_stagnation_raises(self):
        # a Jacobian 1e20 times too steep: the step of 1e-20 cannot lower
        # the residual, and at the damping floor it is below NEWTON_TOL_STEP
        with pytest.raises(NoConvergenceError,
                           match=r"^newton stagnated: step 9\.766e-24, residual 1\.000e\+00$"):
            newton_solve(lambda q: q - 1.0, lambda q: np.array([[1e20]]), np.zeros(1))

    def test_exhausted_budget_raises(self):
        # a Jacobian twice too steep halves the residual per iteration
        with pytest.raises(NoConvergenceError,
                           match=r"^newton used 3 iterations, residual 1\.250e-01 > 1\.000e-12$"):
            newton_solve(lambda q: q - 1.0, lambda q: np.array([[2.0]]), np.zeros(1),
                         NewtonConfig(max_iters=3))

    def test_non_finite_converged_iterate_raises(self):
        # 1/q vanishes only at q = inf
        with pytest.raises(EvaluationError, match="^newton iterate is non-finite$"):
            newton_solve(lambda q: 1.0 / q, None, np.array([np.inf]))

    def test_backtracking_helps_on_steep_residual(self):
        # atan has a tiny derivative far out; the full step overshoots badly
        x = newton_solve(lambda q: np.arctan(q), lambda q: np.array([[1.0 / (1.0 + q[0] ** 2)]]),
                         np.array([3.0]))
        assert abs(x[0]) <= 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)
        with pytest.raises(ValueError):
            NewtonConfig(tol_residual=0.0)


class TestFdJacobian:
    def test_matches_analytic(self):
        fun = lambda z: np.array([z[0] ** 2 + z[1], np.sin(z[0]) * z[1]])
        z0 = np.array([0.7, -0.4])
        ref = np.array([[2 * z0[0], 1.0], [np.cos(z0[0]) * z0[1], np.sin(z0[0])]])
        assert norm_inf(fd_jacobian(fun, z0) - ref) < 1e-6
        assert norm_inf(central_jacobian(fun, z0) - ref) < 1e-9


class TestSvdSmall:
    def test_diag(self):
        p, s, q = svd_small(np.diag([3.0, 0.0]))
        assert np.allclose(s, [3.0, 0.0], atol=0)
        assert norm_inf(p.T @ p - np.eye(2)) <= 1e-12
        assert norm_inf(q.T @ q - np.eye(2)) <= 1e-12
        assert norm_inf(p.T @ np.diag([3.0, 0.0]) @ q - np.diag(s)) <= 1e-12

    def test_rank2_4x4_mass_matrix(self):
        e = np.zeros((4, 4))
        e[0, 0] = 1.0
        e[2, 3] = 1.0
        p, s, q = svd_small(e)
        assert np.allclose(s, [1.0, 1.0, 0.0, 0.0], atol=1e-14)
        assert norm_inf(e - p @ np.diag(s) @ q.T) <= 1e-12
        # the mass matrix of semilinear_4x4; its factors appear in reduce output
        assert np.array_equal(p, np.eye(4)[[0, 2, 1, 3]].T)
        assert np.array_equal(q, np.eye(4)[[0, 3, 1, 2]].T)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        e = rng.normal(size=(n, n))
        if seed % 2:
            e[:, -1] = e[:, 0]  # rank deficiency
        p, s, q = svd_small(e)
        scale = max(norm_inf(e), 1e-300)
        assert norm_inf(e - p @ np.diag(s) @ q.T) <= 1e-10 * scale
        assert norm_inf(p.T @ p - np.eye(n)) <= 1e-12
        assert norm_inf(q.T @ q - np.eye(n)) <= 1e-12
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        diag = p.T @ e @ q
        assert np.all(np.diag(diag) >= -1e-12)

    @pytest.mark.parametrize("e", [
        -np.eye(3),
        np.array([[0.0, -2.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        np.array([[1.0, -3.0], [-2.0, 6.0]]),
        np.random.default_rng(11).normal(size=(5, 5)),
    ])
    def test_sign_rule(self, e):
        p, s, q = svd_small(e)
        rank = int(np.count_nonzero(s))
        cols = np.arange(e.shape[0])
        assert np.all(q[np.argmax(np.abs(q), axis=0), cols] > 0)
        assert np.all(p[np.argmax(np.abs(p[:, rank:]), axis=0), cols[rank:]] > 0)
        # inside the rank P follows Q: e q_k = sigma_k p_k with sigma_k > 0
        assert norm_inf(e @ q[:, :rank] - p[:, :rank] * s[:rank]) <= 1e-12 * norm_inf(e)
        assert not np.any(np.signbit(p[p == 0.0])) and not np.any(np.signbit(q[q == 0.0]))

    def test_non_finite_raises(self):
        e = np.eye(3)
        e[1, 2] = np.nan
        with pytest.raises(EvaluationError):
            svd_small(e)

    def test_zero_matrix(self):
        p, s, q = svd_small(np.zeros((3, 3)))
        assert np.array_equal(s, np.zeros(3))
        assert norm_inf(p.T @ p - np.eye(3)) <= 1e-12


def mixed_stack(rng, n):
    """Twelve n x n matrices: full rank, rank deficient, a zero slice, a
    negated identity and entries of mixed scale."""
    mats = [rng.normal(size=(n, n)) for _ in range(6)]
    for k in (1, 3):
        mats[k][:, -1] = mats[k][:, 0]  # rank deficiency (none for 1x1)
    mats[2] = np.outer(rng.normal(size=n), rng.normal(size=n))  # rank one
    mats += [np.zeros((n, n)), -np.eye(n), 1e-200 * rng.normal(size=(n, n)),
             1e200 * rng.normal(size=(n, n)), np.diag(np.arange(n, 0, -1.0))]
    mats.append(np.triu(rng.normal(size=(n, n))))
    return np.array(mats)


class TestSvdSmallStacks:
    # each slice of a stack gets the bits of its own 2D call and of the
    # per-matrix oracle (tests/oracles.py)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_slices_match_the_2d_call(self, n):
        stack = mixed_stack(np.random.default_rng(n), n)
        p, sigma, q = svd_small(stack)
        assert p.shape == q.shape == stack.shape and sigma.shape == stack.shape[:2]
        for k, e in enumerate(stack):
            for ref in (svd_small(e), svd_of_matrix(e)):
                assert [f[k].tobytes() for f in (p, sigma, q)] == [f.tobytes() for f in ref]

    def test_leading_dimensions(self):
        stack = mixed_stack(np.random.default_rng(9), 3)
        flat = svd_small(stack)
        nested = svd_small(stack.reshape(3, 4, 3, 3))
        for f, g in zip(flat, nested):
            assert g.reshape(f.shape).tobytes() == f.tobytes()

    def test_zero_slice_has_rank_zero_and_positive_leading_entries(self):
        p, sigma, q = svd_small(np.zeros((2, 3, 3)))
        assert not sigma.any()
        for f in (p, q):
            assert np.all(np.take_along_axis(f, np.argmax(np.abs(f), axis=1)[:, None, :], 1) > 0)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 2), (4, 2, 3), ()])
    def test_not_square_raises(self, shape):
        with pytest.raises(EvaluationError, match=rf"expected square matrix, got shape {re.escape(str(shape))}"):
            svd_small(np.ones(shape))

    def test_non_finite_slice_raises(self):
        stack = np.array([np.eye(3)] * 4)
        stack[2, 1, 0] = np.inf
        with pytest.raises(EvaluationError, match="svd_small input has non-finite entries"):
            svd_small(stack)

    def test_size_limit_applies_to_stacks(self):
        with pytest.raises(EvaluationError, match="from 1x1 up to 32x32"):
            svd_small(np.zeros((2, 33, 33)))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_stacked_determinants_match_the_2d_call(n):
    stack = mixed_stack(np.random.default_rng(20 + n), n)
    with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 slice overflows to inf
        dets = determinant(stack)
        assert dets.shape == (len(stack),)
        for det, e in zip(dets, stack):
            assert det.tobytes() == np.float64(determinant(e)).tobytes()
            assert det.tobytes() == np.float64(determinant_of_matrix(e)).tobytes()


class TestQuadrature:
    def test_zero_mean(self):
        assert abs(quadrature_periodic(lambda t: np.sin(t), 2 * np.pi, 64)) <= 1e-12

    def test_constant_plus_zero_mean(self):
        val = quadrature_periodic(lambda t: 2.0 + np.cos(t), 2 * np.pi, 64)
        assert abs(val - 2.0) <= 1e-12

    def test_cos_squared(self):
        val = quadrature_periodic(lambda t: np.cos(t) ** 2, 2 * np.pi, 64)
        assert abs(val - 0.5) <= 1e-12

    def test_vector_valued(self):
        val = quadrature_periodic(lambda t: np.array([np.sin(t), 3.0]), 2 * np.pi, 32)
        assert norm_inf(val - np.array([0.0, 3.0])) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_on_trig_polynomials(self, seed):
        # degree < n/2 trig polynomials integrate exactly; the mean is the
        # constant coefficient by orthogonality
        rng = np.random.default_rng(seed)
        n = 32
        deg = int(rng.integers(1, n // 2))
        a0 = rng.normal()
        coeffs = rng.normal(size=(deg, 2))

        def h(t):
            val = a0
            for k in range(deg):
                val += coeffs[k, 0] * np.cos((k + 1) * t) + coeffs[k, 1] * np.sin((k + 1) * t)
            return val

        assert abs(quadrature_periodic(h, 2 * np.pi, n) - a0) <= 1e-12

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            quadrature_periodic(lambda t: t, 1.0, 4)


class TestRk4:
    def test_zero_field(self):
        u = np.array([1.0, -2.0])
        assert np.array_equal(rk4_step(lambda t, v: 0.0 * v, 0.0, u, 0.3), u)

    def test_exponential(self):
        u1 = rk4_step(lambda t, v: v, 0.0, np.array([1.0]), 0.1)
        assert abs(u1[0] - np.exp(0.1)) < 1e-7

    def test_rotation_full_period(self):
        w = np.array([[0.0, -1.0], [1.0, 0.0]])
        u = np.array([1.0, 0.0])
        h = 2 * np.pi / 256
        t = 0.0
        for _ in range(256):
            u = rk4_step(lambda tt, v: w @ v, t, u, h)
            t += h
        assert norm_inf(u - np.array([1.0, 0.0])) < 1e-6


def test_svd_small_size_limit():
    with pytest.raises(Exception):
        svd_small(np.eye(33))
