import numpy as np
import pytest

from daecont.errors import HypothesisViolatedError
from daecont.fixtures import load_fixture, path_fixture
from daecont.linalg import norm_inf
from daecont.paths import MatrixPath, frame_audit
from daecont.transform import (
    DaeProblem1,
    c_frame_drifts,
    fixed_frame,
    fixed_frame_first,
    fixed_frame_second,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def identity_problem(m=2, s=1, f=None, g=None):
    f = f or (lambda t, x, y: np.zeros(m))
    g = g or (lambda p, q: q - p[:s])
    return DaeProblem1(
        m=m, s=s, period=2 * np.pi, f=f, g=g,
        A=MatrixPath.constant(np.eye(m), 2 * np.pi),
        B=MatrixPath.constant(np.eye(s), 2 * np.pi),
    )


class TestFixedFrameFirst:
    def test_rotating_surface_drift_and_constraint(self):
        prob = load_fixture("rotating_surface")
        sys_t = fixed_frame_first(prob)
        assert norm_inf(sys_t.D0 - np.array([[0.0, -1.0], [1.0, 0.0]])) <= 1e-10
        # the constraint becomes autonomous: the very same function object
        # serves at all times, with no residual t dependence
        assert sys_t.g is prob.g
        xi, eta = np.array([0.5, -0.25]), np.array([0.3])
        val = sys_t.g(xi, eta)
        expected = eta[0] ** 3 + eta[0] - xi[0] ** 2 - 2 * xi[1] ** 2
        assert abs(val[0] - expected) <= 1e-14

    def test_identity_frame_passthrough(self):
        f = lambda t, x, y: np.array([np.sin(t), x[0]])
        prob = identity_problem(f=f)
        sys_t = fixed_frame_first(prob)
        assert norm_inf(sys_t.D0) == 0.0
        xi, eta = np.array([0.2, 0.4]), np.array([0.2])
        assert norm_inf(sys_t.F(0.7, xi, eta) - f(0.7, xi, eta)) <= 1e-14

    def test_commuting_drift_arithmetic(self):
        # D0 = H - M with the audited M, H = diag(1, 0); this H does not
        # commute with the frame, so validation is off for the arithmetic check
        prob = load_fixture("commuting_h")
        prob.H = np.diag([1.0, 0.0])
        sys_t = fixed_frame_first(prob, validate=False)
        assert norm_inf(sys_t.D0 - np.array([[1.0, 1.0], [-1.0, 0.0]])) <= 1e-10

    def test_non_commuting_h_rejected(self):
        prob = load_fixture("commuting_h")
        prob.H = np.diag([1.0, 0.0])
        with pytest.raises(HypothesisViolatedError):
            fixed_frame_first(prob)

    def test_commuting_fixture_passes(self):
        prob = load_fixture("commuting_h")
        sys_t = fixed_frame_first(prob)
        m_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert norm_inf(sys_t.D0 - (prob.H - m_mat)) <= 1e-10

    def test_non_orthogonal_frame_rejected(self):
        prob = identity_problem()
        prob.A = MatrixPath.constant(np.diag([2.0, 1.0]), 2 * np.pi)
        with pytest.raises(HypothesisViolatedError):
            fixed_frame_first(prob)

    def test_nonconstant_product_rejected(self):
        # orthogonal but with time-varying frame product
        from scipy.linalg import expm
        s1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        prob = identity_problem()
        prob.A = MatrixPath(2, 2 * np.pi, lambda t: expm(np.sin(t) * s1), fd_step=1e-5)
        with pytest.raises(HypothesisViolatedError):
            fixed_frame_first(prob)


class TestFixedFrameSecond:
    def test_rotating_second_order_drifts(self):
        prob = load_fixture("rotating_surface_2nd")
        sys_t = fixed_frame_second(prob)
        m_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert norm_inf(sys_t.D0 - np.eye(2)) <= 1e-10  # -M^2 = I
        assert norm_inf(sys_t.D1 + 2.0 * m_mat) <= 1e-10

    def test_identity_frames(self):
        f = lambda t, x, y, u, v: np.array([x[0] + u[0], v[0]])
        prob = load_fixture("rotating_surface_2nd")
        prob.A = MatrixPath.constant(np.eye(2), prob.period)
        prob.f = f
        sys_t = fixed_frame_second(prob)
        assert norm_inf(sys_t.D0) == 0.0 and norm_inf(sys_t.D1) == 0.0
        args = (0.3, np.array([1.0, 2.0]), np.array([0.5]), np.array([0.1, 0.2]),
                np.array([0.4]))
        assert norm_inf(sys_t.F(*args) - f(*args)) <= 1e-12

    def test_velocity_drift_cancellation(self):
        # H1 = 2M, H2 = 0 gives D1 = 0 and D0 = 2M^2 - M^2 = M^2
        prob = load_fixture("rotating_surface_2nd")
        m_mat = frame_audit(prob.A).M
        prob.H1 = 2.0 * m_mat
        sys_t = fixed_frame_second(prob)
        assert norm_inf(sys_t.D1) <= 1e-10
        assert norm_inf(sys_t.D0 - m_mat @ m_mat) <= 1e-10

    def test_drift_matches_squared_frame_audit(self):
        prob = load_fixture("rotating_surface_2nd")
        m_mat = frame_audit(prob.A).M
        sys_t = fixed_frame_second(prob)
        assert norm_inf(sys_t.D0 + m_mat @ m_mat) <= 1e-8


class TestCFrameDrifts:
    def test_rotation(self):
        h1, h2 = c_frame_drifts(path_fixture("rot2"))
        assert norm_inf(h1 - np.array([[0.0, 2.0], [-2.0, 0.0]])) <= 1e-10
        assert norm_inf(h2 + np.eye(2)) <= 1e-10

    def test_constant(self):
        h1, h2 = c_frame_drifts(MatrixPath.constant(np.eye(3), 2 * np.pi))
        assert norm_inf(h1) <= 1e-12 and norm_inf(h2) <= 1e-12

    def test_exp_frame(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(3, 3))
        s = 0.5 * (raw - raw.T)
        h1, h2 = c_frame_drifts(MatrixPath.exp_frame(s))
        assert norm_inf(h1 + 2.0 * s) <= 1e-9
        assert norm_inf(h2 - s @ s) <= 1e-9

    def test_unsuitable_path_rejected(self):
        with pytest.raises(HypothesisViolatedError):
            c_frame_drifts(MatrixPath.constant(np.diag([2.0, 1.0]), 1.0))


def frame_system(a_path, b_path):
    # Transformed system that only carries the two paths (no audit needed)
    m, s = a_path.dim, b_path.dim
    prob = DaeProblem1(
        m=m, s=s, period=a_path.period, f=lambda t, x, y: np.zeros(m),
        g=lambda p, q: q, A=a_path, B=b_path,
    )
    return fixed_frame_first(prob, validate=False)


def pull_back_nodes(sys_t, times, xi, eta):
    nodes = [sys_t.pull_back(t, xi[k], eta[k]) for k, t in enumerate(times)]
    return np.array([n[0] for n in nodes]), np.array([n[1] for n in nodes])


class TestPullBack:
    def test_identity(self):
        times = np.linspace(0, 1, 5)
        xi = np.random.default_rng(0).normal(size=(5, 2))
        eta = np.random.default_rng(1).normal(size=(5, 1))
        sys_t = frame_system(MatrixPath.constant(np.eye(2), 1.0),
                             MatrixPath.constant(np.eye(1), 1.0))
        x, y = pull_back_nodes(sys_t, times, xi, eta)
        assert np.array_equal(x, xi) and np.array_equal(y, eta)
        assert sys_t.pull_back(0.5, xi[0], eta[0])[2:] == (None, None)

    def test_constant_frame_state_rotates_back(self):
        # x = A(t).T xi picks the first row of A when xi = e1
        eye1 = MatrixPath.constant(np.eye(1), 2 * np.pi)
        times = np.linspace(0, 2 * np.pi, 9)
        xi = np.tile([1.0, 0.0], (9, 1))
        eta = np.zeros((9, 1))
        x, _ = pull_back_nodes(frame_system(path_fixture("rot2"), eye1), times, xi, eta)
        ref = np.column_stack([np.cos(times), -np.sin(times)])
        assert norm_inf(x - ref) <= 1e-14
        # the clockwise frame gives the (cos, sin) circle
        x_cw, _ = pull_back_nodes(frame_system(path_fixture("rot2cw"), eye1), times, xi, eta)
        ref_cw = np.column_stack([np.cos(times), np.sin(times)])
        assert norm_inf(x_cw - ref_cw) <= 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        sys_t = frame_system(path_fixture("rot2"), path_fixture("rot2cw"))
        for t in np.linspace(0, 2 * np.pi, 17):
            x, y = rng.normal(size=2), rng.normal(size=2)
            xi, eta, xid = sys_t.push_forward(t, x, y)
            assert xid is None
            x2, y2, _, _ = sys_t.pull_back(t, xi, eta)
            assert norm_inf(x2 - x) <= 1e-12
            assert norm_inf(y2 - y) <= 1e-12

    def test_round_trip_with_velocities(self):
        # xidot = dA x + A xdot and etadot = dB y + B ydot map back to the
        # original velocities
        prob = load_fixture("rotating_surface_2nd")
        sys_t = fixed_frame(prob)
        rng = np.random.default_rng(4)
        for t in np.linspace(0, prob.period, 7):
            x, xdot = rng.normal(size=prob.m), rng.normal(size=prob.m)
            y, ydot = rng.normal(size=prob.s), rng.normal(size=prob.s)
            xi, eta, xid = sys_t.push_forward(t, x, y, xdot)
            etad = prob.B(t, 1) @ y + prob.B(t) @ ydot
            x2, y2, xd2, yd2 = sys_t.pull_back(t, xi, eta, xid, etad)
            for got, want in ((x2, x), (y2, y), (xd2, xdot), (yd2, ydot)):
                assert norm_inf(got - want) <= 1e-12


class TestDispatch:
    @pytest.mark.parametrize("name, transform", [
        ("rotating_surface", fixed_frame_first),
        ("rotating_surface_2nd", fixed_frame_second),
    ])
    def test_fixed_frame_matches_order(self, name, transform):
        prob = load_fixture(name)
        sys_t, ref = fixed_frame(prob), transform(prob)
        assert sys_t.order == prob.order
        assert np.array_equal(sys_t.D0, ref.D0) and np.array_equal(sys_t.M, ref.M)

    def test_drive_matches_drift_plus_forcing(self):
        prob = load_fixture("rotating_surface_2nd")
        sys_t = fixed_frame(prob)
        xi, eta = np.array([0.3, -0.2]), np.array([0.1])
        u, v = np.array([0.05, 0.4]), np.array([-0.2])
        ref = sys_t.D0 @ xi + sys_t.D1 @ u + 0.7 * sys_t.F(0.4, xi, eta, u, v)
        assert np.array_equal(sys_t.drive(0.4, xi, eta, u, v, 0.7), ref)


class TestFiniteDifferenceMode:
    def test_fd_path_passes_audit_at_relaxed_tolerance(self):
        from daecont.fixtures import problem_text
        from daecont.probfile import build_problem, parse_problem

        text = problem_text("rotating_surface").replace(
            "period = 6.283185307179586",
            "period = 6.283185307179586\nderivatives = fd")
        prob = build_problem(parse_problem(text))
        assert not prob.A.analytic
        # the default tolerance keys off the derivative mode, so the
        # transform accepts the O(h^2) constancy residual
        sys_t = fixed_frame_first(prob)
        assert norm_inf(sys_t.D0 - np.array([[0.0, -1.0], [1.0, 0.0]])) <= 1e-6
