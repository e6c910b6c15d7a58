import re
from dataclasses import replace

import numpy as np
import pytest

from daecont import kernel
from daecont.degree import candidate_map
from daecont.errors import (
    DaecontError,
    EvaluationError,
    HypothesisViolatedError,
    NonfiniteResultError,
    SingularMatrixError,
)
from daecont.fixtures import PROBLEMS, load_fixture, path_fixture, problem_text
from daecont.kernel import March
from daecont.linalg import norm_inf
from daecont.paths import MatrixPath, frame_audit
from daecont.periodic import integrate
from daecont.probfile import build_problem, expr_path, parse_problem
from daecont.semilinear import SemiLinearDae, reduce_semilinear
from daecont.transform import (
    DaeProblem1,
    _frame_samples,
    c_frame_drifts,
    fixed_frame,
    fixed_frame_first,
    fixed_frame_second,
)
from oracles import (
    fixed_frame_at,
    fixed_frame_march,
    forcing,
    frame_node,
    frame_pairs,
    march_over,
    node_records,
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
        forcing_at = March(sys_t, 0.0).mean_forcing(frame_pairs(sys_t, [0.7]), xi, eta)  # one time
        assert norm_inf(np.array(forcing_at) - f(0.7, xi, eta)) <= 1e-14

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

    def test_overflowing_commutation_residual_raises(self):
        # H @ A overflows: the stacked residual keeps the NaN that a
        # per-node max could drop, and no numpy warning escapes
        prob = load_fixture("commuting_h")
        prob.H = np.full((2, 2), 1.5e308)
        with pytest.raises(EvaluationError, match="commutation residual of H is not finite"):
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

    @pytest.mark.parametrize("label", ["A", "B"])
    def test_each_path_is_periodic_at_its_own_period(self, label):
        # a 1-periodic path beside a 2 pi-periodic one passes, and the same
        # function declared 2 pi-periodic fails
        turn = lambda t: np.array([[np.cos(2 * np.pi * t), -np.sin(2 * np.pi * t)],
                                   [np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)]])
        paths = {"A": lambda period: MatrixPath(2, period, turn, d1=lambda t: 2 * np.pi * J @ turn(t)),
                 "B": lambda period: MatrixPath(1, period, lambda t: 2.0 + turn(t)[:1, :1])}
        prob = identity_problem()
        for period, fails in ((1.0, False), (2 * np.pi, True)):
            setattr(prob, label, paths[label](period))
            if fails:
                with pytest.raises(HypothesisViolatedError, match=f"^path {label} is not"):
                    fixed_frame_first(prob)
            else:
                fixed_frame_first(prob)

    def test_second_order_problem_is_refused(self):
        with pytest.raises(ValueError, match=r"^fixed_frame_first needs an order-1 problem, got order 2$"):
            fixed_frame_first(load_fixture("rotating_surface_2nd"))


class TestFixedFrameSecond:
    def test_first_order_problem_is_refused(self):
        with pytest.raises(ValueError, match=r"^fixed_frame_second needs an order-2 problem, got order 1$"):
            fixed_frame_second(load_fixture("rotating_surface"))

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
        assert norm_inf(forcing(sys_t, *args) - f(*args)) <= 1e-12
        # the emitted forcing, at zero frame velocities
        at_rest = args[:3] + (np.zeros(2), np.zeros(1))
        forcing_at = March(sys_t, 0.0).mean_forcing(frame_pairs(sys_t, args[:1]), *args[1:3])  # one time
        assert norm_inf(np.array(forcing_at) - f(*at_rest)) <= 1e-12

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


def pull_back(sys_t, t, xi, eta):
    # (x, y, xdot, ydot) of a first-order frame node, by the march's emitted records
    return node_records(March(sys_t, 0.0), [(t, list(xi), list(eta), fixed_frame_at(sys_t, t))])[0][1:5]


def pull_back_nodes(sys_t, times, xi, eta):
    nodes = [pull_back(sys_t, t, xi[k], eta[k]) for k, t in enumerate(times)]
    return np.array([n[0] for n in nodes]), np.array([n[1] for n in nodes])


class TestPullBack:
    """The march's records pull frame nodes back; push_forward maps them into the frame."""

    def test_identity(self):
        times = np.linspace(0, 1, 5)
        xi = np.random.default_rng(0).normal(size=(5, 2))
        eta = np.random.default_rng(1).normal(size=(5, 1))
        sys_t = frame_system(MatrixPath.constant(np.eye(2), 1.0),
                             MatrixPath.constant(np.eye(1), 1.0))
        x, y = pull_back_nodes(sys_t, times, xi, eta)
        assert np.array_equal(x, xi) and np.array_equal(y, eta)
        assert pull_back(sys_t, 0.5, xi[0], eta[0])[2:] == (None, None)

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
            xi, eta, xid = sys_t.push_forward(fixed_frame_at(sys_t, t), x, y)
            assert xid is None
            x2, y2, _, _ = pull_back(sys_t, t, xi, eta)
            assert norm_inf(x2 - x) <= 1e-12
            assert norm_inf(y2 - y) <= 1e-12

    def test_round_trip_with_velocities(self):
        # xidot = dA x + A xdot and etadot = dB y + B ydot map back to the
        # original velocities by the numpy node map of the test oracles
        prob = load_fixture("rotating_surface_2nd")
        sys_t = fixed_frame(prob)
        rng = np.random.default_rng(4)
        for t in np.linspace(0, prob.period, 7):
            x, xdot = rng.normal(size=prob.m), rng.normal(size=prob.m)
            y, ydot = rng.normal(size=prob.s), rng.normal(size=prob.s)
            xi, eta, xid = sys_t.push_forward(fixed_frame_at(sys_t, t), x, y, xdot)
            etad = prob.B(t, 1) @ y + prob.B(t) @ ydot
            x2, y2, xd2, yd2 = frame_node(sys_t, t, xi, eta, xid, etad)[1]
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

    def test_a_system_is_its_own_fixed_frame(self, path_calls):
        sys_t = fixed_frame(load_fixture("rotating_surface"))
        del path_calls[:]
        assert fixed_frame(sys_t) is sys_t and path_calls == []  # no second audit

    def test_systems_compare_by_identity(self):
        # each system keeps its own frame table, so two of one problem are two
        prob = load_fixture("rotating_surface")
        first, second = fixed_frame(prob), fixed_frame(prob)
        assert first == first and first != second and len({first, second}) == 2

    def test_a_system_reads_its_model_from_its_problem(self):
        # a system has no model of its own, so no copy can change one, and a
        # forcing or constraint set on the problem after the transform (as a
        # tracer wraps them) is what the march's forcing and the candidate
        # map read; doubling a value doubles it exactly
        prob = load_fixture("rotating_surface")
        sys_t = fixed_frame(prob)
        with pytest.raises(TypeError):
            replace(sys_t, f=prob.f)
        z = np.array([0.3, 0.1, 0.2])
        forcing_at = lambda: March(sys_t, 0.0).mean_forcing(frame_pairs(sys_t, [0.5]), [0.3, 0.1], [0.2])
        before = forcing_at(), candidate_map(sys_t)(z)
        f, g = prob.f, prob.g
        prob.f, prob.g = (lambda *args: 2.0 * f(*args)), (lambda p, q: 2.0 * g(p, q))
        assert forcing_at() == tuple(2.0 * v for v in before[0])
        assert candidate_map(sys_t)(z).tolist() == [*before[1][:2], 2.0 * before[1][2]]

    def test_march_rate_is_drift_plus_forcing(self):
        # a step of the fixed-frame march is the RK4 step of the rate
        # D0 xi + D1 xidot + lam F, up to the last bit of a float sum
        sys_t = fixed_frame(load_fixture("rotating_surface_2nd"))
        state = [0.3, -0.2, 0.05, 0.4]
        stepper = March(sys_t, 0.7)
        eta = stepper.resolve(0.0, state, [0.1])
        _, end = march_over(stepper, state, eta, 0.01, 1)
        _, ref = fixed_frame_march(sys_t, 0.7, state, eta, 0.01, 1)
        assert norm_inf(np.array(end) - ref[0]) <= 1e-15


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


class TestConstraintRateJacobian:
    # Without dgdot (and without d1g/d2g) gdot_jac is a central mixed second
    # difference of g; the compiled dgdot of the same problem is the reference.
    @pytest.mark.parametrize("rate_scale", [1e-3, 1.0, 40.0])
    def test_matches_compiled_dgdot(self, rate_scale):
        prob = load_fixture("rotating_surface_2nd")
        bare = replace(prob, dgdot=None, d1g=None, d2g=None)
        p, q = np.array([0.4, -0.9]), np.array([0.7])
        u, w = rate_scale * np.array([0.3, 0.5]), rate_scale * np.array([-0.8])
        ref = prob.gdot_jac(p, q, u, w)
        assert norm_inf(bare.gdot_jac(p, q, u, w) - ref) <= 1e-7 * max(1.0, norm_inf(ref))

    def test_zero_rate_gives_zero(self):
        bare = replace(load_fixture("rotating_surface_2nd"), dgdot=None, d1g=None, d2g=None)
        out = bare.gdot_jac(np.array([0.4, -0.9]), np.array([0.7]), np.zeros(2), np.zeros(1))
        assert out.shape == (1, 3) and not out.any()


def fixture_problem(name):
    # the problem a fixture marches: semilinear_4x4 reduced (m = s = 2)
    prob = load_fixture(name)
    return reduce_semilinear(prob) if isinstance(prob, SemiLinearDae) else prob


def march_times(period, n=256):
    # the 2n + 1 step and midpoint times of an n-step march, accumulated as the march does
    t, h, times = 0.0, period / n, [0.0]
    for _ in range(n):
        times += [t + 0.5 * h, t + h]
        t = t + h
    return times


def path(rows, name, period=2 * np.pi):
    return expr_path(rows, period, name=name)


ROTATION = [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]]


def at(frames, t):
    # the frame of a frame function at one time
    return next(frames((t,)))


def frame_error(frames, t):
    with pytest.raises(DaecontError) as exc:
        at(frames, t)
    return type(exc.value), str(exc.value)


def times_error(frames, times):
    # the error of reading the frames at times, and how many were read before it
    read = []
    with pytest.raises(DaecontError) as exc:
        for frame in frames(times):
            read.append(frame)
    return type(exc.value), str(exc.value), len(read)


def one_by_one(frames):
    # the frame function that reads each time by its own call
    return lambda times: (at(frames, t) for t in times)


# the kinds of iterable a frame function reads its times from
TIME_KINDS = {"list": list, "array": np.array, "generator": lambda times: (t for t in times)}


class TestFrameFunction:
    """The emitted frame function gives the numpy route's bits and errors."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("kind", sorted(TIME_KINDS))
    def test_bits_equal_the_numpy_route(self, name, fixed, kind):
        prob = fixture_problem(name)
        times = march_times(prob.period)
        # the problem's own order, and order 2 (the transform's audit) for order 1
        for order in sorted({prob.order, 2}):
            assert kernel._frame_fragments(prob.A, prob.B, order) is not None
            emitted = list(kernel.frame_function(prob.A, prob.B, order, fixed)(TIME_KINDS[kind](times)))
            numpy_route = kernel._numpy_frames(prob.A, prob.B, order, fixed and order == 2)
            want = list(numpy_route(TIME_KINDS[kind](times)))
            assert len(emitted) == len(want) == len(times)
            assert {type(v) for frame in emitted for v in frame} == {float}
            assert np.array(emitted).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("rows", [
        [["2 + cos(t)", "sin(t)"], ["t", "3 - sin(2*t)"]],
        # s >= 3 solves by solve_linear, as inverse_derivative does
        [["2 + cos(t)", "sin(t)", "0"], ["0", "3", "t"], ["1", "0", "2 + sin(2*t)"]],
    ])
    def test_bits_of_a_time_varying_b(self, rows):
        a, b = path(ROTATION, "A"), path(rows, "B")
        emitted, numpy_route = kernel.frame_function(a, b, 2, True), kernel._numpy_frames(a, b, 2, True)
        times = march_times(2 * np.pi, 16)
        assert np.array(list(emitted(times))).tobytes() == np.array(list(numpy_route(times))).tobytes()

    @pytest.mark.parametrize("fixed", [False, True])
    def test_problem_and_system_read_the_emitted_function(self, fixed, path_calls):
        # a raw march's frame at one time, the frames of a fixed-frame
        # march of one step (times 0, 0.3, 0.6)
        prob = load_fixture("rotating_surface_2nd")
        stepper = March(fixed_frame(prob) if fixed else prob, 0.5)
        del path_calls[:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MatrixPath, "__call__", None)  # any numpy path call fails
            times = kernel.march_times(0.6, 1) if fixed else (0.3,)
            entries = list(stepper.frames(times))[1 if fixed else 0]
        assert path_calls == [prob.A, prob.B, prob.A, prob.B] * (3 if fixed else 1)
        assert entries == at(kernel._numpy_frames(prob.A, prob.B, 2, fixed), 0.3)

    def test_fd_problem_takes_the_numpy_route(self):
        text = problem_text("rotating_surface_2nd").replace(
            "period = 6.283185307179586", "period = 6.283185307179586\nderivatives = fd")
        prob = build_problem(parse_problem(text))
        assert kernel._frame_fragments(prob.A, prob.B, 2) is None
        sys_t = fixed_frame(prob)
        x0 = np.array([0.3, 0.1])
        for mode, model in (("raw", prob), ("fixed", sys_t)):
            traj = integrate(model, 0.5, x0, h=prob.period / 16, mode=mode)
            assert np.isfinite(traj.x).all()
            want = at(kernel._numpy_frames(prob.A, prob.B, 2, mode == "fixed"), 0.25)
            assert at(March(model, 0.5).frames, 0.25) == want

    def test_python_callable_path_takes_the_numpy_route(self, path_calls):
        prob = load_fixture("rotating_surface")
        rotation = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        prob.A = MatrixPath(2, prob.period, rotation,
                            d1=lambda t: rotation(t) @ J, name="A")
        sys_t = fixed_frame(prob)
        del path_calls[:]
        times = list(kernel.march_times(0.8, 1))
        frames = list(March(sys_t, 0.5).frames(times))
        assert times[1] == 0.4 and path_calls == [prob.A, prob.B] * 3
        assert frames[1] == tuple(rotation(0.4).ravel().tolist()) + (1.0,)
        traj = integrate(prob, 0.5, np.array([0.3, 0.1]), h=prob.period / 16, mode="raw")
        assert np.isfinite(traj.x).all()

    def test_replaced_path_is_read(self):
        # a march reads the paths its model has when the march is made: a
        # fixed-frame march made after B is replaced reads the new B at
        # every frame and node, one made before keeps the old B
        prob = load_fixture("rotating_surface")
        sys_t = fixed_frame(prob)
        h = prob.period / 16
        times = list(kernel.march_times(h, 16))
        before = March(sys_t, 0.5)
        frames = list(before.frames(times))
        assert at(March(prob, 0.5).frames, 0.0) == frames[0] == (1.0, -0.0, 0.0, 1.0, 1.0)
        assert {frame[-1] for frame in frames} == {1.0}
        prob.B = path([["2"]], "B")
        assert at(March(prob, 0.5).frames, 0.0) == (1.0, -0.0, 0.0, 1.0, 2.0)
        after = March(sys_t, 0.5)
        assert {frame[-1] for frame in after.frames(times)} == {2.0}
        assert list(before.frames(times)) == frames
        nodes, _ = march_over(after, [0.3, 0.1], [0.0], h, 16)
        assert {frame[-1] for *_, frame in nodes} == {2.0}

    @pytest.mark.parametrize("order, fixed", [(1, False), (2, False), (2, True)])
    @pytest.mark.parametrize("entry, t, error", [
        ("1e308 * (t + 10)", 0.0, EvaluationError),  # an inf entry that raises nowhere
        ("exp(1000*t)", 1.0, NonfiniteResultError),  # overflow
        ("1/t", 0.0, NonfiniteResultError),  # division by zero
        ("(t + 10)^400", np.float64(0.0), NonfiniteResultError),  # a float power, also at a numpy time
    ])
    def test_errors_equal_the_numpy_route(self, order, fixed, entry, t, error):
        a = path([[entry, "0"], ["0", "1"]], "A")
        b = path([["1"]], "B")
        emitted = kernel.frame_function(a, b, order, fixed)
        numpy_route = kernel._numpy_frames(a, b, order, fixed)
        assert frame_error(emitted, t) == frame_error(numpy_route, t)
        assert frame_error(emitted, t)[0] is error
        # B's errors name B, after A has passed
        b = path([[entry]], "B")
        emitted = kernel.frame_function(path(ROTATION, "A"), b, order, fixed)
        assert frame_error(emitted, t) == (error, frame_error(kernel._numpy_frames(
            path(ROTATION, "A"), b, order, fixed), t)[1])

    @pytest.mark.parametrize("rows, t, message", [
        ([["2 + 2*cos(t)"]], np.pi, "1x1 system is singular"),
        ([["1", "cos(t)"], ["cos(t)", "1"]], 0.0, "2x2 system is singular"),
        ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "cos(t)"]], np.pi / 2,
         "pivot 6.123e-17 below threshold 1.000e-13 at column 2"),
    ])
    def test_singular_b_raises_as_the_numpy_route(self, rows, t, message):
        a, b = path(ROTATION, "A"), path(rows, "B")
        emitted = kernel.frame_function(a, b, 2, True)
        assert frame_error(emitted, t) == (SingularMatrixError, message)
        assert frame_error(kernel._numpy_frames(a, b, 2, True), t) == (SingularMatrixError, message)
        assert len(at(kernel.frame_function(a, b, 2, False), t)) == 8 + 2 * len(rows) ** 2  # raw: no solve

    def test_two_parses_share_one_function(self):
        first, second = (fixture_problem("semilinear_4x4") for _ in range(2))
        assert first.A is not second.A
        builds = kernel._frame_build.cache_info().misses
        one, other = (kernel.frame_function(p.A, p.B, 1, True) for p in (first, second))
        assert one.__code__ is other.__code__
        assert kernel._frame_build.cache_info().misses <= builds + 1

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_audit_keeps_the_bits_of_the_path_audit(self, name):
        prob = fixture_problem(name)
        audit, sys_t = frame_audit(prob.A), fixed_frame(prob)
        assert sys_t.M.tobytes() == audit.M.tobytes()


class TestFrameTimes:
    """A frame function's frames at many times give the bits and the first
    error of one call per time, read one time per frame."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("fixed", [False, True])
    def test_times_equal_one_call_per_time(self, name, fixed):
        prob = fixture_problem(name)
        times = march_times(prob.period, 32)
        for order in (1, 2):
            for frames in (kernel.frame_function(prob.A, prob.B, order, fixed),
                           kernel._numpy_frames(prob.A, prob.B, order, fixed and order == 2)):
                want = np.array([at(frames, t) for t in times]).tobytes()
                for kind in TIME_KINDS.values():
                    read = list(frames(kind(times)))
                    assert [type(f) for f in read] == [tuple] * len(times)
                    assert np.array(read).tobytes() == want
                assert list(frames([])) == []

    @pytest.mark.parametrize("fixed", [False, True])
    def test_times_of_a_python_callable_path(self, fixed, path_calls):
        prob = load_fixture("rotating_surface_2nd")
        rotation = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        prob.A = MatrixPath(2, prob.period, rotation, d1=lambda t: rotation(t) @ J, name="A")
        frames = kernel.frame_function(prob.A, prob.B, 2, fixed)
        times = march_times(prob.period, 8)
        del path_calls[:]
        read = list(frames(times))
        assert path_calls == [prob.A, prob.B, prob.A, prob.B] * len(times)
        assert np.array(read).tobytes() == np.array([at(frames, t) for t in times]).tobytes()

    # the entry fails at t = 1 by a division by zero and at t = 2 by an
    # overflow, so each error names the time it was raised at
    TWO_FAILURES = "1/(t - 1) + exp(400*t)"

    @pytest.mark.parametrize("order, fixed", [(1, False), (2, False), (2, True)])
    @pytest.mark.parametrize("times", [[0.5, 1.0, 2.0], [0.5, 2.0, 1.0], [2.0, 0.5]])
    @pytest.mark.parametrize("where", ["A", "B"])
    @pytest.mark.parametrize("kind", sorted(TIME_KINDS))
    def test_first_failing_time_raises(self, order, fixed, times, where, kind):
        rows = [[self.TWO_FAILURES]]
        a = path([[self.TWO_FAILURES, "0"], ["0", "1"]] if where == "A" else ROTATION, "A")
        b = path(rows if where == "B" else [["1"]], "B")
        first = next(t for t in times if t != 0.5)
        for frames in (kernel.frame_function(a, b, order, fixed), kernel._numpy_frames(a, b, order, fixed)):
            got = times_error(frames, TIME_KINDS[kind](times))
            assert got == times_error(one_by_one(frames), times)
            assert got == (*frame_error(frames, first), times.index(first))

    @pytest.mark.parametrize("times, error", [([0.5, np.pi, 1.0], SingularMatrixError),
                                              ([0.5, 1.0, np.pi], NonfiniteResultError)])
    @pytest.mark.parametrize("kind", sorted(TIME_KINDS))
    def test_singular_b_and_a_failing_path_raise_in_time_order(self, times, error, kind):
        a = path([["1/(t - 1)", "0"], ["0", "1"]], "A")
        b = path([["2 + 2*cos(t)"]], "B")
        for frames in (kernel.frame_function(a, b, 2, True), kernel._numpy_frames(a, b, 2, True)):
            got = times_error(frames, TIME_KINDS[kind](times))
            assert got == times_error(one_by_one(frames), times)
            assert got[0] is error and got[2] == 1

    def test_time_calls_run_once_per_time(self):
        # A and dA of the rotation share cos(t) and sin(t): two calls in the
        # one loop body, where each entry made its own
        prob = load_fixture("rotating_surface_2nd")
        source = kernel._emit_frames(2, 1, True, kernel._frame_fragments(prob.A, prob.B, 2))
        assert source.count("for t in times:") == 1
        assert sorted(re.findall(r"math\.\w+\(t\)", source)) == ["math.cos(t)", "math.sin(t)"]

    @pytest.mark.parametrize("rows", [
        [["cos(t)", "1/(t - 1)"], ["cos(t)*exp(t)", "exp(t) - sin(t)"]],
        [["exp(t)", "sin(exp(t))"], ["-sin(t)", "cos(t)"]],
    ])
    def test_shared_calls_keep_the_bits_and_the_first_error(self, rows, monkeypatch):
        # against the frame function that makes every call in its place
        a, b = path(rows, "A"), path([["2 + sin(t)"]], "B")
        fragments = kernel._frame_fragments(a, b, 2)
        shared = kernel._frame_build(2, 1, True, fragments)("A", "B")
        monkeypatch.setattr(kernel, "_once_per_time", lambda lines: lines)
        namespace = dict(kernel._GLOBALS)
        exec(kernel._emit_frames(2, 1, True, fragments), namespace)
        each = namespace["build"]("A", "B")
        for t in (0.0, 0.3, 1.0, 700.0, 710.0, np.inf, -np.inf, np.nan):
            try:
                want = np.array(at(each, t)).tobytes()
            except DaecontError as exc:
                want = (type(exc), str(exc))
                assert frame_error(shared, t) == want
                assert times_error(shared, [0.3, t]) == (*want, 1)
                continue
            assert np.array(at(shared, t)).tobytes() == want == np.array(list(shared([t]))).tobytes()

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_samples_read_the_frames_as_one_stack(self, name):
        # the audit's stacks of the raw order-2 frame, at the audit grid and
        # at each path's periodicity times, hold the bits of the frames
        prob = fixture_problem(name)
        frames = kernel.frame_function(prob.A, prob.B, 2)
        for times in (None, prob.A.periodicity_times(), prob.B.periodicity_times()):
            times, *stacks = _frame_samples(prob, times=times)
            got = np.concatenate([x.reshape(len(times), -1) for x in stacks], axis=1)
            assert got.tobytes() == np.array(list(frames(times))).tobytes()


class TestInvertibleB:
    def test_singular_b_is_a_hypothesis_violation(self):
        text = problem_text("rotating_surface_2nd").replace("[B]\n1\n", "[B]\n2 + 2*cos(t)\n")
        prob = build_problem(parse_problem(text))
        with pytest.raises(HypothesisViolatedError,
                           match=r"^path B is not invertible at t = 3\.141592653589793: "
                                 r"1x1 system is singular$"):
            fixed_frame(prob)

    def test_unvalidated_transform_does_not_test_b(self):
        text = problem_text("rotating_surface").replace("[B]\n1\n", "[B]\n2 + 2*cos(t)\n")
        sys_t = fixed_frame_first(build_problem(parse_problem(text)), validate=False)
        assert sys_t.M.tobytes() == frame_audit(sys_t.A).M.tobytes()
