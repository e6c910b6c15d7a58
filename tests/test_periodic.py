from dataclasses import replace

import numpy as np
import pytest

from daecont import periodic
from daecont.degree import Box, averaged_map_fn
from daecont.errors import (
    DaecontError,
    NonfiniteResultError,
    SeedRejectedError,
    SingularMatrixError,
    SingularMonodromyError,
)
from daecont.fixtures import load_fixture, problem_text
from daecont.linalg import NewtonConfig, newton_solve, norm_inf
from daecont.paths import MatrixPath
from daecont.probfile import build_problem, parse_problem
from daecont.semilinear import reduce_semilinear
from daecont.periodic import (
    branch_seeds,
    consistent_init,
    continue_branch,
    find_tpair,
    integrate,
    shooting_residual,
)
from daecont.transform import DaeProblem1, fixed_frame
from oracles import central_jacobian

TWO_PI = 2.0 * np.pi


def scalar_problem(f=None, g=None):
    # m = s = 1 with identity frames; g defaults to the cubic constraint
    f = f or (lambda t, x, y: np.array([0.0]))
    g = g or (lambda p, q: q**3 + q - p)
    return DaeProblem1(
        m=1, s=1, period=TWO_PI, f=f, g=g,
        A=MatrixPath.constant(np.eye(1), TWO_PI),
        B=MatrixPath.constant(np.eye(1), TWO_PI),
    )


def plain_march(runner, lam, state0):
    # the record and nodes of one plain fixed-frame march over a period
    stepper = periodic._FixedStepper(runner.sys, lam)
    return stepper.record, runner._run(stepper, np.asarray(state0, dtype=float))


def closed_form_scalar(lam, x0, t):
    # dx/dt = lam (cos t - x): particular orbit plus decaying transient
    part = lam * (lam * np.cos(t) + np.sin(t)) / (1.0 + lam**2)
    c = x0 - lam**2 / (1.0 + lam**2)
    return part + c * np.exp(-lam * t)


class TestConsistentInit:
    def test_cubic_zero(self):
        prob = scalar_problem()
        y = consistent_init(prob, 0.0, np.array([0.0]), np.array([0.5]))
        assert abs(y[0]) <= 1e-12

    def test_cubic_known_root(self):
        # q^3 + q - 2 = (q - 1)(q^2 + q + 2)
        prob = scalar_problem()
        y = consistent_init(prob, 0.0, np.array([2.0]), np.array([0.0]))
        assert abs(y[0] - 1.0) <= 1e-12

    def test_rotating_origin(self):
        prob = load_fixture("rotating_surface")
        y = consistent_init(prob, 0.0, np.zeros(2), np.array([0.3]))
        assert abs(y[0]) <= 1e-12


class TestIntegrate:
    def test_zero_forcing_is_constant(self):
        prob = scalar_problem()
        traj = integrate(prob, 1.0, np.array([0.0]), h=TWO_PI / 64)
        assert norm_inf(traj.x - traj.x[0]) <= 1e-14
        assert norm_inf(traj.y - traj.y[0]) <= 1e-14

    def test_linear_growth(self):
        prob = scalar_problem(f=lambda t, x, y: np.array([1.0]),
                              g=lambda p, q: q - p)
        traj = integrate(prob, 1.0, np.array([0.0]), h=TWO_PI / 256)
        assert norm_inf(traj.x[:, 0] - traj.times) <= 1e-8
        assert norm_inf(traj.y[:, 0] - traj.times) <= 1e-8

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_closed_form_linear_fixture(self, lam):
        prob = load_fixture("scalar_linear")
        x0 = 0.8
        traj = integrate(prob, lam, np.array([x0]), h=TWO_PI / 512)
        ref = closed_form_scalar(lam, x0, traj.times)
        assert norm_inf(traj.x[:, 0] - ref) <= 1e-9

    def test_step_must_divide_span(self):
        prob = scalar_problem()
        with pytest.raises(ValueError):
            integrate(prob, 1.0, np.array([0.0]), h=1.0)

    @pytest.mark.parametrize("h", [1e-300, 5e-324, TWO_PI / (periodic.MAX_STEPS + 1)])
    def test_step_count_is_capped(self, h):
        with pytest.raises(ValueError, match="more than"):
            integrate(scalar_problem(), 1.0, np.array([0.0]), h=h)
        assert periodic._steps_for(TWO_PI, TWO_PI / periodic.MAX_STEPS) == periodic.MAX_STEPS

    def test_constraint_residual_at_nodes(self):
        prob = load_fixture("rotating_surface")
        traj = integrate(prob, 1.0, np.array([0.3, 0.1]), h=TWO_PI / 128)
        assert traj.constraint_residual(prob) <= 1e-10

    def test_halving_h_shows_fourth_order(self):
        prob = load_fixture("scalar_linear")
        errs = []
        for n in (32, 64):
            traj = integrate(prob, 1.0, np.array([1.0]), h=TWO_PI / n)
            ref = closed_form_scalar(1.0, 1.0, traj.times)
            errs.append(norm_inf(traj.x[:, 0] - ref))
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.5


class TestShootingResidual:
    def test_zero_lambda_zero_drift(self):
        prob = scalar_problem()
        res = shooting_residual(prob, 0.0, np.array([0.4]))
        assert norm_inf(res) <= 1e-12

    def test_rotating_frame_full_period_monodromy(self):
        # the frame drift is a full rotation over one period, so every
        # initial state returns to itself at lam = 0
        prob = load_fixture("rotating_surface")
        for xi0 in ([0.0, 0.0], [0.5, -0.2], [1.0, 1.0]):
            res = shooting_residual(prob, 0.0, np.array(xi0), nsteps=512)
            assert norm_inf(res) <= 1e-8

    def test_matches_closed_form(self):
        prob = load_fixture("scalar_linear")
        lam = 1.0
        res = shooting_residual(prob, lam, np.array([0.0]))
        expected = closed_form_scalar(lam, 0.0, TWO_PI) - 0.0
        assert abs(res[0] - expected) <= 1e-8

    @pytest.mark.parametrize("name", ["scalar_linear", "rotating_surface_2nd"])
    def test_one_march_per_shooting_residual(self, name):
        # one forcing call per RK4 stage: the residual comes from a single march
        prob = load_fixture(name)
        calls = []
        f = prob.f
        prob.f = lambda *args: calls.append(1) or f(*args)
        n = 16
        xi0 = np.zeros(prob.order * prob.m)
        res = shooting_residual(prob, 0.5, xi0, nsteps=n)
        assert len(calls) == 4 * n
        assert np.all(np.isfinite(res))


class TestFindTPair:
    def test_trivial_at_lambda_zero(self):
        prob = scalar_problem()
        tp = find_tpair(prob, 0.0, np.array([0.7]))
        assert tp.is_trivial
        assert tp.lam == 0.0
        assert tp.periodicity_residual <= 1e-8

    def test_nonperiodic_guess_at_lambda_zero(self):
        # the commuting spiral drift H decays every nonzero state
        with pytest.raises(SingularMonodromyError):
            find_tpair(load_fixture("commuting_h"), 0.0, np.array([0.5, 0.3]))

    def test_scalar_linear_periodic_orbit(self):
        prob = load_fixture("scalar_linear")
        tp = find_tpair(prob, 1.0, np.array([0.0]))
        ref = 0.5 * (np.cos(tp.trajectory.times) + np.sin(tp.trajectory.times))
        assert norm_inf(tp.trajectory.x[:, 0] - ref) <= 1e-6
        assert tp.periodicity_residual <= 1e-8
        assert tp.constraint_residual <= 1e-10
        assert not tp.is_trivial

    def test_rotating_small_lambda(self):
        prob = load_fixture("rotating_surface")
        tp = find_tpair(prob, 0.2, np.array([0.0, 0.0]))
        assert tp.periodicity_residual <= 1e-8
        assert tp.constraint_residual <= 1e-10
        # closed form: xi0 = (lam^2/(1+lam^2), 0)
        assert abs(tp.xi0[0] - 0.2**2 / 1.04) <= 1e-6
        assert abs(tp.xi0[1]) <= 1e-6


class TestBranchSeeds:
    def test_rotating_surface_origin(self):
        prob = load_fixture("rotating_surface")
        seeds = branch_seeds(prob, Box.cube(2.0, 3))
        assert len(seeds) == 1
        assert norm_inf(seeds[0].point) <= 1e-8
        assert seeds[0].sign == 1

    def test_identity_frame_seed(self):
        prob = scalar_problem(g=lambda p, q: q - p)
        prob.H = np.eye(1)  # drift makes the candidate block nonsingular
        seeds = branch_seeds(prob, Box.cube(1.0, 2))
        assert len(seeds) == 1 and norm_inf(seeds[0].point) <= 1e-8

    def test_three_seeds_with_signs(self):
        prob = scalar_problem(g=lambda p, q: q**3 - q - p)
        prob.H = np.eye(1)
        seeds = branch_seeds(prob, Box.cube(2.0, 2), grid=9)
        signs = [s.sign for s in sorted(seeds, key=lambda s: s.point[1])]
        assert signs == [1, -1, 1]

    def test_averaged_map_used_when_frame_is_still(self):
        prob = scalar_problem(f=lambda t, x, y: np.array([2.0 + np.cos(t) - x[0]]),
                              g=lambda p, q: q - p)
        seeds = branch_seeds(prob, Box.cube(3.0, 2))
        # averaged forcing 2 - x pairs with constraint y = x: zero at x = y = 2
        assert len(seeds) == 1
        assert norm_inf(seeds[0].point - np.array([2.0, 2.0])) <= 1e-8


class TestContinueBranch:
    def test_seed_rejected(self):
        prob = load_fixture("rotating_surface")
        box = Box(np.array([0.0, -2, -2]), np.array([10.0, 2, 2]))
        with pytest.raises(SeedRejectedError):
            continue_branch(prob, np.array([0.5, 0.5, 0.5]), 0.05, 4, box)

    def test_seed_off_the_averaged_map_rejected(self):
        # the drift vanishes, so the averaged map seeds: (2, 1) satisfies
        # the constraint but not the averaged forcing
        box = Box(np.array([0.0, -2.0]), np.array([10.0, 2.0]))
        with pytest.raises(SeedRejectedError):
            continue_branch(load_fixture("scalar_linear"), np.array([2.0, 1.0]), 0.05, 3, box)

    def test_zero_forcing_traces_lambda_ray(self):
        prob = scalar_problem(g=lambda p, q: q - p)
        prob.H = -np.eye(1)  # constants stay solutions, drift nonsingular
        box = Box(np.array([0.0, -2.0]), np.array([10.0, 2.0]))
        branch = continue_branch(prob, np.zeros(2), 0.25, 6, box)
        assert branch.termination == "budget"
        lams = [p.lam for p in branch.pairs]
        assert lams[0] == 0.0
        assert np.allclose(lams[1:], 0.25 * np.arange(1, len(lams)), atol=1e-9)
        for p in branch.pairs:
            assert norm_inf(p.xi0) <= 1e-9

    def test_scalar_linear_branch_matches_family(self):
        prob = load_fixture("scalar_linear")
        box = Box(np.array([0.0, -2.0]), np.array([10.0, 2.0]))
        branch = continue_branch(prob, np.zeros(2), 0.1, 6, box)
        assert branch.pairs[0].is_trivial
        assert branch.pairs[0].lam == 0.0
        assert branch.pairs[1].lam <= 0.1 + 1e-12
        for p in branch.pairs[1:]:
            lam = p.lam
            ref = lam**2 / (1.0 + lam**2)
            assert abs(p.xi0[0] - ref) <= 1e-6
            assert p.periodicity_residual <= 1e-8
            assert p.constraint_residual <= 1e-10
        # consecutive points move by about the arclength step
        z = np.array([[p.lam, p.xi0[0]] for p in branch.pairs])
        steps = np.linalg.norm(np.diff(z, axis=0), axis=1)
        assert np.all(steps <= 1.5 * 0.1 + 1e-9)

    def test_rotating_branch_short(self):
        prob = load_fixture("rotating_surface")
        box = Box(np.array([0.0, -2, -2]), np.array([10.0, 2, 2]))
        branch = continue_branch(prob, np.zeros(3), 0.1, 4, box)
        assert branch.pairs[0].is_trivial
        assert len(branch.pairs) >= 4
        for p in branch.pairs:
            assert p.periodicity_residual <= 1e-8
            assert p.constraint_residual <= 1e-10

    @pytest.mark.parametrize("ds", [0.0, -0.1, float("nan")])
    def test_ds_must_be_positive(self, ds):
        box = Box(np.array([0.0, -2.0]), np.array([10.0, 2.0]))
        with pytest.raises(ValueError, match="ds"):
            continue_branch(load_fixture("scalar_linear"), np.zeros(2), ds, 3, box)

    def test_lambda_stays_nonnegative(self):
        prob = load_fixture("scalar_linear")
        box = Box(np.array([0.0, -2.0]), np.array([10.0, 2.0]))
        branch = continue_branch(prob, np.zeros(2), 0.1, 5, box)
        assert all(p.lam >= 0.0 for p in branch.pairs)


class TestSecondOrder:
    def test_raw_and_fixed_agree(self):
        prob = load_fixture("rotating_surface_2nd")
        x0 = np.array([0.2, -0.1])
        raw = integrate(prob, 0.5, x0, h=prob.period / 512)
        fix = integrate(prob, 0.5, x0, h=prob.period / 512, mode="fixed")
        assert norm_inf(raw.x - fix.x) <= 1e-6
        assert norm_inf(raw.xdot - fix.xdot) <= 1e-6
        assert raw.constraint_residual(prob) <= 1e-10

    def test_velocity_consistency(self):
        # recovered ydot must match the finite-difference slope of y
        prob = load_fixture("rotating_surface_2nd")
        traj = integrate(prob, 0.5, np.array([0.2, -0.1]), h=prob.period / 512)
        k = 100
        h = traj.times[1] - traj.times[0]
        slope = (traj.y[k + 1] - traj.y[k - 1]) / (2 * h)
        assert norm_inf(slope - traj.ydot[k]) <= 1e-4

    def test_find_tpair_second_order(self):
        prob = load_fixture("rotating_surface_2nd")
        tp = find_tpair(prob, 0.3, np.array([0.05, 0.0, 0.0, 0.0]))
        assert tp.periodicity_residual <= 1e-8
        assert tp.constraint_residual <= 1e-10
        assert tp.trajectory.xdot is not None


class TestInitialConsistency:
    def test_inconsistent_start_rejected(self):
        prob = load_fixture("scalar_linear")
        with pytest.raises(ValueError):
            integrate(prob, 1.0, np.array([0.0]), np.array([3.0]), h=TWO_PI / 64)

    def test_consistent_start_accepted(self):
        prob = load_fixture("scalar_linear")
        y0 = consistent_init(prob, 0.0, np.array([2.0]), np.array([0.0]))
        traj = integrate(prob, 1.0, np.array([2.0]), y0, h=TWO_PI / 64)
        assert abs(traj.y[0, 0] - 1.0) <= 1e-10  # q^3 + q = 2 at q = 1


class TestDriftedContinuation:
    def test_commuting_h_branch(self):
        prob = load_fixture("commuting_h")
        seeds = branch_seeds(prob, Box.cube(2.0, 3))
        assert len(seeds) == 1 and norm_inf(seeds[0].point) <= 1e-8
        box = Box(np.array([0.0, -2, -2]), np.array([10.0, 2, 2]))
        branch = continue_branch(prob, seeds[0].point, 0.1, 3, box)
        assert len(branch.pairs) >= 3
        for p in branch.pairs:
            assert p.periodicity_residual <= 1e-8
            assert p.constraint_residual <= 1e-10
        assert branch.pairs[-1].lam > 0.15


class TestSecondOrderClosedForm:
    def test_raw_integration_matches_linear_oscillator(self):
        # f ignores y, so x solves x1'' = lam (cos t - x1), x2'' = -lam x2:
        # with lam = 1/4 and zero start velocity,
        #   x1(t) = (x10 - A) cos(t/2) + A cos t,  A = lam/(lam - 1)
        #   x2(t) = x20 cos(t/2)
        prob = load_fixture("rotating_surface_2nd")
        lam = 0.25
        x0 = np.array([0.3, 0.1])
        traj = integrate(prob, lam, x0, h=prob.period / 512)
        ts = traj.times
        a_coef = lam / (lam - 1.0)
        x1 = (x0[0] - a_coef) * np.cos(0.5 * ts) + a_coef * np.cos(ts)
        x2 = x0[1] * np.cos(0.5 * ts)
        assert norm_inf(traj.x[:, 0] - x1) <= 1e-8
        assert norm_inf(traj.x[:, 1] - x2) <= 1e-8
        # recovered y satisfies the moving constraint against the closed form
        p1 = np.cos(ts) * traj.x[:, 0] - np.sin(ts) * traj.x[:, 1]
        p2 = np.sin(ts) * traj.x[:, 0] + np.cos(ts) * traj.x[:, 1]
        y = traj.y[:, 0]
        assert norm_inf(y**3 + y - p1**2 - 2 * p2**2) <= 1e-9


class TestTermination:
    """How a branch ends once the trivial pair exists."""

    BOX = Box(np.array([0.0, -2.0]), np.array([10.0, 2.0]))

    @staticmethod
    def lambda_ray():
        # constants are periodic at every lam: a budget-limited branch
        prob = scalar_problem(g=lambda p, q: q - p)
        prob.H = -np.eye(1)
        return prob

    def test_degenerate_family_ends_in_solver_failure(self, monkeypatch):
        # x1 relaxes onto a forced orbit, x2 is free: every (x1*, x2) is
        # periodic, so the first shooting Jacobian, the tangent system and
        # the corrector are all singular.  The first step is rescued by
        # least squares, the tangent keeps the chord, and the corrector
        # fails twice.  The seed (0, x2, 0) zeroes the averaged map.
        prob = DaeProblem1(
            m=2, s=1, period=TWO_PI,
            f=lambda t, x, y: np.array([-x[0] + 0.5 * np.cos(t), 0.0]),
            g=lambda p, q: q - p[:1],
            A=MatrixPath.constant(np.eye(2), TWO_PI),
            B=MatrixPath.constant(np.eye(1), TWO_PI),
        )
        fallbacks = {"least_squares": 0, "kept_tangent": 0}
        lsq, tangent = periodic._least_squares_newton, periodic._branch_tangent

        def counted_lsq(*args):
            fallbacks["least_squares"] += 1
            return lsq(*args)

        def counted_tangent(shoot_fn, z, t_prev):
            t = tangent(shoot_fn, z, t_prev)
            fallbacks["kept_tangent"] += t is t_prev
            return t

        monkeypatch.setattr(periodic, "_least_squares_newton", counted_lsq)
        monkeypatch.setattr(periodic, "_branch_tangent", counted_tangent)
        box = Box(np.array([0.0, -2, -2]), np.array([10.0, 2, 2]))
        branch = continue_branch(prob, np.array([0.0, 0.4, 0.0]), 0.1, 5, box)
        assert branch.termination == "solver_failure"
        assert [p.lam for p in branch.pairs] == [0.0, 0.1]
        # x1(0) of the forced orbit of x1' = lam (0.5 cos t - x1)
        x1 = 0.5 * 0.1**2 / (1.0 + 0.1**2)
        assert norm_inf(branch.pairs[1].xi0 - np.array([x1, 0.4])) <= 1e-9
        assert fallbacks == {"least_squares": 1, "kept_tangent": 1}

    @pytest.mark.parametrize("owner, name, failing_call, pairs", [
        (periodic._ShootingRunner, "make_tpair", 1, 1),  # the first step's pair
        (periodic, "_branch_tangent", 1, 2),
        (periodic._ShootingRunner, "make_tpair", 3, 3),  # a later step's pair
    ], ids=["first_pair", "tangent", "later_pair"])
    def test_error_keeps_traced_pairs(self, monkeypatch, owner, name, failing_call, pairs):
        original = getattr(owner, name)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise DaecontError("injected")
            return original(*args)

        monkeypatch.setattr(owner, name, failing)
        branch = continue_branch(self.lambda_ray(), np.zeros(2), 0.25, 6, self.BOX)
        assert branch.termination == "solver_failure"
        assert len(branch.pairs) == pairs
        assert np.allclose([p.lam for p in branch.pairs], 0.25 * np.arange(pairs), atol=1e-9)

    @staticmethod
    def failing_forcing(error):
        # dx/dt = lam (cos t - x) as a Python callable that raises past
        # |x| = 0.3: the orbit lam (lam cos t + sin t) / (1 + lam^2) stays
        # inside at lam = 0.2 and leaves by lam = 0.4
        def f(t, x, y):
            if abs(x[0]) > 0.3:
                raise error("injected")
            return np.array([np.cos(t) - x[0]])

        return scalar_problem(f=f)

    @pytest.mark.parametrize("error", [ZeroDivisionError, ValueError, np.linalg.LinAlgError])
    def test_model_error_keeps_traced_pairs(self, error):
        box = Box(np.array([0.0, -2.0]), np.array([5.0, 2.0]))
        branch = continue_branch(self.failing_forcing(error), np.zeros(2), 0.2, 4, box,
                                 integration_steps=32)
        assert branch.termination == "solver_failure"
        assert [p.lam for p in branch.pairs] == [0.0, 0.2]

    def test_programming_error_propagates(self):
        box = Box(np.array([0.0, -2.0]), np.array([5.0, 2.0]))
        with pytest.raises(TypeError, match="injected"):
            continue_branch(self.failing_forcing(TypeError), np.zeros(2), 0.2, 4, box,
                            integration_steps=32)


class TestScalarConstraintNewton:
    """The s = 1 path of the constraint solve keeps the n x n loop's rules and bits."""

    SOLVERS = [periodic._scalar_newton, periodic._vector_newton]

    @staticmethod
    def march_solves(monkeypatch):
        # every (g, jac, warm start) of the stage solves of a short march
        solves = []
        solve = periodic._solve_constraint

        def recorded(g, jac, q0):
            solves.append((g, jac, np.array(q0, dtype=float)))
            return solve(g, jac, q0)

        monkeypatch.setattr(periodic, "_solve_constraint", recorded)
        shooting_residual(load_fixture("rotating_surface"), 0.5, np.array([0.4, -0.3]), nsteps=16)
        monkeypatch.undo()
        return solves

    def test_matches_vector_loop_bit_for_bit(self, monkeypatch):
        solves = self.march_solves(monkeypatch)
        assert len(solves) == 5 * 16 + 1
        for g, jac, q0 in solves:
            for start in (q0, np.zeros(1)):  # the warm start, and a cold one
                scalar = periodic._scalar_newton(g, jac, start)
                vector = periodic._vector_newton(g, jac, start)
                assert scalar.shape == (1,) and scalar.tobytes() == vector.tobytes()

    def test_one_step_matches_vector_loop_bit_for_bit(self):
        # a linear constraint ends after one step, so the step itself shows:
        # r / j and r * (1 / j) differ in the last bit for about 1 in 4 of these
        rng = np.random.default_rng(7)
        for slope, offset in zip(rng.uniform(0.5, 4.0, 200), rng.uniform(-1.0, 1.0, 200)):
            g = lambda q: slope * q - offset
            jac = lambda q: np.array([[slope]])
            scalar = periodic._scalar_newton(g, jac, np.zeros(1))
            assert scalar.tobytes() == periodic._vector_newton(g, jac, np.zeros(1)).tobytes()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_zero_jacobian_is_singular(self, solver):
        with pytest.raises(SingularMatrixError):
            solver(lambda q: q**2 - 1.0, lambda q: np.array([[2.0 * q[0]]]), np.zeros(1))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_zero_jacobian_inside_tolerance_returns_the_start(self, solver):
        q = solver(lambda q: np.array([1e-13]), lambda q: np.zeros((1, 1)), np.array([0.25]))
        assert q.tolist() == [0.25]

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_residual(self, solver, bad):
        with pytest.raises(NonfiniteResultError, match="constraint residual is"):
            solver(lambda q: np.array([bad]), lambda q: np.ones((1, 1)), np.zeros(1))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_warm_start_inside_tolerance_is_polished_once(self, solver):
        calls = {"g": 0, "jac": 0}

        def g(q):
            calls["g"] += 1
            return q - 0.5

        def jac(q):
            calls["jac"] += 1
            return np.ones((1, 1))

        q = solver(g, jac, np.array([0.5 + 1e-13]))
        assert q.tolist() == [0.5] and calls == {"g": 2, "jac": 1}

    @pytest.mark.parametrize("g, jac", [
        (lambda q: float(q[0] ** 3 + q[0] - 2.0), lambda q: 3.0 * q[0] ** 2 + 1.0),
        (lambda q: [q[0] ** 3 + q[0] - 2.0], lambda q: [[3.0 * q[0] ** 2 + 1.0]]),
    ], ids=["bare_float", "list"])
    def test_python_callable_model_values(self, g, jac):
        for start in (0.0, [0.0], np.zeros(1)):
            q = periodic._solve_constraint(g, jac, start)
            assert isinstance(q, np.ndarray) and q.shape == (1,)
            assert abs(q[0] - 1.0) <= 1e-12


class TestFrameTable:
    """A fixed-frame system evaluates the frame once per time, on first use, and keeps it."""

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_one_entry_per_march_time(self, name):
        runner = periodic._ShootingRunner(load_fixture(name), 16)
        assert runner.sys.frames == {}
        _, nodes = plain_march(runner, 0.5, np.zeros(runner.state_dim))
        assert len(runner.sys.frames) == 2 * 16 + 1
        assert all(len(frame) == 2 * runner.sys.order for frame in runner.sys.frames.values())
        assert {t for t, _, _ in nodes} <= set(runner.sys.frames)

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_flows_make_no_path_calls(self, name, path_calls):
        runner = periodic._ShootingRunner(load_fixture(name), 16)
        del path_calls[:]
        state0 = np.full(runner.state_dim, 0.1)
        first = runner.shoot(0.5, state0)
        # one evaluation of the frame (and, for order 2, its rates) per march time
        assert len(path_calls) == 2 * runner.sys.order * (2 * 16 + 1)
        del path_calls[:]
        periodic._trajectory(*plain_march(runner, 0.5, state0))  # pulled back at seen times too
        runner.linearize(0.7, state0)
        second = runner.shoot(0.5, state0)
        assert path_calls == [] and first.tobytes() == second.tobytes()

    def test_pair_residuals_read_the_table(self, path_calls):
        runner = periodic._ShootingRunner(load_fixture("rotating_surface"), 16)
        traj = periodic._trajectory(*plain_march(runner, 0.5, np.array([0.3, 0.1])))
        del path_calls[:]
        from_table = traj.constraint_residual(runner.sys)
        assert path_calls == [] and runner.make_tpair(0.0, np.zeros(2)).constraint_residual == 0.0
        assert path_calls == []
        assert from_table == traj.constraint_residual(runner.prob) and len(path_calls) == 2 * 17

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_trivial_pair_reads_the_table(self, name, path_calls):
        runner = periodic._ShootingRunner(load_fixture(name), 16)
        _, nodes = plain_march(runner, 0.0, np.zeros(runner.state_dim))
        del path_calls[:]
        pair = periodic._trivial_tpair(runner, np.zeros(3))
        assert path_calls == [] and pair.trajectory.times.tolist() == [t for t, _, _ in nodes]
        assert pair.is_trivial and pair.constraint_residual == 0.0

    def test_new_times_are_evaluated_once_and_stored(self, path_calls):
        runner = periodic._ShootingRunner(load_fixture("rotating_surface"), 16)
        del path_calls[:]
        args = (0.123, np.array([0.3, 0.1]), np.array([0.2]))
        x = runner.sys.pull_back(*args)[0]
        assert len(path_calls) == 2 and list(runner.sys.frames) == [0.123]
        assert runner.sys.pull_back(*args)[0].tobytes() == x.tobytes() and len(path_calls) == 2
        prob = runner.prob
        assert np.array_equal(x, prob.A(0.123).T @ np.array([0.3, 0.1]))

    def test_tabulated_node_equals_evaluated_node(self):
        runner = periodic._ShootingRunner(load_fixture("rotating_surface_2nd"), 16)
        plain_march(runner, 0.5, np.zeros(runner.state_dim))
        t = sorted(runner.sys.frames)[7]  # the midpoint of the fourth step
        fresh = fixed_frame(runner.prob)
        args = (t, np.array([0.3, 0.1]), np.array([0.2]), np.array([-0.1, 0.4]), np.array([0.05]))
        for a, b in zip(runner.sys.pull_back(*args), fresh.pull_back(*args)):
            assert a.tobytes() == b.tobytes()

    def test_each_system_has_its_own_table(self):
        prob = load_fixture("rotating_surface")
        integrate(prob, 0.5, np.array([0.3, 0.1]), mode="fixed")
        assert fixed_frame(prob).frames == {}
        assert periodic._ShootingRunner(prob, 8).sys.frames == {}

    def test_replaced_system_starts_with_an_empty_table(self):
        sys = fixed_frame(load_fixture("rotating_surface"))
        sys.pull_back(0.5, np.array([0.3, 0.1]), np.array([0.2]))
        copy = replace(sys, D0=np.zeros((2, 2)))
        assert list(sys.frames) == [0.5] and copy.frames == {}

    def test_fixed_frame_integration_makes_two_path_calls_per_march_time(self, monkeypatch,
                                                                         path_calls):
        # order 1: A and B once at each of the 2N + 1 step and midpoint
        # times, and none when the nodes are pulled back
        march, counts = periodic._march, []

        def counted(*args):
            before = len(path_calls)
            nodes = march(*args)
            counts.append((len(path_calls) - before, len(path_calls)))
            return nodes

        monkeypatch.setattr(periodic, "_march", counted)
        prob = load_fixture("rotating_surface")
        traj = integrate(prob, 0.5, np.array([0.3, 0.1]), h=prob.period / 16, mode="fixed")
        (in_march, after_march), = counts
        assert in_march == 2 * (2 * 16 + 1) and len(path_calls) == after_march
        assert len(traj.times) == 17

    def test_second_averaged_map_call_makes_no_path_call(self, path_calls):
        omega = averaged_map_fn(fixed_frame(load_fixture("scalar_linear")))
        del path_calls[:]
        first = omega(np.array([0.3, 0.2]))
        assert len(path_calls) == 2 * 64
        del path_calls[:]
        omega(np.array([-0.5, 0.1]))
        assert path_calls == [] and omega(np.array([0.3, 0.2])).tobytes() == first.tobytes()


def _shooting_problem(name):
    # A problem fixture as the shooting layer sees it (semilinear reduced),
    # or one of the variants that exercise the remaining Jacobian terms.
    if name == "semilinear_4x4":
        return reduce_semilinear(load_fixture(name))
    if name == "python_callables":
        # every model piece a Python callable with no derivative: f_jac and
        # the constraint blocks come from forward differences; f sees y
        rs = load_fixture("rotating_surface")
        return DaeProblem1(
            m=2, s=1, period=TWO_PI,
            f=lambda t, x, y: np.array([np.cos(t) - x[0] + 0.5 * y[0] ** 2, -x[1] + 0.3 * x[0] * y[0]]),
            g=lambda p, q: np.array([q[0] ** 3 + q[0] - p[0] ** 2 - 2.0 * p[1] ** 2]),
            A=rs.A, B=rs.B,
        )
    if name.startswith("second_order_rates"):
        # f sees y, xdot and ydot, so the eta and etadot sensitivities count;
        # the _fd variant forms f_jac and gdot_jac by differences, and the
        # _bare variant the constraint blocks too
        text = problem_text("rotating_surface_2nd").replace(
            "cos(t) - x1\n-x2", "cos(t) - x1 + 0.5*y1*v1\n-x2 + 0.3*u1*y1 + 0.2*v1")
        prob = build_problem(parse_problem(text))
        if name.endswith("_bare"):
            return replace(prob, df=None, dgdot=None, d1g=None, d2g=None)
        return replace(prob, df=None, dgdot=None) if name.endswith("_fd") else prob
    return load_fixture(name)


class TestExactShootingJacobian:
    """One sensitivity march gives the residual and the exact Jacobian of the RK4 map."""

    PROBLEMS = ["rotating_surface", "rotating_surface_2nd", "commuting_h", "semilinear_4x4",
                "scalar_linear", "python_callables", "second_order_rates", "second_order_rates_fd",
                "second_order_rates_bare"]

    @staticmethod
    def point(runner, lam=0.3):
        state = 0.1 * np.array([1.0, -0.5, 0.3, 0.2])[: runner.state_dim]
        return np.concatenate([[lam], state])

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_matches_central_differences(self, name):
        runner = periodic._ShootingRunner(_shooting_problem(name), 32)
        z = self.point(runner)
        _, jac = runner.linearize(z[0], z[1:])
        ref = central_jacobian(lambda w: runner.shoot(w[0], w[1:]), z)
        assert jac.shape == (runner.state_dim, 1 + runner.state_dim)
        assert norm_inf(jac - ref) <= 1e-6 * max(1.0, norm_inf(ref))

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_residual_is_the_plain_march_bit_for_bit(self, name):
        runner = periodic._ShootingRunner(_shooting_problem(name), 16)
        z = self.point(runner)
        residual, _ = runner.linearize(z[0], z[1:])
        assert residual.tobytes() == runner.shoot(z[0], z[1:]).tobytes()

    @pytest.mark.parametrize("lam, x0", [(1.0, 0.0), (0.5, 0.3), (2.0, -0.7)])
    def test_scalar_linear_closed_form(self, lam, x0):
        # dx/dt = lam (cos t - x): x(T) = c + (x0 - c) exp(-lam T), c = lam^2 / (1 + lam^2)
        runner = periodic._ShootingRunner(load_fixture("scalar_linear"))
        _, jac = runner.linearize(lam, np.array([x0]))
        decay = np.exp(-lam * TWO_PI)
        c, dc = lam**2 / (1 + lam**2), 2 * lam / (1 + lam**2) ** 2
        d_lam = dc * (1 - decay) - (x0 - c) * TWO_PI * decay
        assert abs(jac[0, 1] - (decay - 1.0)) <= 1e-7
        assert abs(jac[0, 0] - d_lam) <= 1e-7

    def test_one_march_per_point(self, monkeypatch):
        marches = []
        march = periodic._march
        monkeypatch.setattr(periodic, "_march", lambda *args: marches.append(1) or march(*args))
        runner = periodic._ShootingRunner(load_fixture("rotating_surface"), 16)
        z = self.point(runner)
        fun, jac = runner.newton_maps()
        first = fun(z)
        jac(z.copy())
        assert len(marches) == 1 and fun(z) is first
        z[1] = np.nextafter(z[1], 1.0)  # the next float is another point
        fun(z)
        assert len(marches) == 2

    def test_one_march_per_accepted_point(self, monkeypatch):
        # Every march runs at a point linearize has not seen: a pair comes
        # from the march that converged it, and find_tpair at lam = 0
        # marches once.
        runner_cls = periodic._ShootingRunner
        march, linearize, make_tpair = periodic._march, runner_cls.linearize, runner_cls.make_tpair
        marches, points, in_pairs = [], set(), []

        def seen(runner, lam, state0):
            points.add(np.append(lam, state0).tobytes())
            return linearize(runner, lam, state0)

        def counted_pair(runner, lam, state0):
            before = len(marches)
            pair = make_tpair(runner, lam, state0)
            in_pairs.append(len(marches) - before)
            return pair

        monkeypatch.setattr(periodic, "_march", lambda *args: marches.append(1) or march(*args))
        monkeypatch.setattr(runner_cls, "linearize", seen)
        monkeypatch.setattr(runner_cls, "make_tpair", counted_pair)
        box = Box(np.array([0.0, -2.0, -2.0]), np.array([5.0, 2.0, 2.0]))
        branch = continue_branch(load_fixture("rotating_surface"), np.zeros(3), 0.05, 4, box,
                                 integration_steps=32)
        assert branch.termination == "budget" and len(branch.pairs) == 5
        assert len(marches) == len(points) and in_pairs == [0, 0, 0, 0]
        del marches[:]
        assert find_tpair(scalar_problem(), 0.0, np.array([0.7])).is_trivial
        assert len(marches) == 1

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd", "semilinear_4x4"])
    def test_pair_is_the_plain_march_bit_for_bit(self, name):
        runner = periodic._ShootingRunner(_shooting_problem(name), 16)
        config = NewtonConfig(max_iters=30, tol_residual=1e-10)
        state = newton_solve(*runner.newton_maps(0.3), np.zeros(runner.state_dim), config)
        pair = runner.make_tpair(0.3, state)
        plain = periodic._trajectory(*plain_march(runner, 0.3, state))
        for column in ("times", "x", "y", "xdot", "ydot"):
            got, ref = getattr(pair.trajectory, column), getattr(plain, column)
            assert (got is ref is None) or got.tobytes() == ref.tobytes(), column
        assert (pair.trajectory.xdot is None) == (runner.prob.order == 1)
        assert pair.periodicity_residual == plain.periodicity_residual()
        assert pair.constraint_residual == plain.constraint_residual(runner.sys)

    def test_branch_tangent_makes_no_march(self, monkeypatch):
        counts = {"marches": 0, "in_tangent": 0}
        march, tangent = periodic._march, periodic._branch_tangent

        def counted_march(*args):
            counts["marches"] += 1
            return march(*args)

        def counted_tangent(*args):
            before = counts["marches"]
            t = tangent(*args)
            counts["in_tangent"] += counts["marches"] - before
            return t

        monkeypatch.setattr(periodic, "_march", counted_march)
        monkeypatch.setattr(periodic, "_branch_tangent", counted_tangent)
        box = Box(np.array([0.0, -2.0]), np.array([5.0, 2.0]))
        branch = continue_branch(load_fixture("scalar_linear"), np.zeros(2), 0.2, 4, box,
                                 integration_steps=32)
        assert branch.termination == "budget" and len(branch.pairs) == 5
        assert counts["in_tangent"] == 0

    def test_no_finite_differences_on_the_shooting_map(self, monkeypatch):
        import daecont.linalg as linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("finite differences on a shooting residual")

        monkeypatch.setattr(linalg, "fd_jacobian", forbidden)
        monkeypatch.setattr(periodic, "newton_solve", lambda fun, jac, *rest: (
            linalg.newton_solve(fun, jac, *rest) if jac is not None else forbidden()))
        box = Box(np.array([0.0, -2.0, -2.0]), np.array([5.0, 2.0, 2.0]))
        branch = continue_branch(load_fixture("rotating_surface"), np.zeros(3), 0.05, 3, box,
                                 integration_steps=32)
        assert branch.termination == "budget" and len(branch.pairs) == 4
        assert find_tpair(load_fixture("scalar_linear"), 1.0, np.array([0.0])).lam == 1.0
