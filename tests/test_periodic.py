import ast
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from daecont import kernel, periodic
from daecont.degree import Box, averaged_map_fn
from daecont.errors import (
    DaecontError,
    EvaluationError,
    NoConvergenceError,
    NonfiniteResultError,
    SeedRejectedError,
    SingularMatrixError,
    SingularMonodromyError,
)
from daecont.fixtures import load_fixture, problem_text
from daecont.linalg import NewtonConfig, newton_solve, norm_inf, quadrature_periodic
from daecont.paths import MatrixPath
from daecont.probfile import build_problem, expr_path, parse_problem
from daecont.semilinear import reduce_semilinear
from daecont.periodic import (
    branch_seeds,
    consistent_init,
    continue_branch,
    find_tpair,
    integrate,
)
from daecont.transform import DaeProblem1, fixed_frame
from oracles import (
    central_jacobian,
    constraint_residual,
    fixed_frame_at,
    fixed_frame_march,
    frame_pairs,
    march_over,
    node_records,
    raw_march,
    shoot,
    shooting_residual,
    solve_constraint,
)

TWO_PI = 2.0 * np.pi
# The float record evaluates g at the pulled-back floats where the numpy
# residual evaluates it at numpy's products A x and B y, which may fuse
# multiply-adds: the two g values differ by rounding of terms of size
# O(1) on the fixtures (measured at most 1.4e-17 on their branches).
RESIDUAL_TOL = 1e-14


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
    # the stepper and nodes of one plain fixed-frame march over a period
    stepper = periodic.March(runner.sys, lam)
    return stepper, runner._run(stepper, np.asarray(state0, dtype=float).tolist())[0]


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

    @pytest.mark.parametrize("h", [0.0, -0.0, -TWO_PI / 16])
    def test_step_must_be_positive(self, h):
        with pytest.raises(ValueError, match=f"^step {h!r} is not positive$"):
            integrate(scalar_problem(), 1.0, np.array([0.0]), h=h)

    @pytest.mark.parametrize("h", [1e-300, 5e-324, TWO_PI / (periodic.MAX_STEPS + 1)])
    def test_step_count_is_capped(self, h):
        with pytest.raises(ValueError, match="more than"):
            integrate(scalar_problem(), 1.0, np.array([0.0]), h=h)
        assert periodic._steps_for(TWO_PI, TWO_PI / periodic.MAX_STEPS) == periodic.MAX_STEPS

    def test_constraint_residual_at_nodes(self):
        prob = load_fixture("rotating_surface")
        traj = integrate(prob, 1.0, np.array([0.3, 0.1]), h=TWO_PI / 128)
        assert constraint_residual(traj, prob) <= 1e-10

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

    @pytest.mark.parametrize("name", ["commuting_h", "rotating_surface", "rotating_surface_2nd",
                                      "scalar_linear", "semilinear_4x4"])
    def test_pair_residuals_match_the_numpy_residual(self, name):
        # every pair's residual, the trivial pair's included, comes from the
        # float record, within RESIDUAL_TOL of the numpy residual of its nodes
        sys = fixed_frame(_shooting_problem(name))
        n = sys.order * sys.m
        box = Box(np.concatenate([[0.0], -2.0 * np.ones(n)]), np.concatenate([[5.0], 2.0 * np.ones(n)]))
        seed = branch_seeds(sys, Box.cube(2.0, sys.m + sys.s))[0].point
        branch = continue_branch(sys, seed, 0.1, 3, box, integration_steps=32)
        assert branch.pairs[0].is_trivial and len(branch.pairs) == 4
        for pair in branch.pairs:
            reference = constraint_residual(pair.trajectory, sys)
            assert abs(pair.constraint_residual - reference) <= RESIDUAL_TOL

    def test_lambda_stays_nonnegative(self):
        prob = load_fixture("scalar_linear")
        box = Box(np.array([0.0, -2.0]), np.array([10.0, 2.0]))
        branch = continue_branch(prob, np.zeros(2), 0.1, 5, box)
        assert all(p.lam >= 0.0 for p in branch.pairs)


class TestHermiteStart:
    """The corrector's start on a circle of radius R in (lam, xi), by arclength s."""

    R, CENTER = 1.3, np.array([0.2, -0.4])

    def point(self, s):
        return self.CENTER + self.R * np.array([np.cos(s / self.R), np.sin(s / self.R)])

    def tangent(self, s):
        return np.array([-np.sin(s / self.R), np.cos(s / self.R)])

    def off_circle(self, w):
        return abs(math.hypot(*(w - self.CENTER)) - self.R)

    def starts(self, ds, s0=0.7):
        # (Hermite start, z_lin) of a step ds past s0 + ds, the last accepted
        # points at s0 and s0 + ds
        z, t = self.point(s0 + ds), self.tangent(s0 + ds)
        return periodic._hermite_start((self.point(s0), self.tangent(s0)), z, t, ds), z + ds * t

    def test_error_shrinks_16_times_per_halving(self):
        # fourth order in ds against the linear predictor's second
        starts = [self.starts(ds) for ds in (0.1, 0.05, 0.025)]
        for (hermite, linear), (hermite_half, linear_half) in zip(starts, starts[1:]):
            assert 14.0 <= self.off_circle(hermite) / self.off_circle(hermite_half) <= 18.0
            assert 3.8 <= self.off_circle(linear) / self.off_circle(linear_half) <= 4.2
        assert self.off_circle(starts[0][0]) <= 1e-5 <= 1e-3 <= self.off_circle(starts[0][1])

    @pytest.mark.parametrize("cubic", [True, False], ids=["hermite", "quadratic"])
    def test_start_lies_on_the_hyperplane(self, cubic):
        z_prev, z, t = self.point(0.7), self.point(0.8), self.tangent(0.8)
        previous = (z_prev, self.tangent(0.7) if cubic else None)
        start = periodic._hermite_start(previous, z, t, 0.1)
        z_lin = z + 0.1 * t
        assert abs(t @ (start - z_lin)) <= 1e-16 and norm_inf(start - z_lin) >= 1e-3

    @pytest.mark.parametrize("previous", [
        lambda z: (z.copy(), np.array([0.0, 1.0])),  # a zero chord
        lambda z: (z - 0.1, np.array([np.nan, 1.0])),  # a non-finite start
        lambda z: (z - 1e-160, None),  # a chord so short that the bend overflows
    ], ids=["zero_chord", "nan_tangent", "tiny_chord"])
    def test_falls_back_to_the_linear_predictor(self, previous):
        z, t = self.point(0.8), self.tangent(0.8)
        start = periodic._hermite_start(previous(z), z, t, 0.1)
        assert start.tobytes() == (z + 0.1 * t).tobytes()

    def test_half_step_retry_starts_from_the_linear_predictor(self, monkeypatch):
        # the first corrector fails on purpose; the retry at ds / 2 starts
        # from z + ds / 2 * t and converges on the circle
        starts, solve = [], periodic.newton_solve

        def failing_once(fun, jac, x0, cfg):
            starts.append(x0)
            if len(starts) == 1:
                raise NoConvergenceError("injected")
            return solve(fun, jac, x0, cfg)

        monkeypatch.setattr(periodic, "newton_solve", failing_once)
        fun = lambda w: np.array([(w - self.CENTER) @ (w - self.CENTER) - self.R**2])
        jac = lambda w: 2.0 * (w - self.CENTER)[None, :]
        previous, z, t, ds = (self.point(0.7), self.tangent(0.7)), self.point(0.8), self.tangent(0.8), 0.1
        box = Box(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        w = periodic._arclength_step(fun, jac, previous, z, t, ds, box)
        assert starts[0].tobytes() == periodic._hermite_start(previous, z, t, ds).tobytes()
        assert starts[1].tobytes() == (z + 0.5 * ds * t).tobytes()
        assert self.off_circle(w) <= 1e-10 and abs(t @ (w - starts[1])) <= 1e-15


class TestSecondOrder:
    def test_raw_and_fixed_agree(self):
        prob = load_fixture("rotating_surface_2nd")
        x0 = np.array([0.2, -0.1])
        raw = integrate(prob, 0.5, x0, h=prob.period / 512)
        fix = integrate(prob, 0.5, x0, h=prob.period / 512, mode="fixed")
        assert norm_inf(raw.x - fix.x) <= 1e-6
        assert norm_inf(raw.xdot - fix.xdot) <= 1e-6
        assert constraint_residual(raw, prob) <= 1e-10

    def test_modes_agree_with_moving_b_and_drifts(self):
        # the order-2 drift formulas and the d(B^-1) pull-back against the
        # raw march's H1, H2 and dB
        prob = _shooting_problem("moving_b_2nd")
        x0 = np.array([0.2, -0.1])
        raw = integrate(prob, 0.5, x0, h=prob.period / 512)
        fix = integrate(prob, 0.5, x0, h=prob.period / 512, mode="fixed")
        for column in ("x", "y", "xdot", "ydot"):
            assert norm_inf(getattr(raw, column) - getattr(fix, column)) <= 1e-6, column

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


    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    @pytest.mark.parametrize("mode", ["raw", "fixed"])
    def test_given_start_in_either_mode(self, name, mode):
        # a frame that is not the identity at 0 (A one radian ahead, B = 2 +
        # sin(t + 1)): a consistent y0 gives the trajectory that y0=None
        # gives, and the start check reads the raw A(0) and B(0)
        text = (problem_text(name)
                .replace("cos(t), -sin(t)\nsin(t), cos(t)", "cos(t + 1), -sin(t + 1)\nsin(t + 1), cos(t + 1)")
                .replace("[B]\n1\n", "[B]\n2 + sin(t + 1)\n"))
        prob = build_problem(parse_problem(text))
        x0, h = np.array([0.3, 0.1]), TWO_PI / 16
        y0 = consistent_init(prob, 0.0, x0, np.zeros(1))
        solved, given = (integrate(prob, 0.5, x0, y, h=h, mode=mode) for y in (None, y0))
        for column in ("times", "x", "y", "xdot", "ydot"):
            assert bits(getattr(solved, column)) == bits(getattr(given, column)), column
        residual = norm_inf(prob.g(prob.A(0.0) @ x0, prob.B(0.0) @ (y0 + 1.0)))
        with pytest.raises(ValueError, match=re.escape(
                f"initial state violates the constraint (residual {residual:.3e}); ")):
            integrate(prob, 0.5, x0, y0 + 1.0, h=h, mode=mode)


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


class TestFrameGrid:
    """A shooting runner fills the frames of its one march grid in one call,
    and its marches, records and trivial pair read frames that are filled
    already, as an averaged map reads its own; a system keeps none."""

    @staticmethod
    def grid_times(h, nsteps):
        # the running sum a march steps by: each step's midpoint and end
        times = [0.0]
        for _ in range(nsteps):
            times += [times[-1] + 0.5 * h, times[-1] + h]
        return times

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_nodes_carry_the_frames_of_the_grid(self, name):
        runner = periodic._ShootingRunner(load_fixture(name), 16)
        _, nodes = plain_march(runner, 0.5, np.zeros(runner.state_dim))
        sys = runner.sys
        times, frames = runner.grid
        assert times == self.grid_times(runner.h, 16) and len(frames) == 2 * 16 + 1
        size = sys.order * (sys.m**2 + sys.s**2)  # A and B, for order 2 dA and d(B^-1) too
        assert all(len(frame) == size and {type(v) for v in frame} == {float} for frame in frames)
        assert [t for t, *_ in nodes] == times[::2]
        assert all(node[3] is frame for node, frame in zip(nodes, frames[::2]))

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_flows_make_no_path_calls(self, name, path_calls):
        runner = periodic._ShootingRunner(load_fixture(name), 16)
        del path_calls[:]
        state0 = np.full(runner.state_dim, 0.1)
        first = shoot(runner, 0.5, state0)
        # one evaluation of the frame (and, for order 2, its rates) per march time
        assert len(path_calls) == 2 * runner.sys.order * (2 * 16 + 1)
        del path_calls[:]
        periodic._trajectory(*plain_march(runner, 0.5, state0))  # records read the nodes' frames
        runner.linearize(0.7, state0)
        second = shoot(runner, 0.5, state0)
        assert path_calls == [] and first.tobytes() == second.tobytes()

    def test_pair_residuals_read_the_nodes_frames(self, path_calls):
        runner = periodic._ShootingRunner(load_fixture("rotating_surface"), 16)
        stepper, nodes = plain_march(runner, 0.5, np.array([0.3, 0.1]))
        del path_calls[:]
        traj, residual = periodic._trajectory(stepper, nodes)
        assert path_calls == [] and runner.make_tpair(0.0, np.zeros(2)).constraint_residual == 0.0
        assert path_calls == []
        assert abs(residual - constraint_residual(traj, runner.prob)) <= RESIDUAL_TOL
        assert len(path_calls) == 2 * 17

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_trivial_pair_makes_no_path_call(self, name, path_calls):
        runner = periodic._ShootingRunner(load_fixture(name), 16)
        _, nodes = plain_march(runner, 0.0, np.zeros(runner.state_dim))
        del path_calls[:]
        pair = periodic._trivial_tpair(runner, np.zeros(3))
        assert path_calls == [] and pair.trajectory.times.tolist() == [t for t, *_ in nodes]
        assert pair.is_trivial and pair.constraint_residual == 0.0

    def test_grid_frame_equals_a_fresh_evaluation(self):
        runner = periodic._ShootingRunner(load_fixture("rotating_surface_2nd"), 16)
        times, frames = runner.grid
        t, frame = times[7], frames[7]  # the midpoint of the fourth step
        assert bits(frame) == bits(fixed_frame_at(fixed_frame(runner.prob), t))
        node = ([0.3, 0.1, -0.1, 0.4], [0.2])
        on_grid, fresh = (node_records(periodic.March(runner.sys, 0.5), [(t, *node, fr)])
                          for fr in (frame, fixed_frame_at(runner.sys, t)))
        assert bits(on_grid) == bits(fresh)

    def test_each_runner_fills_its_grid_once(self, path_calls):
        prob = load_fixture("rotating_surface")
        sys = fixed_frame(prob)
        first, second = periodic._ShootingRunner(sys, 16), periodic._ShootingRunner(sys, 16)
        del path_calls[:]
        shoot(first, 0.5, np.array([0.3, 0.1]))
        assert len(path_calls) == 2 * (2 * 16 + 1)
        del path_calls[:]
        assert len(second.grid[1]) == 2 * 16 + 1 and len(path_calls) == 2 * (2 * 16 + 1)
        del path_calls[:]
        assert first.grid[1] is not second.grid[1] and first.grid[1] == second.grid[1]
        shoot(first, 0.7, np.array([0.3, 0.1]))
        assert path_calls == []

    def test_a_runner_made_after_b_is_replaced_reads_the_new_b(self):
        prob = load_fixture("rotating_surface")
        before = periodic._ShootingRunner(prob, 16)
        frames = before.grid[1]
        prob.B = expr_path([["2"]], prob.period, name="B")
        after = periodic._ShootingRunner(prob, 16)
        assert [fr[4] for fr in after.grid[1]] == [2.0] * (2 * 16 + 1)
        assert [fr[:4] for fr in after.grid[1]] == [fr[:4] for fr in frames]
        assert before.grid[1] is frames and {fr[4] for fr in frames} == {1.0}

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd", "semilinear_4x4"])
    def test_one_call_per_grid(self, name, monkeypatch, path_times):
        # the grid's times are read by one call of the frame function, in
        # march order, and the marches read the grid
        prob = load_fixture(name)
        runner = periodic._ShootingRunner(reduce_semilinear(prob) if name == "semilinear_4x4" else prob, 16)
        sys, calls, make = runner.sys, [], periodic.frame_function

        def counted(*args, **kwargs):
            frames = make(*args, **kwargs)

            def called(times):
                calls.append(times := list(times))
                return frames(times)

            return called

        for module in (kernel, periodic):
            monkeypatch.setattr(module, "frame_function", counted)
        del path_times[:]
        times, frames = runner.grid
        assert times == self.grid_times(runner.h, 16) and calls == [times]
        assert path_times == [t for t in times for _ in range(2 * sys.order)]
        again = runner.grid
        assert again[0] is times and again[1] is frames and len(calls) == 1
        nodes = plain_march(runner, 0.5, np.full(runner.state_dim, 0.1))[1]
        runner.linearize(0.5, np.full(runner.state_dim, 0.1))
        assert [t for t, *_ in nodes] == times[::2] and len(calls) == 1

    def test_a_runner_of_other_steps_fills_its_own_grid(self, path_times):
        prob = load_fixture("rotating_surface")
        first, runner = periodic._ShootingRunner(prob, 16).grid, periodic._ShootingRunner(prob, 8)
        del path_times[:]
        second = runner.grid
        assert path_times == [t for t in second[0] for _ in range(2)]
        assert second[0] == self.grid_times(prob.period / 8, 8)
        assert bits(second[1][0]) == bits(first[1][0]) and bits(second[1][4]) == bits(first[1][8])

    def test_fixed_frame_integration_fills_its_grid_before_the_march(self, monkeypatch,
                                                                     path_calls):
        # order 1: A and B once at each of the 2N + 1 step and midpoint
        # times, in the grid that push_forward reads the start frame from,
        # and none in the march or when the nodes are pulled back
        march, counts = periodic.March.march, []

        def counted(*args):
            before = len(path_calls)
            nodes = march(*args)
            counts.append((len(path_calls) - before, len(path_calls)))
            return nodes

        monkeypatch.setattr(periodic.March, "march", counted)
        prob = load_fixture("rotating_surface")
        sys = fixed_frame(prob)
        monkeypatch.setattr(periodic, "fixed_frame", lambda model: sys)  # audited already
        del path_calls[:]
        traj = integrate(prob, 0.5, np.array([0.3, 0.1]), h=prob.period / 16, mode="fixed")
        (in_march, after_march), = counts
        assert in_march == 0 and len(path_calls) == after_march == 2 * (2 * 16 + 1)
        assert len(traj.times) == 17

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_fixed_frame_integration_reads_the_start_frame_from_the_grid(self, name,
                                                                         path_times):
        # at t = 0, past the frame audit: one evaluation of each frame entry
        # (A and B, and for order 2 their rates), the grid's first, which
        # push_forward and the march both read
        prob = load_fixture(name)
        fixed_frame(prob)
        audit = path_times.count(0.0)
        del path_times[:]
        integrate(prob, 0.5, np.array([0.3, 0.1]), h=prob.period / 16, mode="fixed")
        assert path_times.count(0.0) == audit + 2 * prob.order

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_fixed_frame_integration_builds_no_raw_kernel(self, name, monkeypatch):
        # the start is solved in the frame, by the march's own stepper
        build, raw = kernel._build, []
        monkeypatch.setattr(kernel, "_build", lambda *args: raw.append(args[4]) or build(*args))
        prob = load_fixture(name)
        integrate(prob, 0.5, np.array([0.3, 0.1]), h=prob.period / 16, mode="fixed")
        assert raw == [False]

    @pytest.mark.parametrize("name, bound", [("rotating_surface", 1028),
                                             ("rotating_surface_2nd", 2056)])
    def test_raw_integration_evaluates_each_march_time_once(self, name, bound, path_calls):
        # the raw march reads A and B (order 2: and their rates) once at
        # each of the 2N + 1 march times, plus the start solve, which reads
        # the frame at t = 0 (2 evaluations for order 1, 4 for order 2); an
        # order-2 node takes its rate right after its resolve, from the
        # frame the resolve read; N = 256.
        # Before the march, the test of B samples the raw frame (A and B,
        # for order 2 their rates too) at the 64 audit-grid times.
        prob = load_fixture(name)
        del path_calls[:]
        integrate(prob, 0.5, np.zeros(prob.m))
        assert len(path_calls) == bound + 2 * prob.order * 64

    def test_a_branch_leaves_its_system_as_it_was(self):
        sys = fixed_frame(load_fixture("rotating_surface"))
        box = Box(np.array([0.0, -2.0, -2.0]), np.array([1.0, 2.0, 2.0]))
        branch = continue_branch(sys, np.zeros(3), 0.1, 3, box, integration_steps=16)
        assert branch.termination == "budget" and len(branch.pairs) == 4
        assert list(vars(sys)) == ["problem", "D0", "D1", "M"]

    def test_an_averaged_map_fills_its_frames_once(self, path_calls):
        sys = fixed_frame(load_fixture("scalar_linear"))
        del path_calls[:]
        omega = averaged_map_fn(sys)
        assert len(path_calls) == 2 * 64
        del path_calls[:]
        first = omega(np.array([0.3, 0.2]))
        omega(np.array([-0.5, 0.1]))
        assert path_calls == [] and omega(np.array([0.3, 0.2])).tobytes() == first.tobytes()


THREE_CONSTRAINTS = f"""
[problem]
kind = dae1
m = 2
s = 3
period = {TWO_PI!r}

[A]
cos(t), -sin(t)
sin(t), cos(t)

[B]
1, 0.5, 0
0, 1, 0
0, 0.2, 1

[g]
q1^3 + q1 - p1^2
q2^3 + q2 - p2^2 - q1
q3^3 + q3 - p1*p2

[f]
cos(t) - x1 + 0.3*y1
-x2 + 0.2*y2*y3
"""


# constraints whose march-level blocks fail, and the error each march
# raises, which running those blocks once per march must keep: g_q
# constant and singular (the start at 0 is consistent), and g_p not finite
MARCH_LEVEL_FAILURES = {
    "singular_g_q": (problem_text("rotating_surface").replace("s = 1", "s = 2")
                     .replace("[B]\n1\n", "[B]\n1, 0\n0, 1\n")
                     .replace("q^3 + q - p1^2 - 2*p2^2", "p1 + q1 + q2\np2 + q1 + q2")
                     .replace("cos(t) - x1\n-x2", "cos(t) - x1 + y1\n-x2 + y2"),
                     SingularMatrixError, "2x2 system is singular"),
    "nonfinite_g_p": (problem_text("rotating_surface").replace("q^3 + q - p1^2 - 2*p2^2",
                                                               "q^3 + q - 1e200*1e200*p1"),
                      NonfiniteResultError, "constraint residual is nan: a model value is not finite"),
}

# singular_g_q with 1e300 on the diagonal of g_q: its 2x2 pivot bounds,
# (PIVOT_REL * 1e300)**2, and its determinant overflow to inf
HUGE_G_Q = MARCH_LEVEL_FAILURES["singular_g_q"][0].replace(
    "p1 + q1 + q2\np2 + q1 + q2", "p1 + 1e300*q1 + q2\np2 + q1 + 1e300*q2")


def _shooting_problem(name):
    # A problem fixture as the shooting layer sees it (semilinear reduced),
    # or one of the variants that exercise the remaining Jacobian terms.
    if name == "semilinear_4x4":
        return reduce_semilinear(load_fixture(name))
    if name.startswith("three_constraints"):
        # s = 3: the march solves its 3x3 systems with solve_linear
        kind = "dae2" if name.endswith("_2nd") else "dae1"
        return build_problem(parse_problem(THREE_CONSTRAINTS.replace("dae1", kind)))
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
    if name == "moving_b_2nd":
        # order 2 with B(t) = 2 + sin(t) and drifts H1, H2 that commute with
        # the rotation: the rates see dB, and the drifts enter both marches
        text = problem_text("rotating_surface_2nd").replace("[B]\n1\n", "[B]\n2 + sin(t)\n")
        text += "\n[H1]\n-0.1, 0.2\n-0.2, -0.1\n\n[H2]\n-0.5, 0\n0, -0.5\n"
        return build_problem(parse_problem(text))
    if name == "linear_constraint_2nd":
        # order 2 with the linear constraint q - p1 + 0.5 p2 (g_p, g_q and
        # the rate's blocks constant), a moving B, and f that sees y
        text = problem_text("rotating_surface_2nd").replace("[B]\n1\n", "[B]\n2 + sin(t)\n")
        text = text.replace("q^3 + q - p1^2 - 2*p2^2", "q - p1 + 0.5*p2")
        return build_problem(parse_problem(text.replace("cos(t) - x1", "cos(t) - x1 + 0.3*y1")))
    if name == "graph_constraint":
        # q = p1^2: g_q constant, g_p not; f sees y
        text = problem_text("rotating_surface").replace("q^3 + q - p1^2 - 2*p2^2", "q - p1^2")
        return build_problem(parse_problem(text.replace("cos(t) - x1", "cos(t) - x1 + 0.3*y1")))
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
                "second_order_rates_bare", "three_constraints", "three_constraints_2nd", "moving_b_2nd"]

    @staticmethod
    def point(runner, lam=0.3):
        state = 0.1 * np.array([1.0, -0.5, 0.3, 0.2])[: runner.state_dim]
        return np.concatenate([[lam], state])

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_matches_central_differences(self, name):
        runner = periodic._ShootingRunner(_shooting_problem(name), 32)
        z = self.point(runner)
        _, jac = runner.linearize(z[0], z[1:])
        ref = central_jacobian(lambda w: shoot(runner, w[0], w[1:]), z)
        assert jac.shape == (runner.state_dim, 1 + runner.state_dim)
        assert norm_inf(jac - ref) <= 1e-6 * max(1.0, norm_inf(ref))

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_residual_is_the_plain_march_bit_for_bit(self, name):
        runner = periodic._ShootingRunner(_shooting_problem(name), 16)
        z = self.point(runner)
        residual, _ = runner.linearize(z[0], z[1:])
        assert residual.tobytes() == shoot(runner, z[0], z[1:]).tobytes()

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
        march = periodic.March.march
        monkeypatch.setattr(periodic.March, "march", lambda *args: marches.append(1) or march(*args))
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
        march, linearize, make_tpair = periodic.March.march, runner_cls.linearize, runner_cls.make_tpair
        marches, points, in_pairs = [], set(), []

        def seen(runner, lam, state0):
            points.add(np.append(lam, state0).tobytes())
            return linearize(runner, lam, state0)

        def counted_pair(runner, lam, state0):
            before = len(marches)
            pair = make_tpair(runner, lam, state0)
            in_pairs.append(len(marches) - before)
            return pair

        monkeypatch.setattr(periodic.March, "march", lambda *args: marches.append(1) or march(*args))
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

    def test_jacobian_reuse_radius(self):
        # a point within JACOBIAN_REUSE * (1 + |z|_inf) of the last
        # sensitivity march gets a plain march and that march's Jacobian;
        # a point outside gets a sensitivity march of its own
        runner = periodic._ShootingRunner(load_fixture("rotating_surface"), 16)
        z = self.point(runner)
        _, jac = runner.linearize(z[0], z[1:])
        radius = periodic.JACOBIAN_REUSE * (1.0 + norm_inf(z))
        near, far = z + [0.0, 0.9 * radius, 0.0], z + [0.0, 0.0, -1.1 * radius]
        residual, reused = runner.linearize(near[0], near[1:])
        assert reused is jac and residual.tobytes() == shoot(runner, near[0], near[1:]).tobytes()
        residual, fresh = runner.linearize(far[0], far[1:])
        assert fresh is not jac and residual.tobytes() == shoot(runner, far[0], far[1:]).tobytes()
        back = far + [0.0, 0.0, 0.5 * radius]  # within the radius of far, the last sensitivity march
        assert runner.linearize(back[0], back[1:])[1] is fresh

    def test_find_tpair_keeps_its_bits_at_a_reused_jacobian(self, monkeypatch):
        # from a guess 1e-7 off the pair, Newton's second point is within
        # periodic.JACOBIAN_REUSE of its first: a plain march with the first
        # point's Jacobian converges there, and the pair keeps the bits of a
        # sensitivity march, since no tangent is formed
        prob = load_fixture("rotating_surface")
        guess = find_tpair(prob, 0.5, np.zeros(2)).xi0 + 1e-7
        rows, march = [], periodic.March.march
        monkeypatch.setattr(periodic.March, "march",
                            lambda self, state, *args: rows.append(len(state) // 2) or march(self, state, *args))
        reused = find_tpair(prob, 0.5, guess)
        monkeypatch.setattr(periodic, "JACOBIAN_REUSE", 0.0)
        fresh = find_tpair(prob, 0.5, guess)
        assert rows == [4, 1, 4, 4]
        assert reused.xi0.tobytes() == fresh.xi0.tobytes()
        for column in ("x", "y"):
            assert getattr(reused.trajectory, column).tobytes() == getattr(fresh.trajectory, column).tobytes()
        assert (reused.periodicity_residual, reused.constraint_residual) == (
            fresh.periodicity_residual, fresh.constraint_residual)

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd", "semilinear_4x4"])
    def test_pair_is_the_plain_march_bit_for_bit(self, name):
        runner = periodic._ShootingRunner(_shooting_problem(name), 16)
        config = NewtonConfig(max_iters=30, tol_residual=1e-10)
        state = newton_solve(*runner.newton_maps(0.3), np.zeros(runner.state_dim), config)
        pair = runner.make_tpair(0.3, state)
        plain, residual = periodic._trajectory(*plain_march(runner, 0.3, state))
        for column in ("times", "x", "y", "xdot", "ydot"):
            got, ref = getattr(pair.trajectory, column), getattr(plain, column)
            assert (got is ref is None) or got.tobytes() == ref.tobytes(), column
        assert (pair.trajectory.xdot is None) == (runner.prob.order == 1)
        assert pair.periodicity_residual == plain.periodicity_residual()
        assert pair.constraint_residual == residual
        assert abs(residual - constraint_residual(plain, runner.sys)) <= RESIDUAL_TOL

    def test_branch_tangent_makes_no_march(self, monkeypatch):
        counts = {"marches": 0, "in_tangent": 0}
        march, tangent = periodic.March.march, periodic._branch_tangent

        def counted_march(*args):
            counts["marches"] += 1
            return march(*args)

        def counted_tangent(*args):
            before = counts["marches"]
            t = tangent(*args)
            counts["in_tangent"] += counts["marches"] - before
            return t

        monkeypatch.setattr(periodic.March, "march", counted_march)
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


class TestFloatMarch:
    """The fixed-frame march on floats against the numpy march it replaced.

    Float sums of products may differ from numpy's BLAS products, which
    fuse multiply-adds, in the last bit; the two marches agree within 1e-13
    of the values' scale.  Where the model forms a derivative by forward
    differences (step 1e-7 * (1 + |z|)), a last-bit change of its argument
    moves the difference by about 1e-9 of the value: such derivatives in
    the sensitivity rows, and on ``second_order_rates_bare`` the
    constraint blocks that the march's ``etadot`` solve reads, are held to
    1e-8 instead.
    """

    PROBLEMS = TestExactShootingJacobian.PROBLEMS
    DIFFERENCED = {"python_callables", "second_order_rates_fd", "second_order_rates_bare"}

    @staticmethod
    def marches(name, sensitivity):
        # the float march of a shooting runner and the numpy reference, from
        # one start, on one grid: (float records, float end, numpy records, numpy end)
        runner = periodic._ShootingRunner(_shooting_problem(name), 64)
        z = TestExactShootingJacobian.point(runner, lam=0.7)
        stepper = periodic.March(runner.sys, z[0], sensitivity)
        n = runner.state_dim
        start = z[1:].tolist() + ([0.0] * n + np.eye(n).ravel().tolist() if sensitivity else [])
        eta0 = stepper.resolve(0.0, start, [0.0] * runner.prob.s)
        nodes, end = stepper.march(start, eta0, runner.h, runner.grid[1])
        ref_nodes, ref_end = fixed_frame_march(fixed_frame(runner.prob), z[0], z[1:], eta0,
                                               runner.h, runner.nsteps, sensitivity)
        return node_records(stepper, nodes), np.array(end), ref_nodes, ref_end

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_plain_march_matches_numpy_reference(self, name):
        records, end, ref_records, ref_end = self.marches(name, sensitivity=False)
        tol = 1e-8 if name == "second_order_rates_bare" else 1e-13
        assert len(records) == len(ref_records) == 65
        for column in range(5):
            got = [r[column] for r in records]
            if got[0] is None:
                assert all(r[column] is None for r in ref_records)
                continue
            ref = np.array([r[column] for r in ref_records])
            assert norm_inf(np.array(got) - ref) <= tol * max(1.0, norm_inf(ref)), column
        assert norm_inf(end - ref_end[0]) <= tol * max(1.0, norm_inf(ref_end[0]))

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_sensitivity_march_matches_numpy_reference(self, name):
        records, end, ref_records, ref_end = self.marches(name, sensitivity=True)
        tol = 1e-8 if name in self.DIFFERENCED else 1e-13
        ref_end = ref_end.ravel()
        assert norm_inf(end - ref_end) <= tol * max(1.0, norm_inf(ref_end))
        plain = self.marches(name, sensitivity=False)
        assert records == plain[0] and end[: plain[1].size].tobytes() == plain[1].tobytes()


def called_through(prob):
    # a copy of prob whose compiled models are plain callables: they carry
    # no fragments, so the kernel calls them through its adapter
    names = ["f", "df", "g", "d1g", "d2g"] + (["dgdot"] if prob.order == 2 else [])
    plain = lambda fn: lambda *args: fn(*args)
    return replace(prob, **{name: plain(getattr(prob, name)) for name in names})


def bits(values) -> bytes:
    # the bytes of every float in nested tuples and lists, None skipped
    flat = []

    def walk(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif value is not None:
            flat.append(value)

    walk(values)
    return np.array(flat, dtype=float).tobytes()


class TestInlinedModels:
    """The kernel inlines compiled trees with their functions' arithmetic.

    Each march runs on a fixture, whose models are inlined, and on a copy
    whose models are plain callables, which the kernel calls through its
    adapter: nodes, records and end states agree bit for bit, so inlining
    reorders no operation.
    """

    FIXTURES = ["commuting_h", "rotating_surface", "rotating_surface_2nd", "scalar_linear",
                "semilinear_4x4", "second_order_rates", "moving_b_2nd", "three_constraints",
                "linear_constraint_2nd", "graph_constraint"]

    @staticmethod
    def march(prob, kind):
        # (nodes, end) of a raw march, or (records, end) of a plain or
        # sensitivity fixed-frame march, over 16 steps
        lam, nsteps = 0.7, 16
        h = prob.period / nsteps
        x0 = 0.1 * np.array([1.0, -0.5, 0.3, 0.2])[: prob.m]
        state0 = x0 if prob.order == 1 else np.concatenate([x0, 0.1 * np.array([0.4, -0.2])[: prob.m]])
        if kind == "raw":
            y0 = consistent_init(prob, 0.0, x0, np.zeros(prob.s))
            return march_over(periodic.March(prob, lam), state0.tolist(), y0.tolist(), h, nsteps)
        stepper = periodic.March(fixed_frame(prob), lam, kind == "sensitivity")
        n = state0.size
        start = state0.tolist() + ([0.0] * n + np.eye(n).ravel().tolist() if kind == "sensitivity" else [])
        nodes, end = march_over(stepper, start, stepper.resolve(0.0, start, [0.0] * prob.s), h, nsteps)
        return node_records(stepper, nodes), end

    @pytest.mark.parametrize("kind", ["raw", "plain", "sensitivity"])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_inlined_is_called_through_bit_for_bit(self, name, kind):
        prob = _shooting_problem(name)
        copy = called_through(prob)
        assert hasattr(prob.g, "fragments") and not hasattr(copy.g, "fragments")
        (nodes, end), (ref_nodes, ref_end) = self.march(prob, kind), self.march(copy, kind)
        assert len(nodes) == len(ref_nodes) == 17
        assert bits(nodes) == bits(ref_nodes) and bits(end) == bits(ref_end)

    # the levels of J = df, g_p, g_q, e = -g_q^-1 g_p and K in each
    # fixture's sensitivity stage: a model's is that of the arguments its
    # trees read, a value's the highest of the values it reads
    LEVELS = {
        "commuting_h": ("march", "march", "node", "node", "node"),
        "rotating_surface": ("march", "node", "node", "node", "node"),
        "rotating_surface_2nd": ("march", "node", "node", "node", "node"),
        "scalar_linear": ("march", "march", "node", "node", "node"),
        "semilinear_4x4": ("time", "march", "march", "march", "time"),
        "second_order_rates": ("node", "node", "node", "node", "node"),
        "moving_b_2nd": ("march", "node", "node", "node", "node"),
        "three_constraints": ("node", "node", "node", "node", "node"),
        "linear_constraint_2nd": ("march", "march", "march", "march", "time"),
        "graph_constraint": ("march", "node", "march", "node", "node"),
    }

    @staticmethod
    def levels(prob):
        # the levels of J, gp, gq, e and K in the sensitivity stage of prob's system
        sys = fixed_frame(prob)
        stage = kernel._stage(kernel._Models(kernel._models(sys)[1]), sys.order, sys.m, sys.s, True)
        names = {kernel.MARCH: "march", kernel.TIME: "time", kernel.NODE: "node"}
        return tuple(names[stage.levels[f"{value}0_0"]] for value in ("J", "gp", "gq", "e", "K"))

    def test_levels_of_the_sensitivity_values(self):
        assert sorted(self.LEVELS) == sorted(self.FIXTURES)
        for name, levels in self.LEVELS.items():
            assert self.levels(_shooting_problem(name)) == levels, name
        # a model called through the adapter is node-level
        assert self.levels(called_through(_shooting_problem("semilinear_4x4"))) == ("node",) * 5


class TestOneCallPerLoop:
    """A loop over nodes runs inside the emitted code: a trajectory is one
    records call, an averaged-map value one forcing call (the work pins of
    the loops; the march is one call per march)."""

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd", "semilinear_4x4"])
    def test_a_fixed_frame_trajectory_is_one_records_call(self, name, kernel_calls):
        prob = _shooting_problem(name)
        integrate(prob, 0.5, np.zeros(prob.m), mode="fixed")
        assert kernel_calls == {"resolve": 1, "march": 1, "records": 1}

    def test_a_pair_is_one_records_call(self, kernel_calls):
        runner = periodic._ShootingRunner(load_fixture("rotating_surface"), 16)
        runner.make_tpair(0.0, np.zeros(2))
        assert kernel_calls == {"resolve": 1, "march": 1, "records": 1}
        periodic._trivial_tpair(runner, np.zeros(3))
        assert kernel_calls == {"resolve": 1, "march": 1, "records": 2}

    @pytest.mark.parametrize("name", ["scalar_linear", "rotating_surface_2nd"])
    def test_an_averaged_map_value_is_one_forcing_call(self, name, kernel_calls):
        prob = load_fixture(name)
        omega = averaged_map_fn(fixed_frame(prob))
        omega(np.full(prob.m + prob.s, 0.1))
        assert kernel_calls == {"forcing": 1}
        omega(np.full(prob.m + prob.s, 0.2))
        assert kernel_calls == {"forcing": 2}

    @pytest.mark.parametrize("name", ["scalar_linear", "rotating_surface_2nd", "semilinear_4x4"])
    def test_the_mean_forcing_is_the_quadrature_bit_for_bit(self, name):
        sys = fixed_frame(_shooting_problem(name))
        stepper = periodic.March(sys, 0.0)
        xi, eta = [0.3, -0.2][: sys.m], [0.1, 0.4][: sys.s]
        ref = quadrature_periodic(lambda t: stepper.mean_forcing(frame_pairs(sys, [t]), xi, eta),
                                  sys.period, 64)
        pairs = frame_pairs(sys, [k * sys.period / 64 for k in range(64)])
        assert np.array(stepper.mean_forcing(pairs, xi, eta)).tobytes() == ref.tobytes()

    def test_the_mean_of_negative_zeros_is_negative_zero(self):
        # the sum starts at the first value, as the quadrature's does
        sys = fixed_frame(scalar_problem(f=lambda t, x, y: np.array([-0.0])))
        (mean,) = periodic.March(sys, 0.0).mean_forcing(frame_pairs(sys, [0.0, 1.0, 2.0]), [0.0], [0.0])
        assert math.copysign(1.0, mean) == -1.0


class TestNanResiduals:
    """A NaN residual propagates to the pair's residuals, and the pair
    checks reject it."""

    class Stepper:
        # a fixed-frame stepper whose records are given
        raw = False

        def __init__(self, records):
            self.records = lambda nodes: records

    @pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan], [0.0, math.nan]])
    def test_a_nan_node_residual_is_the_constraint_residual(self, residuals):
        records = ([0.0, 1.0], [0.1, 0.2], [0.3, 0.4], None, None, residuals)
        traj, residual = periodic._trajectory(self.Stepper(records), None)
        assert math.isnan(residual) and traj.y.tolist() == [[0.3], [0.4]]

    @pytest.mark.parametrize("column", ["x", "y", "xdot", "ydot"])
    def test_a_nan_column_is_the_periodicity_residual(self, column):
        columns = {name: np.zeros((3, 2)) for name in ("x", "y", "xdot", "ydot")}
        columns[column][-1, 1] = math.nan
        columns["x"][-1, 0] = 1.0  # a larger residual in another column
        assert math.isnan(periodic.Trajectory(np.arange(3.0), **columns).periodicity_residual())

    @pytest.mark.parametrize("which", ["periodicity", "constraint"])
    def test_a_pair_with_a_nan_residual_is_rejected(self, which, monkeypatch):
        trajectory = periodic._trajectory

        def with_nan(stepper, nodes):
            traj, residual = trajectory(stepper, nodes)
            if which == "periodicity":
                traj.y[-1] = math.nan
                return traj, residual
            return traj, math.nan

        runner = periodic._ShootingRunner(load_fixture("rotating_surface"), 16)
        monkeypatch.setattr(periodic, "_trajectory", with_nan)
        with pytest.raises(NoConvergenceError, match=f"^{which} residual nan exceeds "):
            runner.make_tpair(0.0, np.zeros(2))


def _kernel_sources(name):
    # the emitted sources of a fixture's raw, plain and sensitivity kernels
    prob = _shooting_problem(name)
    sys = fixed_frame(prob)
    return [kernel._emit(kernel._Models(kernel._models(model)[1]), model.order, model.m, model.s,
                         sensitivity, model is prob)
            for model, sensitivity in ((prob, False), (sys, False), (sys, True))]


class TestKernelSize:
    """The emitted source of every kernel and frame function of the problem
    fixtures, in lines: a change of the emitter that unrolls or repeats
    code shows here."""

    # March-level lines run once, at the start of the march (the stage's,
    # and semilinear_4x4's constant constraint Jacobian, which its start
    # solve sets at its start too), with no flag to guard them
    LINES = {  # raw, plain, sensitivity
        "commuting_h": (175, 216, 264),
        "rotating_surface": (175, 216, 264),
        "rotating_surface_2nd": (238, 272, 413),
        "scalar_linear": (166, 202, 216),
        "semilinear_4x4": (219, 259, 320),
    }
    FRAME_LINES = {  # raw, fixed frame at the problem's order
        "commuting_h": (21, 21),
        "rotating_surface": (21, 21),
        "rotating_surface_2nd": (36, 42),
        "scalar_linear": (18, 18),
        "semilinear_4x4": (24, 24),
    }

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_source_lines(self, name):
        sizes = tuple(len(source.splitlines()) for source in _kernel_sources(name))
        assert sizes == self.LINES[name]

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_no_march_flags(self, name):
        # march-level work has its place at the start of the march: no
        # emitted function keeps a flag for its first stage or solve
        for source in _kernel_sources(name):
            names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
            assert not names & {"first", "jac_new"}

    @pytest.mark.parametrize("name", sorted(FRAME_LINES))
    def test_frame_source_lines(self, name):
        prob = _shooting_problem(name)
        fragments = kernel._frame_fragments(prob.A, prob.B, prob.order)
        sizes = tuple(len(kernel._emit_frames(prob.m, prob.s, fixed and prob.order == 2, fragments).splitlines())
                      for fixed in (False, True))
        assert sizes == self.FRAME_LINES[name]


def _outcome(run):
    # the bytes of each value run returns, or its error's class and message
    try:
        return [np.asarray(v, dtype=float).tobytes() for v in run()]
    except DaecontError as exc:
        return type(exc), str(exc)


def _per_iteration(run):
    # _outcome(run) on kernels emitted with the constraint Newton's Jacobian
    # set in every iteration, as if none were march-level
    constant = kernel._constant_jacobian
    kernel._build.cache_clear()
    kernel._constant_jacobian = lambda models: False
    try:
        return _outcome(run)
    finally:
        kernel._constant_jacobian = constant
        kernel._build.cache_clear()


class TestConstantConstraintJacobian:
    """A march-level constraint Jacobian (the reduced ``semilinear_4x4``'s
    ``d2g``) is set once, at the start of a march or start solve, with the
    bits and the errors of one set in every iteration; raw, where the
    Jacobian ``g_q B`` reads the frame, so is a march-level ``g_q``."""

    @staticmethod
    def assigned(root, name="j0_0"):
        return [node for node in ast.walk(root) if isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == name for target in node.targets)]

    @pytest.mark.parametrize("name, constant", [("semilinear_4x4", True), ("rotating_surface", False)])
    @pytest.mark.parametrize("sensitivity", [False, True])
    def test_set_outside_the_newton_loop(self, name, constant, sensitivity):
        # resolve has one Newton loop, march two (the stage's and the step's
        # end); a constant j0_0 is assigned once in each, before its loops
        sys = fixed_frame(_shooting_problem(name))
        source = kernel._emit(kernel._Models(kernel._models(sys)[1]), sys.order, sys.m, sys.s, sensitivity, False)
        functions = {node.name: node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
        for function, solves in (("resolve", 1), ("march", 2)):
            loops = [node for node in ast.walk(functions[function])
                     if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(_MAX_ITER)"]
            assigned, inside = self.assigned(functions[function]), sum(len(self.assigned(loop)) for loop in loops)
            assert len(loops) == solves
            if constant:
                assert len(assigned) == 1 and inside == 0
                assert all(assigned[0].lineno < loop.lineno for loop in loops)
            else:
                assert len(assigned) == inside == solves

    def test_march_level_failure_before_the_first_step(self):
        # the singular constant g_q of the sensitivity's d eta / d xi raises
        # at the start of the march: no step reads its frames
        prob = fixed_frame(build_problem(parse_problem(MARCH_LEVEL_FAILURES["singular_g_q"][0])))
        stepper, read = periodic.March(prob, 0.5, sensitivity=True), []
        h = prob.period / 16
        frames = (read.append(frame) or frame for frame in stepper.frames(kernel.march_times(h, 16)))
        with pytest.raises(SingularMatrixError, match="^2x2 system is singular$"):
            stepper.march([0.0] * 8, [0.0, 0.0], h, frames)
        assert len(read) == 1

    @pytest.mark.parametrize("name", ["semilinear_4x4", "singular_g_q"])
    def test_bits_and_errors_of_a_jacobian_set_per_iteration(self, name):
        if name in MARCH_LEVEL_FAILURES:
            prob = build_problem(parse_problem(MARCH_LEVEL_FAILURES[name][0]))
        else:
            prob = _shooting_problem(name)
        start = np.array([0.3, -0.2])
        runs = [lambda: integrate(prob, 0.5, start, mode="fixed").to_dict().values(),
                lambda: periodic._ShootingRunner(prob, 16).linearize(0.5, start)]
        # a start residual inside the tolerance: a singular Jacobian keeps the
        # iterate; outside it, it raises
        for xi in ([1e-14, 0.0], [0.3, -0.2]):
            runs.append(lambda xi=xi: [periodic.March(fixed_frame(prob), 0.5).resolve(0.0, xi, [0.0, 0.0])])
        outcomes = [_outcome(run) for run in runs]
        assert outcomes == [_per_iteration(run) for run in runs]
        if name == "singular_g_q":
            assert outcomes[2] == [np.zeros(2).tobytes()]
            assert outcomes[1] == outcomes[3] == (SingularMatrixError, "2x2 system is singular")

    @staticmethod
    def functions(prob):
        # the emitted functions of the raw kernel of prob, by name
        source = kernel._emit(kernel._Models(kernel._models(prob)[1]), prob.order, prob.m, prob.s, False, True)
        return {node.name: node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}

    @pytest.mark.parametrize("name, constant", [
        ("semilinear_4x4", ["gq0_0"]),
        ("linear_constraint_2nd", ["gq0_0", "gp0_0"]),  # and the order-2 node rate's g_p
        ("rotating_surface_2nd", []),
    ])
    def test_raw_g_q_set_outside_the_newton_loop(self, name, constant):
        # the raw Newton's Jacobian g_q B reads the frame, but a march-level
        # g_q is set once, at the start of resolve and of march; a g_q that
        # reads the node is set in every iteration of each Newton loop
        functions = self.functions(_shooting_problem(name))
        for function, solves in (("resolve", 1), ("march", 2)):
            loops = [node for node in ast.walk(functions[function])
                     if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(_MAX_ITER)"]
            assert len(loops) == solves
            for target in ["gq0_0"] + constant[1:] * (function == "march"):
                assigned = self.assigned(functions[function], target)
                inside = sum(len(self.assigned(loop, target)) for loop in loops)
                if constant:
                    assert len(assigned) == 1 and inside == 0
                    assert all(assigned[0].lineno < loop.lineno for loop in loops)
                else:
                    assert inside == solves

    @pytest.mark.parametrize("name", ["semilinear_4x4", "linear_constraint_2nd", "singular_g_q"])
    def test_raw_bits_and_errors_of_a_g_q_set_per_iteration(self, name):
        # integrate --raw and raw start solves, at and off a consistent start
        if name in MARCH_LEVEL_FAILURES:
            prob = build_problem(parse_problem(MARCH_LEVEL_FAILURES[name][0]))
        else:
            prob = _shooting_problem(name)
        runs = [lambda: integrate(prob, 0.5, [0.3, -0.2], mode="raw").to_dict().values()]
        for xi in ([1e-14, 0.0], [0.3, -0.2]):
            runs.append(lambda xi=xi: [consistent_init(prob, 0.0, xi, np.zeros(prob.s))])
        outcomes = [_outcome(run) for run in runs]
        assert outcomes == [_per_iteration(run) for run in runs]
        if name == "singular_g_q":
            assert outcomes[1] == [np.zeros(2).tobytes()]
            assert outcomes[0] == outcomes[2] == (SingularMatrixError, "2x2 system is singular")


class TestRawMarch:
    """The raw march on floats against the numpy raw march it replaced.

    The bounds are the fixed frame's: 1e-13 of the values' scale, and 1e-8
    where the march reads a constraint block that the problem forms by
    forward differences (the Newton Jacobian, and for order 2 the rate).
    """

    PROBLEMS = TestExactShootingJacobian.PROBLEMS
    DIFFERENCED = {"python_callables", "second_order_rates_bare"}

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_matches_numpy_reference(self, name):
        prob = _shooting_problem(name)
        m, nsteps = prob.m, 64
        x0 = 0.1 * np.array([1.0, -0.5, 0.3, 0.2])[:m]
        state0 = x0 if prob.order == 1 else np.concatenate([x0, 0.1 * np.array([0.4, -0.2])[:m]])
        y0 = consistent_init(prob, 0.0, x0, np.zeros(prob.s))
        h = prob.period / nsteps
        nodes, end = march_over(periodic.March(prob, 0.7), state0.tolist(), y0.tolist(), h, nsteps)
        ref_nodes, ref_end = raw_march(prob, 0.7, state0, y0, h, nsteps)
        tol = 1e-8 if name in self.DIFFERENCED else 1e-13
        assert len(nodes) == len(ref_nodes) == nsteps + 1
        for column in range(5):
            got = [node[column] for node in nodes]
            if got[0] is None:
                assert prob.order == 1 and all(node[column] is None for node in ref_nodes)
                continue
            ref = np.array([node[column] for node in ref_nodes])
            assert norm_inf(np.array(got) - ref) <= tol * max(1.0, norm_inf(ref)), column
        assert norm_inf(np.array(end) - ref_end) <= tol * max(1.0, norm_inf(ref_end))


class TestRawFrames:
    """A raw march reads its frames from its frame function on the march's
    times, as it steps: each step's midpoint and end frames when the step
    starts, and no frame of a later step."""

    @staticmethod
    def problem(f=None):
        # rotating_surface with A = diag(1/(t - 1), 1), which fails at t = 1:
        # with h = 0.5 the end of the second step
        prob = load_fixture("rotating_surface")
        prob.A = expr_path([["1/(t - 1)", "0"], ["0", "1"]], prob.period, name="A")
        if f is not None:
            prob.f = f
        return prob

    @staticmethod
    def raised(call):
        with pytest.raises(DaecontError) as exc:
            call()
        return type(exc.value), str(exc.value)

    def test_a_failing_end_frame_raises_before_its_step(self):
        times, force = [], load_fixture("rotating_surface").f
        stepper = periodic.March(self.problem(lambda t, x, y: (times.append(t), force(t, x, y))[1]), 0.5)
        state = [0.3, 0.1]
        eta = stepper.resolve(0.0, state, [0.0])
        del times[:]
        frame = self.raised(lambda: next(stepper.frames((1.0,))))
        assert frame[0] is NonfiniteResultError
        assert self.raised(lambda: march_over(stepper, state, eta, 0.5, 4)) == frame
        assert times == [0.0, 0.25, 0.25, 0.5]  # the stages of the first step alone

    def test_model_error_before_a_later_failing_frame(self):
        # f overflows at the end of the first step, before the second
        # step's frames, the first that fail, are read
        force = load_fixture("rotating_surface").f
        overflowing = lambda t, x, y: force(t, x, y) + 0.0 * math.exp(2000.0 * t)
        stepper = periodic.March(self.problem(overflowing), 0.5)
        state = [0.3, 0.1]
        eta = stepper.resolve(0.0, state, [0.0])
        assert self.raised(lambda: march_over(stepper, state, eta, 0.5, 4)) == (
            EvaluationError, "model raised OverflowError: math range error")

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_each_march_time_is_read_once_in_order(self, name, path_times):
        prob = load_fixture(name)
        stepper = periodic.March(prob, 0.5)
        state = [0.3, 0.1] + [0.0] * (prob.order - 1) * prob.m
        eta = stepper.resolve(0.0, state, [0.0])
        h = prob.period / 16
        del path_times[:]
        nodes, _ = march_over(stepper, state, eta, h, 16)
        times = TestFrameGrid.grid_times(h, 16)
        assert path_times == [t for t in times for _ in range(2 * prob.order)]
        assert [t for t, *_ in nodes] == times[::2]


class TestFloatConstraintNewton:
    """The emitted constraint Newton keeps the numpy Newton's rules and bits.

    Each case runs the package's one constraint Newton on one constraint
    from one start, through the list adapters of Python callables: as the
    fixed-frame march's solve (March.resolve) and as the raw march's solve
    (consistent_init, given a problem and given its system), against the
    numpy Newton of the test oracles.  With identity frames the raw solve's
    products are exact, so the results agree bit for bit, or all raise the
    same error with the same message.
    """

    @staticmethod
    def problem(g, jac, s):
        return DaeProblem1(m=1, s=s, period=TWO_PI, f=lambda t, x, y: np.zeros(1), g=g, d2g=jac,
                           A=MatrixPath.constant(np.eye(1), TWO_PI),
                           B=MatrixPath.constant(np.eye(s), TWO_PI))

    @classmethod
    def both(cls, g, jac, q0, xi=0.25):
        prob = cls.problem(g, jac, len(q0))
        sys = fixed_frame(prob)
        p = np.array([xi])
        outcomes = []
        for solve in (lambda: np.array(periodic.March(sys, 0.5).resolve(0.0, [xi], q0)),
                      lambda: consistent_init(prob, 0.0, [xi], q0),
                      lambda: consistent_init(sys, 0.0, [xi], q0),
                      lambda: solve_constraint(lambda q: sys.g(p, q), lambda q: sys.g_jac2(p, q),
                                               np.array(q0))):
            try:
                outcomes.append(solve().tobytes())
            except DaecontError as exc:
                outcomes.append((type(exc), str(exc)))
        return outcomes

    CUBIC = (lambda p, q: q**3 + q - p, lambda p, q: np.array([[3 * q[0] ** 2 + 1]]))
    PAIR = (lambda p, q: np.array([q[0] ** 3 + q[1] - p[0], q[1] ** 3 - q[0] + 2 * p[0]]),
            lambda p, q: np.array([[3 * q[0] ** 2, 1.0], [-1.0, 3 * q[1] ** 2]]))
    TRIPLE = (lambda p, q: np.array([q[0] ** 3 + q[0] - p[0], q[1] + q[0] * q[2], q[2] ** 3 + q[2] - q[1]]),
              lambda p, q: np.array([[3 * q[0] ** 2 + 1, 0.0, 0.0], [q[2], 1.0, q[0]],
                                     [0.0, -1.0, 3 * q[2] ** 2 + 1]]))

    @pytest.mark.parametrize("model, starts", [
        (CUBIC, [[0.0], [2.0], [-3.0], [0.2236]]),
        (PAIR, [[0.0, 0.0], [1.0, -1.0], [0.3, 0.4]]),
        (TRIPLE, [[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]]),
    ], ids=["s1", "s2", "s3"])
    def test_results_match_bit_for_bit(self, model, starts):
        for q0 in starts:
            outcomes = self.both(*model, q0)
            assert len(set(outcomes)) == 1 and isinstance(outcomes[0], bytes), q0

    @pytest.mark.parametrize("g, jac, q0, error", [
        # a zero (or, for s = 2, a numerically zero) dg/dq outside the tolerance
        (lambda p, q: q**2 - 1.0, lambda p, q: np.array([[2.0 * q[0]]]), [0.0], "1x1"),
        (lambda p, q: q - 1.0, lambda p, q: np.array([[1e-320]]), [0.0], "1x1"),
        (lambda p, q: q - 1.0, lambda p, q: np.diag([1.0, 1e-27]), [0.0, 0.0], "2x2"),
        # a non-finite residual, NaN wherever an entry is
        (lambda p, q: np.array([np.inf]), lambda p, q: np.ones((1, 1)), [0.0], "is inf"),
        (lambda p, q: np.array([-np.inf]), lambda p, q: np.ones((1, 1)), [0.0], "is inf"),
        (lambda p, q: np.array([1.0, np.nan]), lambda p, q: np.eye(2), [0.0, 0.0], "is nan"),
        (lambda p, q: np.array([np.nan, 1.0]), lambda p, q: np.eye(2), [0.0, 0.0], "is nan"),
        # Newton on q^3 - 2 q + 2 cycles between 0 and 1
        (lambda p, q: q**3 - 2.0 * q + 2.0, lambda p, q: np.array([[3 * q[0] ** 2 - 2.0]]), [0.0],
         "stalled at residual 2.000e+00"),
    ], ids=["singular_1x1", "subnormal_1x1", "singular_2x2", "inf", "minus_inf", "nan_second",
            "nan_first", "stalled"])
    def test_failures_match(self, g, jac, q0, error):
        outcomes = self.both(g, jac, q0)
        assert len(set(outcomes)) == 1 and error in outcomes[0][1]
        if "residual is" in error:
            assert outcomes[0][0] is NonfiniteResultError

    @pytest.mark.parametrize("s", [1, 2])
    def test_zero_jacobian_inside_tolerance_returns_the_start(self, s):
        outcomes = self.both(lambda p, q: np.full(s, 1e-13), lambda p, q: np.zeros((s, s)), [0.25] * s)
        assert set(outcomes) == {np.full(s, 0.25).tobytes()}

    @pytest.mark.parametrize("s", [1, 2])
    def test_warm_start_inside_tolerance_is_polished_once(self, s):
        calls = []

        def g(p, q):
            calls.append("g")
            return q - 0.5

        def jac(p, q):
            calls.append("jac")
            return np.eye(s)

        outcomes = self.both(g, jac, [0.5 + 1e-13] * s)
        assert set(outcomes) == {np.full(s, 0.5).tobytes()}
        assert calls == ["g", "jac", "g"] * 4

    @pytest.mark.parametrize("g, jac", [
        (lambda p, q: float(q[0] ** 3 + q[0] - 2.0), lambda p, q: 3.0 * q[0] ** 2 + 1.0),
        (lambda p, q: [q[0] ** 3 + q[0] - 2.0], lambda p, q: [[3.0 * q[0] ** 2 + 1.0]]),
    ], ids=["bare_float", "list"])
    def test_python_callable_model_values(self, g, jac):
        outcomes = self.both(g, jac, [0.0])
        assert len(set(outcomes)) == 1 and isinstance(outcomes[0], bytes)
        assert abs(np.frombuffer(outcomes[0])[0] - 1.0) <= 1e-12
        prob = self.problem(g, jac, 1)
        for start in (0.0, [0.0], np.zeros(1)):
            q = consistent_init(prob, 0.0, 0.25, start)
            assert isinstance(q, np.ndarray) and q.shape == (1,) and q.tobytes() == outcomes[0]

    def test_pulled_back_zeros_are_positive(self):
        # numpy's matmul sums from +0.0: a state at rest at zero pulls back
        # to the raw march's +0.0, not to a sum of -0.0 products
        prob = _shooting_problem("semilinear_4x4")
        fixed = integrate(prob, 0.5, np.zeros(2), mode="fixed")
        raw = integrate(prob, 0.5, np.zeros(2))
        assert not fixed.x.any() and fixed.x.tobytes() == raw.x.tobytes()
        assert fixed.y.tobytes() == raw.y.tobytes()


class TestFloatMarchErrors:
    """Failures inside either march end as the typed errors of the numpy marches.

    Each case runs ``integrate`` in the mode it is given; in the frame the
    shooting runner's plain and sensitivity marches run it too.
    """

    MODES = ["raw", "fixed"]

    @staticmethod
    def problem(constraint="q^3 + q - p", forcing="cos(t) - x", name="scalar_linear"):
        text = problem_text(name).replace("q^3 + q - p", constraint)
        return build_problem(parse_problem(text.replace("cos(t) - x", forcing, 1)))

    @staticmethod
    def marches(mode, prob, state0, lam=0.5):
        # the marches of one case from state0 (its frames are the identity
        # at t = 0), on a 16-step grid
        h = prob.period / 16
        marches = [lambda: integrate(prob, lam, state0, h=h, mode=mode)]
        if mode == "fixed":
            runner = periodic._ShootingRunner(prob, 16)
            marches += [lambda: shoot(runner, lam, state0), lambda: runner.linearize(lam, state0)]
        return marches

    @pytest.mark.parametrize("mode", MODES)
    def test_singular_constraint_jacobian(self, mode):
        # q^3 = p has dg/dq = 0 at q = 0: the start solve returns at once
        # (zero residual), the sensitivity stage's d eta / d xi hits the
        # 1x1 pivot, and the plain marches' next Newton step does
        prob = self.problem(constraint="q^3 - p")
        for march in self.marches(mode, prob, np.zeros(1)):
            with pytest.raises(SingularMatrixError, match="1x1 system is singular"):
                march()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", sorted(MARCH_LEVEL_FAILURES))
    def test_failing_march_level_blocks_keep_their_error(self, mode, case):
        text, error, message = MARCH_LEVEL_FAILURES[case]
        for march in self.marches(mode, build_problem(parse_problem(text)), np.zeros(2)):
            with pytest.raises(error) as caught:
                march()
            assert str(caught.value) == message

    @pytest.mark.parametrize("mode", MODES)
    def test_stalled_constraint(self, mode):
        # q = 0 solves q^3 - 2 q + 2 = p at the start p = 2; the forcing
        # takes the second stage to p = 0, where Newton from q = 0 cycles
        # between 0 and 1
        prob = self.problem(constraint="q^3 - 2*q + 2 - p", forcing=repr(-128.0 / TWO_PI))
        for march in self.marches(mode, prob, np.array([2.0])):
            with pytest.raises(NoConvergenceError, match=r"constraint solve stalled at residual "
                                                         r"2\.000e\+00 \(tol 1\.0e-12\)"):
                march()

    @pytest.mark.parametrize("mode, forcing, error", [
        # a float power raises at the model call in both marches
        ("raw", "x1^400 - x1", r"^OverflowError: Numerical result out of range$"),
        ("fixed", "x1^400 - x1", r"^OverflowError: Numerical result out of range$"),
        # a float product overflows to inf without raising: the frame's
        # forcing check names it before A(t) f, while a raw inf enters the
        # rate, as in the numpy raw march, and the next solve blames the state
        ("raw", "x1^300*x1^300 - x1", r"^state \[inf, 0\.0\] at t = 0\.19634954084936207 is"),
        ("fixed", "x1^300*x1^300 - x1", r"^forcing f at t = 0\.0 is \[inf, -0\.0\]"),
    ], ids=["raw_power", "fixed_power", "raw_product", "fixed_product"])
    def test_overflowing_forcing_is_named(self, mode, forcing, error):
        prob = build_problem(parse_problem(problem_text("rotating_surface").replace(
            "cos(t) - x1\n-x2", f"{forcing}\n-x2")))
        for march in self.marches(mode, prob, np.array([10.0, 0.0])):
            with pytest.raises(NonfiniteResultError, match=error):
                march()

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowed_state_is_blamed(self, mode):
        # the forcing is finite, but the RK4 sum 5e307 + 2 (5e307) + 2 (5e307)
        # overflows to inf without raising; the end-of-step solve meets that
        # state, whose first entry the constraint scales to a finite size
        # until it is inf, and blames the state in the march's coordinates
        text = problem_text("rotating_surface").replace("cos(t) - x1\n-x2", "1e308\n-x2")
        prob = build_problem(parse_problem(text.replace("q^3 + q - p1^2 - 2*p2^2", "q - 1e-300*p1")))
        with pytest.raises(NonfiniteResultError,
                           match=r"^state \[inf, [^]]*\] at t = [^ ]+ is not finite: a model value overflowed$"):
            integrate(prob, 0.5, np.zeros(2), mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("state, error", [
        # at a finite state the float power p1^2 of the inlined g raises,
        # and the error names it
        ([1e200, 0.0], "OverflowError: Numerical result out of range"),
        # the same power (p2^2) at a non-finite state blames the state
        ([math.inf, 1e200], "state [inf, 1e+200] at t = 0.0 is not finite: a model value overflowed"),
    ], ids=["finite_state", "nonfinite_state"])
    def test_power_overflow_in_the_constraint_solve(self, mode, state, error):
        # g = q^3 + q - p1^2 - 2 p2^2 with A(0) = I: the first solve of a
        # raw march, or the frame's resolve, inlined and called through
        prob = load_fixture("rotating_surface")
        messages = []
        for model in (prob, called_through(prob)):
            if mode == "fixed":
                solve = lambda: periodic.March(fixed_frame(model), 0.5).resolve(0.0, state, [0.0])
            else:
                solve = lambda: march_over(periodic.March(model, 0.5), state, [0.0], model.period / 16, 1)
            with pytest.raises(NonfiniteResultError) as caught:
                solve()
            messages.append(str(caught.value))
        assert messages == [error, error]

    @staticmethod
    def failing_forcing(t, x, y):
        # a Python callable, reached through the list adapter
        if x[0] > 0.05:
            raise ValueError("injected")
        return np.array([np.cos(t) - x[0]])

    @pytest.mark.parametrize("mode", MODES)
    def test_python_callable_error_reaches_the_caller(self, mode):
        # as EvaluationError naming the model's error, chained to it
        prob = scalar_problem(f=self.failing_forcing)
        marches = self.marches(mode, prob, np.zeros(1))
        if mode == "fixed":
            marches.append(lambda: find_tpair(prob, 0.5, np.zeros(1), nsteps=16))
        for march in marches:
            with pytest.raises(EvaluationError, match=r"^model raised ValueError: injected$") as caught:
                march()
            assert type(caught.value.__cause__) is ValueError

    def test_python_callable_error_in_the_start_solve(self):
        # g raises while integrate solves for the algebraic start
        def failing_constraint(p, q):
            raise ArithmeticError("injected")

        prob = scalar_problem(g=failing_constraint)
        with pytest.raises(EvaluationError, match=r"^model raised ArithmeticError: injected$"):
            integrate(prob, 0.5, np.zeros(1), h=prob.period / 16)

    def test_python_callable_error_in_the_start_check(self):
        # g raises while integrate checks a given algebraic start
        def failing_constraint(p, q):
            raise ValueError("injected")

        prob = scalar_problem(g=failing_constraint)
        with pytest.raises(EvaluationError, match=r"^model raised ValueError: injected$") as caught:
            integrate(prob, 0.5, np.zeros(1), np.zeros(1), h=prob.period / 16)
        assert type(caught.value.__cause__) is ValueError

    def test_argument_errors_stay_value_errors(self):
        prob = scalar_problem()
        for kwargs, message in (({"mode": "both"}, "unknown integration mode"),
                                ({"h": 1e-9}, "gives more than"),
                                ({"y0": np.array([5.0])}, "initial state violates the constraint")):
            with pytest.raises(ValueError, match=message):
                integrate(prob, 0.5, np.array([0.1]), **kwargs)

    def test_python_callable_error_mid_branch_keeps_the_trivial_pair(self):
        # a ValueError from a Python-callable forcing inside the first
        # corrector's sensitivity march, through the list adapter
        box = Box(np.array([0.0, -2.0]), np.array([5.0, 2.0]))
        branch = continue_branch(scalar_problem(f=self.failing_forcing), np.zeros(2), 0.5, 3, box,
                                 integration_steps=32)
        assert branch.termination == "solver_failure"
        assert [p.lam for p in branch.pairs] == [0.0] and branch.pairs[0].is_trivial
