import numpy as np
import pytest

from daecont import periodic
from daecont.degree import Box
from daecont.errors import DaecontError, SeedRejectedError, SingularMonodromyError
from daecont.fixtures import load_fixture
from daecont.linalg import norm_inf
from daecont.paths import MatrixPath
from daecont.periodic import (
    branch_seeds,
    consistent_init,
    continue_branch,
    find_tpair,
    integrate,
    shooting_residual,
)
from daecont.transform import DaeProblem1

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
    def test_eta_gap_marches_once(self, name):
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
