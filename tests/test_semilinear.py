import numpy as np
import pytest

from daecont.errors import ConditionsViolatedError, RankMismatchError, SingularBlockError
from daecont.fixtures import load_fixture
from daecont.linalg import norm_inf, solve_linear
from daecont.paths import MatrixPath, frame_audit
from daecont.semilinear import SemiLinearDae, _check_with, _rank_checked_svd, check_conditions, reduce_semilinear
from oracles import rk4_step


def worked_example():
    return load_fixture("semilinear_4x4")


class TestCheckConditions:
    def test_worked_example_blocks(self):
        report = check_conditions(worked_example())
        assert report.rank == 2
        assert np.allclose(report.sigma, [1.0, 1.0, 0.0, 0.0], atol=1e-14)
        assert report.e_block_residual <= 1e-10
        assert report.f_block_residual <= 1e-10
        assert report.c_block_residual <= 1e-10
        assert report.kernel_residual_c <= 1e-10
        assert report.kernel_residual_f <= 1e-10
        assert report.conditions_hold
        assert report.det_margin_f3 >= 0.99
        assert report.det_margin_f4 >= 0.99

    def test_worked_example_transformed_blocks_match(self):
        dae = worked_example()
        report = check_conditions(dae)
        p, q = report.P, report.Q
        for t in np.linspace(0, dae.period, 7):
            ft = p.T @ dae.Fpath(t) @ q
            rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            assert norm_inf(ft[2:, :2] - rot) <= 1e-12
            assert norm_inf(ft[2:, 2:] - np.eye(2)) <= 1e-12
            ct = p.T @ dae.Cpath(t) @ q
            c1 = np.array([[2 + np.cos(t), 1.0], [1.0, 0.0]])
            c2 = np.array([[1.0, 0.0], [3 + np.sin(t), 2.0]])
            assert norm_inf(ct[:2, :2] - c1) <= 1e-12
            assert norm_inf(ct[:2, 2:] - c2) <= 1e-12

    def test_two_by_two_hand_computed(self):
        # E = diag(1, 0): ker E.T = span{e2}; F maps onto e2; C kills e2
        dae = SemiLinearDae(
            n=2, period=2 * np.pi,
            mass=np.diag([1.0, 0.0]),
            Fpath=MatrixPath.constant(np.array([[0.0, 0.0], [1.0, 0.0]]), 2 * np.pi),
            Cpath=MatrixPath.constant(np.array([[1.0, 0.0], [0.0, 0.0]]), 2 * np.pi),
            S=lambda x: x,
        )
        report = check_conditions(dae)
        assert report.rank == 1
        assert report.conditions_hold
        # F4 block is zero here, so the reduction itself must refuse
        with pytest.raises(SingularBlockError):
            reduce_semilinear(dae)

    def test_kernel_violation_detected(self):
        dae = worked_example()
        dae.Cpath = MatrixPath.constant(np.eye(4), dae.period)  # ker C.T = {0}
        report = check_conditions(dae)
        assert report.kernel_residual_c > 1e-3
        assert not report.conditions_hold

    def test_one_path_call_per_node(self, path_calls):
        dae = worked_example()
        check_conditions(dae, 16)
        assert path_calls.count(dae.Fpath) == path_calls.count(dae.Cpath) == 16

    def test_rank_mismatch(self):
        dae = worked_example()
        dae.mass = np.eye(4)
        with pytest.raises(RankMismatchError):
            check_conditions(dae)


class TestReduce:
    def test_lower_c_block_rejected(self):
        dae = worked_example()
        dae.Cpath = MatrixPath.constant(np.eye(4), dae.period)
        assert check_conditions(dae).c_block_residual > 1e-3
        with pytest.raises(ConditionsViolatedError):
            reduce_semilinear(dae)

    def test_given_report_samples_no_path(self, path_calls):
        dae = worked_example()
        report = check_conditions(dae)
        path_calls.clear()
        reduce_semilinear(dae, report=report)
        assert path_calls == []

    def test_worked_example_fields(self):
        red = reduce_semilinear(worked_example())
        assert red.m == red.s == 2
        assert frame_audit(red.A).suitable
        # forcing matches the displayed reduced system
        for t in (0.0, 0.9, 3.0):
            x = np.array([0.7, -0.2])
            y = np.array([0.4, 1.1])
            expected = np.array([
                (2 + np.cos(t)) * x[0] + x[1] + y[0],
                x[0] + (3 + np.sin(t)) * y[0] + 2 * y[1],
            ])
            assert norm_inf(red.f(t, x, y) - expected) <= 1e-12
        # constraint y + F3(t) x = 0 expressed as g(A x, B y) = A x + B y
        x, y = np.array([0.3, 0.5]), np.array([-0.1, 0.2])
        assert norm_inf(red.g(x, y) - (x + y)) <= 1e-15

    def test_scaled_mass_halves_field(self):
        dae = worked_example()
        dae.mass = 2.0 * dae.mass
        red2 = reduce_semilinear(dae)
        red1 = reduce_semilinear(worked_example())
        x, y = np.array([0.7, -0.2]), np.array([0.4, 1.1])
        assert norm_inf(red2.f(1.0, x, y) - 0.5 * red1.f(1.0, x, y)) <= 1e-12

    def test_identity_mass_rejected(self):
        dae = worked_example()
        dae.mass = np.eye(4)
        with pytest.raises(RankMismatchError):
            reduce_semilinear(dae)

    def test_sign_flips_give_same_trajectories(self):
        # flipping a matched (P, Q) column pair is still a valid SVD; the
        # reduced dynamics must produce the same original-coordinate motion
        from daecont.periodic import integrate

        dae = worked_example()
        p, sigma, q, r = _rank_checked_svd(dae)
        p2, q2 = p.copy(), q.copy()
        p2[:, 1] *= -1.0
        q2[:, 1] *= -1.0
        report2 = _check_with(dae, p2, sigma, q2, r, 64)
        assert report2.conditions_hold
        red1 = reduce_semilinear(dae)
        red2 = reduce_semilinear(dae, report=report2)
        lam, h = 0.7, dae.period / 256
        x0 = np.array([0.4, -0.3])
        tr1 = integrate(red1, lam, x0, h=h)
        # same original state: x_orig(0) = Q (x; y) must agree, so map x0
        # from the first reduction's coordinates into the second's
        y0_1 = -solve_linear(np.eye(2), red1.A(0.0) @ x0)  # y = -F3 x (F4 = I)
        z_orig = q @ np.concatenate([x0, y0_1])
        xy2 = q2.T @ z_orig
        tr2 = integrate(red2, lam, xy2[:2], xy2[2:], h=h)
        orig1 = np.array([q @ np.concatenate([tr1.x[k], tr1.y[k]]) for k in range(len(tr1.times))])
        orig2 = np.array([q2 @ np.concatenate([tr2.x[k], tr2.y[k]]) for k in range(len(tr2.times))])
        assert norm_inf(orig1 - orig2) <= 1e-8


class TestReductionConsistency:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_reduced_matches_direct_integration(self, lam):
        # Direct route: integrate the ODE block of the conjugated system,
        # eliminating the algebraic block by a linear solve at every stage.
        # Independent of the constraint-Newton machinery in periodic.py.
        from daecont.periodic import integrate

        dae = worked_example()
        report = check_conditions(dae)
        p, q, r = report.P, report.Q, report.rank
        inv_e1 = 1.0 / report.sigma[:r]

        def blocks(t):
            ft = p.T @ dae.Fpath(t) @ q
            ct = p.T @ dae.Cpath(t) @ q
            return ft[r:, :r], ft[r:, r:], ct[:r, :]

        def v_of(t, u):
            f3, f4, _ = blocks(t)
            return solve_linear(f4, -(f3 @ u))

        def field(t, u):
            _, _, c_top = blocks(t)
            z = np.concatenate([u, v_of(t, u)])
            s_vec = q.T @ (q @ z)  # S = identity for this system
            return lam * (inv_e1 * (c_top @ s_vec))

        nsteps = 512
        h = dae.period / nsteps
        u = np.array([0.4, -0.3])
        direct = [np.concatenate([u, v_of(0.0, u)])]
        t = 0.0
        for _ in range(nsteps):
            u = rk4_step(field, t, u, h)
            t += h
            direct.append(np.concatenate([u, v_of(t, u)]))
        direct = np.array(direct)

        red = reduce_semilinear(dae, report=report)
        traj = integrate(red, lam, np.array([0.4, -0.3]), h=h)
        mine = np.column_stack([traj.x, traj.y])
        assert norm_inf(mine - direct) <= 1e-6
