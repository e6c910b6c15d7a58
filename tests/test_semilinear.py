import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import daecont
from daecont.errors import (
    ConditionsViolatedError,
    EvaluationError,
    RankMismatchError,
    SingularBlockError,
)
from daecont.fixtures import load_fixture, problem_text
from daecont.linalg import norm_inf, solve_linear
from daecont.paths import MatrixPath, frame_audit
from daecont.probfile import build_problem, parse_problem
from daecont.semilinear import _check_with, _rank_checked_svd, check_conditions, reduce_semilinear
from oracles import check_with_nodes, report_bits, rk4_step, semilinear_reduction


def worked_example():
    return load_fixture("semilinear_4x4")


def worked_variant(table, rows):
    """semilinear_4x4 with the rows of its ``E``, ``F`` or ``C`` table replaced."""
    text = problem_text("semilinear_4x4")
    start = text.index(f"[{table}]\n")
    end = text.index("\n\n", start)
    body = "\n".join(", ".join(str(entry) for entry in row) for row in rows)
    return build_problem(parse_problem(f"{text[:start]}[{table}]\n{body}{text[end:]}"))


def _rotation(plane_angles):
    out = np.eye(4)
    for i, j, angle in plane_angles:
        g = np.eye(4)
        g[i, i] = g[j, j] = np.cos(angle)
        g[i, j], g[j, i] = -np.sin(angle), np.sin(angle)
        out = g @ out
    return out


# semilinear_4x4 in the coordinates w = R x, its equations mixed by L, so
# that the SVD factors of its mass matrix are no permutations
ROT_L = _rotation([(0, 2, 0.4), (1, 3, -0.7), (0, 1, 0.25)])
ROT_R = _rotation([(0, 3, 0.3), (1, 2, 0.9)])
_F = [["0", "0", "0", "0"], ["cos(t)", "1", "0", "-sin(t)"],
      ["0", "0", "0", "0"], ["sin(t)", "0", "1", "cos(t)"]]
_C = [["2 + cos(t)", "1", "0", "1"], ["0", "0", "0", "0"],
      ["1", "3 + sin(t)", "2", "0"], ["0", "0", "0", "0"]]
_E = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])


def rotated_problem(name, s_entries, header=""):
    """Problem text of the rotated system; ``s_entries`` are S in u1..u4 = R.T w."""
    def combination(coefs, terms):
        parts = [f"({float(c)!r})*({x})" for c, x in zip(coefs, terms) if c != 0.0 and x != "0"]
        return " + ".join(parts) or "0"

    def rows(table):
        return "\n".join(", ".join(row) for row in table)

    u = ["(" + combination(ROT_R[:, i], ["x1", "x2", "x3", "x4"]) + ")" for i in range(4)]
    pairs = [(a, b) for a in range(4) for b in range(4)]
    f_rows = [[combination([ROT_L[i, a] * ROT_R[j, b] for a, b in pairs], [_F[a][b] for a, b in pairs])
               for j in range(4)] for i in range(4)]
    c_rows = [[combination(ROT_L[i], [_C[a][j] for a in range(4)]) for j in range(4)]
              for i in range(4)]
    mass = [[repr(float(v)) for v in row] for row in ROT_L @ _E @ ROT_R.T]
    s_rows = [[entry.format(*u)] for entry in s_entries]
    return (f"[problem]\nkind = semilinear\nname = {name}\nn = 4\nperiod = 6.283185307179586\n{header}"
            f"\n[E]\n{rows(mass)}\n\n[F]\n{rows(f_rows)}\n\n[C]\n{rows(c_rows)}\n\n[S]\n{rows(s_rows)}\n")


def _nonlinear_s(w):
    x = ROT_R.T @ w
    return np.array([x[0] + 0.1 * x[0] ** 3, np.sin(x[1]), x[2] * x[3], np.exp(-x[3] ** 2)])


def _nonlinear_ds(w):
    x = ROT_R.T @ w
    return np.array([[1.0 + 0.3 * x[0] ** 2, 0, 0, 0], [0, np.cos(x[1]), 0, 0],
                     [0, 0, x[3], x[2]], [0, 0, 0, -2.0 * x[3] * np.exp(-x[3] ** 2)]]) @ ROT_R.T


# (problem text, S, dS) of the three problems held to the numpy oracle
ORACLE_PROBLEMS = {
    "semilinear_4x4": (problem_text("semilinear_4x4"), lambda x: x, lambda x: np.eye(4)),
    "nonlinear_s": (rotated_problem("nonlinear_s", ["{0} + 0.1*{0}^3", "sin({1})", "{2}*{3}",
                                                    "exp(-{3}^2)"]),
                    _nonlinear_s, _nonlinear_ds),
    "fd": (rotated_problem("fd", ["{0}", "{1}", "{2}", "{3}"], "derivatives = fd\n"),
           lambda w: ROT_R.T @ w, lambda w: ROT_R.T),
}


class TestCheckConditions:
    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one_is_rejected(self, grid):
        with pytest.raises(ValueError, match=rf"^reduction audit grid must have at least 1 point, "
                                             rf"got {grid}$"):
            check_conditions(load_fixture("semilinear_4x4"), grid)

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
        dae = build_problem(parse_problem(
            "[problem]\nkind = semilinear\nn = 2\nperiod = 6.283185307179586\n"
            "[E]\n1, 0\n0, 0\n[F]\n0, 0\n1, 0\n[C]\n1, 0\n0, 0\n[S]\nx1\nx2\n"))
        report = check_conditions(dae)
        assert report.rank == 1
        assert report.conditions_hold
        # F4 block is zero here, so the reduction itself must refuse
        with pytest.raises(SingularBlockError):
            reduce_semilinear(dae)

    def test_kernel_violation_detected(self):
        dae = worked_variant("C", np.eye(4))  # ker C.T = {0}
        report = check_conditions(dae)
        assert report.kernel_residual_c > 1e-3
        assert not report.conditions_hold

    def test_one_path_call_per_node(self, path_calls):
        dae = worked_example()
        check_conditions(dae, 16)
        assert path_calls.count(dae.Fpath) == path_calls.count(dae.Cpath) == 16

    def test_rank_mismatch(self):
        dae = worked_variant("E", np.eye(4))
        with pytest.raises(RankMismatchError):
            check_conditions(dae)


class TestReduce:
    def test_grid_below_one_is_rejected(self):
        with pytest.raises(ValueError, match=r"^reduction audit grid must have at least 1 point, got 0$"):
            reduce_semilinear(load_fixture("semilinear_4x4"), 0)

    def test_lower_c_block_rejected(self):
        dae = worked_variant("C", np.eye(4))
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
        dae = worked_variant("E", 2.0 * _E)
        red2 = reduce_semilinear(dae)
        red1 = reduce_semilinear(worked_example())
        x, y = np.array([0.7, -0.2]), np.array([0.4, 1.1])
        assert norm_inf(red2.f(1.0, x, y) - 0.5 * red1.f(1.0, x, y)) <= 1e-12

    def test_identity_mass_rejected(self):
        dae = worked_variant("E", np.eye(4))
        with pytest.raises(RankMismatchError):
            reduce_semilinear(dae)

    def test_fields_follow_the_spec(self):
        # the audit's matrices are compiled from the spec the reduction
        # reads: a doubled C cannot reach the audit alone
        dae = worked_example()
        doubled = worked_variant("C", [[f"2*({entry})" for entry in row] for row in _C])
        with pytest.raises(FrozenInstanceError):
            dae.Cpath = doubled.Cpath
        with pytest.raises(ValueError, match="init=False"):
            replace(dae, Cpath=doubled.Cpath)
        twin = replace(dae, spec=doubled.spec)
        x, y = np.array([0.7, -0.2]), np.array([0.4, 1.1])
        assert np.array_equal(twin.Cpath(1.0), 2.0 * dae.Cpath(1.0))
        assert norm_inf(reduce_semilinear(twin).f(1.0, x, y)
                        - 2.0 * reduce_semilinear(dae).f(1.0, x, y)) <= 1e-12

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


class TestAgainstOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_compiled_reduction_matches_numpy_reduction(self, name):
        # the compiled tables against blocks of P.T F(t) Q and the forcing
        # sigma^-1 C_top(t) Q.T S(Q z) on the paths the audit samples
        text, s_fun, ds_fun = ORACLE_PROBLEMS[name]
        dae = build_problem(parse_problem(text))
        report = check_conditions(dae)
        red = reduce_semilinear(dae, report=report)
        a_ref, b_ref, f_ref, df_ref = semilinear_reduction(dae, report, s_fun, ds_fun)
        # difference derivatives carry the rounding of their values,
        # amplified by 1/fd_step per order (fd_step = 1e-4 * T here)
        fd = dae.spec.derivative_mode == "fd"
        tols = [1e-13] + [8 * np.finfo(float).eps / red.A.fd_step**k if fd else 1e-13 for k in (1, 2)]

        def close(got, ref, tol=1e-13):
            return norm_inf(np.asarray(got) - ref) <= tol * max(1.0, norm_inf(ref))

        rng = np.random.default_rng(7)
        for t in np.linspace(0.0, dae.period, 11):
            for order, tol in enumerate(tols):
                assert close(red.A(t, order), a_ref(t, order), tol)
                assert close(red.B(t, order), b_ref(t, order), tol)
            x, y = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
            assert close(red.f(t, x, y), f_ref(t, x, y))
            assert close(red.df(t, x, y), df_ref(t, x, y))


def test_semilinear_imported_first_reduces():
    # probfile imports semilinear at load; semilinear imports probfile only
    # when a reduction runs, so either import order works
    src = str(Path(daecont.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import daecont.semilinear as semilinear\n"
            "from daecont.fixtures import load_fixture\n"
            "red = semilinear.reduce_semilinear(load_fixture('semilinear_4x4'))\n"
            "print(type(red).__name__, red.m, red.s)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "DaeProblem1 2 2\n", "")


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


def coefficient_copy(seed):
    """semilinear_4x4 with seeded coefficients in its F and C tables."""
    a, b, c, d = (repr(float(v)) for v in np.random.default_rng(seed).uniform(0.5, 2.0, size=4))
    tables = {"F": [["0"] * 4, [f"{a}*cos(t)", b, "0", f"-{a}*sin(t)"],
                    ["0"] * 4, [f"{c}*sin(t)", "0", d, f"{c}*cos(t)"]],
              "C": [[f"{b} + {c}*cos(t)", a, "0", d], ["0"] * 4,
                    [d, f"{a} + sin(t)", b, "0"], ["0"] * 4]}
    text = problem_text("semilinear_4x4")
    for table, rows in tables.items():
        start = text.index(f"[{table}]\n")
        end = text.index("\n\n", start)
        text = f"{text[:start]}[{table}]\n" + "\n".join(", ".join(row) for row in rows) + text[end:]
    return build_problem(parse_problem(text))


def _check_both(dae, grid=64):
    p, sigma, q, r = _rank_checked_svd(dae)
    return _check_with(dae, p, sigma, q, r, grid), check_with_nodes(dae, p, sigma, q, r, grid)


class TestStackedCheck:
    # the stacked reduction audit gives the per-node loop's bits (tests/oracles.py)
    @pytest.mark.parametrize("name", ["semilinear_4x4", "nonlinear_s", "fd"])
    def test_fixture_and_rotated_systems(self, name):
        dae = build_problem(parse_problem(ORACLE_PROBLEMS[name][0]))
        stacked, nodes = _check_both(dae)
        assert report_bits(stacked) == report_bits(nodes) and stacked.conditions_hold

    @pytest.mark.parametrize("grid", [1, 7, 64])
    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_check_conditions_of_path_calls(self, name, grid):
        # F and C read as stacks give the bits of one call per node
        dae = build_problem(parse_problem(ORACLE_PROBLEMS[name][0]))
        nodes = check_with_nodes(dae, *_rank_checked_svd(dae), grid)
        assert report_bits(check_conditions(dae, grid)) == report_bits(nodes)

    @pytest.mark.parametrize("seed", range(6))
    def test_coefficient_copies(self, seed):
        stacked, nodes = _check_both(coefficient_copy(seed), 16 + 8 * seed)
        assert report_bits(stacked) == report_bits(nodes)

    def test_violated_conditions(self):
        dae = worked_variant("C", np.eye(4))
        stacked, nodes = _check_both(dae)
        assert report_bits(stacked) == report_bits(nodes) and not stacked.conditions_hold
        assert report_bits(check_conditions(dae)) == report_bits(nodes)

    def test_ranks_that_change_over_the_grid(self):
        # C(t) and F(t) lose rank at every other node: those nodes count
        # as maximal, the others are compared to ker E.T
        dae = worked_example()
        p, sigma, q, r = _rank_checked_svd(dae)
        grid, period = 16, dae.period
        odd = lambda t: round(t * grid / period) % 2 == 1
        lose = lambda path, row: MatrixPath(4, period, lambda t: path(t) * np.where(
            odd(t) & (np.arange(4) == row), 0.0, 1.0)[:, None])
        stub = SimpleNamespace(n=4, period=period, mass=dae.mass,
                               Fpath=lose(dae.Fpath, 1), Cpath=lose(dae.Cpath, 0))
        stacked = _check_with(stub, p, sigma, q, r, grid)
        nodes = check_with_nodes(stub, p, sigma, q, r, grid)
        assert report_bits(stacked) == report_bits(nodes)
        assert stacked.kernel_residual_c == stacked.kernel_residual_f == 1.0

    def test_overflowing_blocks_raise(self):
        dae = worked_example()
        p, sigma, q, r = _rank_checked_svd(dae)
        # finite blocks of F whose 2x2 determinants are inf - inf
        huge = MatrixPath(4, dae.period, lambda t: np.full((4, 4), 1.6e308) * [1, -1, 1, -1])
        stub = SimpleNamespace(n=4, period=dae.period, mass=dae.mass, Fpath=huge, Cpath=dae.Cpath)
        with pytest.raises(EvaluationError, match="audit quantity det_margin_f3 is not finite: nan"):
            _check_with(stub, p, sigma, q, r, 16)
