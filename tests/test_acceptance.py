"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and enforces its runtime
budget where one is stated.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm

from daecont import kernel, periodic
from daecont.cli import main
from daecont.degree import Box, _block_map, candidate_map, degree_generic, degree_reduced
from daecont.expressions import eval_expr, expr_to_text, parse_expr
from daecont.errors import NonfiniteResultError
from daecont.fixtures import PROBLEMS, load_fixture, path_fixture, problem_text
from daecont.linalg import norm_inf, solve_linear
from daecont.paths import MatrixPath, frame_audit, lemma_audit
from daecont.periodic import find_tpair, integrate
from daecont.semilinear import check_conditions, reduce_semilinear
from daecont.transform import fixed_frame, fixed_frame_second
from oracles import rk4_step


@contextmanager
def criterion(num, description, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds budget {budget}s")
    except BaseException:
        print(f"criterion {num:2d}: FAIL ({time.perf_counter() - t0:.2f}s) {description}")
        raise
    print(f"criterion {num:2d}: PASS ({elapsed:.2f}s) {description}")


def _skew(rng, n):
    raw = rng.normal(size=(n, n))
    return 0.5 * (raw - raw.T)


def test_criterion_1_frame_audit_matrices():
    with criterion(1, "frame audit reproduces the reference M matrices", budget=1.0):
        audit = frame_audit(load_fixture("rotating_surface").A)
        assert norm_inf(audit.M - np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-10
        audit_h = frame_audit(load_fixture("commuting_h").A)
        assert norm_inf(audit_h.M - np.array([[0.0, -1.0], [1.0, 0.0]])) <= 1e-10


def test_criterion_2_identity_suite():
    with criterion(2, "second-derivative identities on 50 random frames "
                      "+ the 4x4 counterexample", budget=5.0):
        rng = np.random.default_rng(2024)
        tol = 1e-8
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            path = MatrixPath.exp_frame(_skew(rng, dim), expm(_skew(rng, dim)))
            report = lemma_audit(path)
            assert max(report.residuals.values()) <= 1e-8
            right, left = report.constancy_pair
            assert (right <= tol) == (left <= tol)  # both constant here
            assert right <= tol
        ce = lemma_audit(path_fixture("counterexample4"))
        right, left = ce.constancy_pair
        assert right <= 1e-10 and left <= 1e-10
        assert ce.one_sided_gap >= 0.5
        assert (right <= tol) == (left <= tol)
        # non-example: both one-sided products vary in time
        s1, s2 = _skew(rng, 3), _skew(rng, 3)
        wobble = MatrixPath(3, 2 * np.pi,
                            lambda t: expm(t * s1) @ expm(t * t * s2), fd_step=1e-5)
        audit = frame_audit(wobble, tol=1e-5)
        assert audit.right_constancy > tol and audit.left_constancy > tol
        assert (audit.right_constancy <= tol) == (audit.left_constancy <= tol)


def test_criterion_3_degree_agreement():
    with criterion(3, "both degree methods give 1 on the revolving-surface map "
                      "and agree on 20 random fixtures", budget=10.0):
        prob = load_fixture("rotating_surface")
        box = Box.cube(2.0, 3)
        m_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
        cert_r = degree_reduced(_block_map(m_mat, prob.g, prob.g_jac1, prob.g_jac2), box)
        cert_g = degree_generic(candidate_map(fixed_frame(prob)), box)
        assert cert_r.degree == 1 and cert_g.degree == 1
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 3))
            d0 = rng.normal(size=(m, m))
            while abs(np.linalg.det(d0)) < 0.3:
                d0 = rng.normal(size=(m, m))
            roots = np.sort(rng.uniform(-1.2, 1.2, size=3))
            while np.min(np.diff(roots)) < 0.3:
                roots = np.sort(rng.uniform(-1.2, 1.2, size=3))
            g = lambda p, q: (q - roots[0]) * (q - roots[1]) * (q - roots[2])
            fixture_box = Box.cube(2.0, m + 1)
            red = degree_reduced(_block_map(d0, g), fixture_box, grid=7)
            gen = degree_generic(
                lambda z: np.concatenate([d0 @ z[:m], np.atleast_1d(g(z[:m], z[m:]))]),
                fixture_box, grid=7)
            assert red.degree == gen.degree


def test_criterion_4_second_order_identities():
    with criterion(4, "second-order frame products and transformed drifts"):
        prob = load_fixture("rotating_surface_2nd")
        report = lemma_audit(prob.A)
        assert norm_inf(report.second_mean + np.eye(2)) <= 1e-10
        m_mat = frame_audit(prob.A).M
        assert norm_inf(report.second_mean - m_mat @ m_mat) <= 1e-10
        sys_t = fixed_frame_second(prob)
        assert norm_inf(sys_t.D0 - np.eye(2)) <= 1e-10
        assert norm_inf(sys_t.D1 + 2.0 * m_mat) <= 1e-10


def test_criterion_5_semilinear_reduction():
    with criterion(5, "semi-linear reduction: conditions, factors, and "
                      "trajectory agreement with direct integration", budget=10.0):
        dae = load_fixture("semilinear_4x4")
        report = check_conditions(dae)
        assert max(report.e_block_residual, report.f_block_residual,
                   report.c_block_residual, report.kernel_residual_c,
                   report.kernel_residual_f) <= 1e-10
        assert norm_inf(report.sigma - np.array([1.0, 1.0, 0.0, 0.0])) <= 1e-12
        red = reduce_semilinear(dae, report=report)
        for t in np.arange(64) * dae.period / 64:
            rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            assert norm_inf(red.A(t) - rot) <= 1e-10
        # direct route: eliminate the algebraic block by a linear solve
        p, q, r = report.P, report.Q, report.rank
        inv_e1 = 1.0 / report.sigma[:r]
        lam = 1.0

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
            return lam * (inv_e1 * (c_top @ (q.T @ (q @ z))))

        nsteps = 512
        h = dae.period / nsteps
        u = np.array([0.4, -0.3])
        direct = [np.concatenate([u, v_of(0.0, u)])]
        t = 0.0
        for _ in range(nsteps):
            u = rk4_step(field, t, u, h)
            t += h
            direct.append(np.concatenate([u, v_of(t, u)]))
        traj = integrate(red, lam, np.array([0.4, -0.3]), h=h)
        mine = np.column_stack([traj.x, traj.y])
        assert norm_inf(mine - np.array(direct)) <= 1e-6


def test_criterion_6_integrator_order_and_orbit():
    with criterion(6, "closed-form periodic orbit recovered; observed order >= 3.5"):
        prob = load_fixture("scalar_linear")
        tp = find_tpair(prob, 1.0, np.array([0.0]))
        ref = 0.5 * (np.cos(tp.trajectory.times) + np.sin(tp.trajectory.times))
        assert norm_inf(tp.trajectory.x[:, 0] - ref) <= 1e-6
        errs = []
        for n in (32, 64):
            traj = integrate(prob, 1.0, np.array([1.0]), h=prob.period / n)
            exact = (0.5 * (np.cos(traj.times) + np.sin(traj.times))
                     + 0.5 * np.exp(-traj.times))
            errs.append(norm_inf(traj.x[:, 0] - exact))
        assert np.log2(errs[0] / errs[1]) >= 3.5


def test_criterion_7_transformation_equivalence():
    with criterion(7, "raw-mode and pulled-back fixed-frame integration agree "
                      "on every fixture"):
        problems = []
        for name in sorted(PROBLEMS):
            built = load_fixture(name)
            if name == "semilinear_4x4":
                built = reduce_semilinear(built)
            problems.append((name, built))
        for name, prob in problems:
            h = prob.period / 512
            for lam in (0.0, 0.1, 1.0):
                x0 = np.full(prob.m, 0.2)
                raw = integrate(prob, lam, x0, h=h, mode="raw")
                if raw.sup_norm_x() > 10.0:
                    # strongly unstable at this parameter: rescale the start
                    # so the comparison runs at O(1) amplitude, where an
                    # absolute tolerance is meaningful
                    x0 = x0 * (0.5 / raw.sup_norm_x())
                    raw = integrate(prob, lam, x0, h=h, mode="raw")
                fix = integrate(prob, lam, x0, h=h, mode="fixed")
                gap = max(norm_inf(raw.x - fix.x), norm_inf(raw.y - fix.y))
                if raw.xdot is not None:
                    gap = max(gap, norm_inf(raw.xdot - fix.xdot))
                assert gap <= 1e-6, f"{name} at lam={lam}: gap {gap:.2e}"


def test_criterion_8_branch_tracing(tmp_path):
    with criterion(8, "branch continuation from the trivial pair reaches "
                      "nontrivial pairs past lambda = 0.5", budget=60.0):
        out = tmp_path / "branch.csv"
        code = main(["continue", "rotating_surface", "--ds", "0.05",
                     "--steps", "40", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        col = {name: k for k, name in enumerate(header)}
        lams = [float(r[col["lambda"]]) for r in rows]
        assert lams[0] <= 0.05
        for r in rows:
            assert float(r[col["periodicity_residual"]]) <= 1e-8
            assert float(r[col["constraint_residual"]]) <= 1e-10
        big = [lam for lam in lams if lam >= 0.5]
        assert big, f"no pair reached lambda 0.5 (max {max(lams):.3f})"
        # nontrivial: the accepted pair at that parameter is not constant
        prob = load_fixture("rotating_surface")
        tp = find_tpair(prob, big[0], np.array([big[0] ** 2 / (1 + big[0] ** 2), 0.0]))
        deviation = norm_inf(tp.trajectory.x - tp.trajectory.x[0])
        assert deviation > 1e-3
        assert not tp.is_trivial


def test_criterion_8_march_count(tmp_path, monkeypatch):
    # the work of criterion 8 in marches: the regression signal of its run
    # time, which a change of the predictor or corrector moves on purpose.
    # A sensitivity march carries n + 2 = 4 rows of the n = 2 state; the
    # plain ones run at points within periodic.JACOBIAN_REUSE of the last
    # sensitivity march, most of them the accepting march of a corrector
    rows, march = [], kernel.March.march
    monkeypatch.setattr(kernel.March, "march",
                        lambda self, state, *args: rows.append(len(state) // 2) or march(self, state, *args))
    code = main(["continue", "rotating_surface", "--ds", "0.05", "--steps", "40",
                 "--out", str(tmp_path / "branch.csv")])
    assert code == 0 and len(rows) == 118
    assert rows.count(4) == 80 and rows.count(1) == 38


def test_criterion_8_fills_one_grid(tmp_path, monkeypatch):
    # the trivial pair and the 118 marches of criterion 8 read one grid of
    # fixed frames, at the 2 * 256 + 1 step and midpoint times, filled once
    fills, make = [], kernel.frame_function

    def counted(a_path, b_path, order, fixed=False):
        frames = make(a_path, b_path, order, fixed)
        if not fixed:
            return frames

        def filled(times):
            fills.append(len(times := list(times)))
            return frames(times)

        return filled

    for module in (kernel, periodic):
        monkeypatch.setattr(module, "frame_function", counted)
    code = main(["continue", "rotating_surface", "--ds", "0.05", "--steps", "40",
                 "--out", str(tmp_path / "branch.csv")])
    assert code == 0 and fills == [513]


def test_criterion_9_averaged_map_report(capsys):
    with criterion(9, "averaged map: quadrature-consistent and compared "
                      "against the shipped reference formula"):
        code = main(["check", "semilinear_4x4"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        audit = data["averaged_map_audit"]
        assert audit["quad_n"] == [64, 256]
        assert audit["quadrature_gap"] <= 1e-10
        # the comparison is emitted; agreement itself is not required
        assert "reference_gap" in audit
        assert "matches_reference" in audit
        for probe in audit["probes"]:
            assert "value" in probe and "reference" in probe


def test_criterion_10_parser_and_byte_stability(capsys, tmp_path):
    with criterion(10, "expression round trip, fixture parsing, byte-stable outputs"):
        # 100-case print/parse round trip with exact double equality
        from test_expressions import _random_ast

        rng = np.random.default_rng(123)
        for _ in range(100):
            ast = _random_ast(rng, depth=4)
            reparsed = parse_expr(expr_to_text(ast))
            env = {v: float(rng.uniform(-2, 2)) for v in ("a", "b", "c")}
            try:
                expected = eval_expr(ast, env)
            except NonfiniteResultError:
                with pytest.raises(NonfiniteResultError):
                    eval_expr(reparsed, env)
                continue
            assert eval_expr(reparsed, env) == expected
        # every shipped fixture parses
        for name in PROBLEMS:
            assert problem_text(name)
            load_fixture(name)
        # byte-identical JSON across two consecutive runs
        main(["check", "rotating_surface"])
        out1 = capsys.readouterr().out
        main(["check", "rotating_surface"])
        assert capsys.readouterr().out == out1
        # byte-identical CSV across two consecutive runs
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["continue", "scalar_linear", "--ds", "0.2", "--steps", "2", "--out", str(a)])
        main(["continue", "scalar_linear", "--ds", "0.2", "--steps", "2", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
