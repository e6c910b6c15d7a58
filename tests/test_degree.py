import json

import numpy as np
import pytest

import daecont.cli as cli
import daecont.degree as degree
import daecont.linalg as linalg
import daecont.transform as transform
from daecont.cli import main
from daecont.degree import (
    Box,
    averaged_map_audit,
    averaged_map_fn,
    candidate_block,
    candidate_map,
    degree_generic,
    degree_reduced,
    locate_zeros,
    seeding_map,
)
from daecont.errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    NoConvergenceError,
    NonfiniteResultError,
    SingularJacobianError,
    SingularMatrixError,
    SuspectIncompleteError,
)
from daecont.fixtures import load_fixture, problem_text
from daecont.linalg import norm_inf
from daecont.paths import MatrixPath, frame_audit
from daecont.periodic import branch_seeds
from daecont.probfile import build_problem, parse_problem, to_json
from daecont.semilinear import reduce_semilinear
from daecont.transform import (
    DaeProblem1,
    DaeProblem2,
    fixed_frame,
    fixed_frame_first,
    fixed_frame_second,
)
from oracles import central_jacobian

ROT_M = np.array([[0.0, 1.0], [-1.0, 0.0]])
block_map = degree._block_map


class TestBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_contains_and_distance(self):
        box = Box.cube(2.0, 2)
        assert box.contains(np.array([1.0, -1.5]))
        assert not box.contains(np.array([2.5, 0.0]))
        assert box.boundary_distance(np.array([1.0, 0.0])) == 1.0

    def test_lattice_and_boundary_shapes(self):
        box = Box.cube(1.0, 2)
        lattice = box.lattice(5)
        assert lattice.shape == (25, 2)
        faces = lattice[box.face_mask(5)]
        assert len({tuple(p) for p in faces}) == len(faces) == 16
        assert all(box.boundary_distance(p) == 0.0 for p in faces)
        assert all(box.boundary_distance(p) > 0.0 for p in lattice[~box.face_mask(5)])

    @pytest.mark.parametrize("dim, grid", [(1, 2), (1, 9), (3, 4), (3, 9)])
    def test_face_mask_counts(self, dim, grid):
        # grid^dim lattice nodes, (grid - 2)^dim of them interior
        box = Box.cube(2.0, dim)
        mask = box.face_mask(grid)
        assert mask.shape == (grid**dim,)
        assert mask.sum() == grid**dim - (grid - 2) ** dim

    @pytest.mark.parametrize("grid", [0, 1])
    def test_lattice_needs_two_points_per_axis(self, grid):
        box = Box.cube(1.0, 2)
        with pytest.raises(ValueError):
            box.lattice(grid)
        with pytest.raises(ValueError):
            locate_zeros(lambda z: z, box, grid)


class TestCandidateMap:
    @pytest.mark.parametrize("name, block", [
        ("rotating_surface", ROT_M),  # D0 = -M: the block is M
        ("rotating_surface_2nd", np.eye(2)),  # D0 = -M^2 = I
        ("commuting_h", None),  # constant drift: the block is D0
    ])
    def test_candidate_block(self, name, block):
        sys_t = fixed_frame(load_fixture(name))
        got = candidate_block(sys_t)
        want = sys_t.D0 if block is None else block
        assert norm_inf(got - want) <= 1e-10
        z = np.array([0.3, -0.7, 0.2])
        assert np.array_equal(candidate_map(sys_t)(z)[:2], got @ z[:2])

    def test_rotating_surface(self):
        prob = load_fixture("rotating_surface")
        cmap = candidate_map(fixed_frame(prob))
        # first block is M xi = (xi2, -xi1); second the surface constraint
        z = np.array([0.3, -0.7, 0.2])
        val = cmap(z)
        assert abs(val[0] - z[1]) <= 1e-14
        assert abs(val[1] + z[0]) <= 1e-14
        expected_g = z[2] ** 3 + z[2] - z[0] ** 2 - 2 * z[1] ** 2
        assert abs(val[2] - expected_g) <= 1e-14

    def test_identity_block(self):
        prob = DaeProblem1(
            m=2, s=1, period=2 * np.pi,
            f=lambda t, x, y: np.zeros(2),
            g=lambda p, q: q,
            A=MatrixPath.constant(np.eye(2), 2 * np.pi),
            B=MatrixPath.constant(np.eye(1), 2 * np.pi),
            H=np.eye(2),
        )
        cmap = candidate_map(fixed_frame(prob))
        z = np.array([0.4, -0.2, 0.9])
        # with a drift, the first block is D0 = H - M = I
        assert norm_inf(cmap(z) - np.array([0.4, -0.2, 0.9])) <= 1e-12

    def test_second_order_uses_minus_m_squared(self):
        prob = load_fixture("rotating_surface_2nd")
        cmap = candidate_map(fixed_frame(prob))
        z = np.array([0.5, 0.25, 0.0])
        val = cmap(z)
        # -M^2 = I for the rotation frame
        assert abs(val[0] - 0.5) <= 1e-10 and abs(val[1] - 0.25) <= 1e-10


def _seeding_problem(name):
    # A degree fixture as the degree layer sees it (semilinear reduced), or
    # a Python-callable problem with no constraint derivatives
    if name == "semilinear_4x4":
        return reduce_semilinear(load_fixture(name))
    if name == "python_callables":
        rs = load_fixture("rotating_surface")
        return DaeProblem1(
            m=2, s=1, period=2 * np.pi,
            f=lambda t, x, y: np.zeros(2),
            g=lambda p, q: np.array([q[0] ** 3 + np.sin(q[0]) - p[0] ** 2 - 2.0 * p[0] * p[1]]),
            A=rs.A, B=rs.B,
        )
    return load_fixture(name)


class TestSeedingMapJacobian:
    PROBLEMS = ["commuting_h", "rotating_surface", "rotating_surface_2nd", "semilinear_4x4",
                "python_callables"]

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_matches_central_differences(self, name):
        prob = _seeding_problem(name)
        sys_t = fixed_frame(prob)
        dim = prob.m + prob.s
        points = np.random.default_rng(7).uniform(-1.5, 1.5, size=(4, dim))
        for fun in (candidate_map(sys_t), seeding_map(sys_t)):
            for z in points:
                ref = central_jacobian(fun, z)
                assert norm_inf(fun.jac(z) - ref) <= 1e-6 * max(1.0, norm_inf(ref))

    @pytest.fixture
    def fd_calls(self, monkeypatch):
        # every forward-difference Jacobian, through any module that binds it
        calls = []
        fd = linalg.fd_jacobian

        def counted(*args, **kwargs):
            calls.append(1)
            return fd(*args, **kwargs)

        for module in (linalg, degree, transform):
            monkeypatch.setattr(module, "fd_jacobian", counted)
        return calls

    def test_degree_both_differences_nothing(self, fd_calls, capsys):
        assert main(["degree", "rotating_surface", "--method", "both"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True
        assert fd_calls == []

    def test_branch_seeds_differences_nothing(self, fd_calls):
        (seed,) = branch_seeds(load_fixture("commuting_h"), Box.cube(2.0, 3))
        assert norm_inf(seed.point) <= 1e-10 and fd_calls == []

    @pytest.mark.parametrize("name", ["commuting_h", "rotating_surface", "rotating_surface_2nd",
                                      "semilinear_4x4"])
    def test_maps_carry_their_jacobian_to_every_entry_point(self, name, fd_calls, capsys):
        # the plain calls, with no Jacobian passed, difference nothing and
        # certify what the CLI certifies
        assert main(["degree", name, "--method", "both"]) == 0
        cli_out = json.loads(capsys.readouterr().out)
        sys_t = fixed_frame(_seeding_problem(name))
        box = Box.cube(2.0, sys_t.m + sys_t.s)
        assert json.loads(to_json(degree_generic(candidate_map(sys_t), box).to_dict())) == \
            cli_out["generic"]
        assert json.loads(to_json(degree_reduced(candidate_map(sys_t), box).to_dict())) == \
            cli_out["reduced"]
        zeros = locate_zeros(seeding_map(sys_t), box)
        assert json.loads(to_json([z.to_dict() for z in zeros])) == cli_out["generic"]["zeros"]
        assert fd_calls == []

    def test_plain_callable_falls_back_to_differences(self, fd_calls):
        cert = degree_generic(lambda z: z, Box.cube(1.0, 2))
        assert cert.degree == 1 and len(fd_calls) > 0


class TestZerosOfReduced:
    # Zeros of the section q -> g(0, q): located directly, and as the
    # eta block of the reduction shortcut's zeros (at xi = 0, identity block).
    @staticmethod
    def section_zeros(g, radius):
        located = locate_zeros(lambda q: g(np.zeros(1), q), Box.cube(radius, 1))
        cert = degree_reduced(block_map(np.eye(1), g), Box.cube(radius, 2))
        assert [tuple(z.point) for z in cert.zeros] == [(0.0, z.point[0]) for z in located]
        assert [z.sign for z in cert.zeros] == [z.sign for z in located]
        return located

    def test_cubic_single_zero(self):
        zs = self.section_zeros(lambda p, q: q**3 + q, 2.0)
        assert len(zs) == 1
        assert abs(zs[0].point[0]) <= 1e-10
        assert zs[0].sign == 1

    def test_linear(self):
        zs = self.section_zeros(lambda p, q: q, 1.0)
        assert len(zs) == 1 and zs[0].sign == 1

    def test_quintic(self):
        zs = self.section_zeros(lambda p, q: q**5 + q, 2.0)
        assert len(zs) == 1 and zs[0].sign == 1

    def test_three_zeros_with_signs(self):
        zs = self.section_zeros(lambda p, q: q**3 - q, 2.0)
        points = sorted(z.point[0] for z in zs)
        assert np.allclose(points, [-1.0, 0.0, 1.0], atol=1e-9)
        signs = [z.sign for z in sorted(zs, key=lambda z: z.point[0])]
        assert signs == [1, -1, 1]


class TestDegreeReduced:
    def test_rotating_example(self):
        prob = load_fixture("rotating_surface")
        cert = degree_reduced(block_map(ROT_M, prob.g, prob.g_jac1, prob.g_jac2), Box.cube(2.0, 3))
        assert cert.degree == 1
        assert cert.boundary_margin > 0
        assert cert.method == "reduced"

    def test_identity(self):
        cert = degree_reduced(block_map(np.eye(1), lambda p, q: q), Box.cube(1.0, 2))
        assert cert.degree == 1

    def test_quintic_with_rotation_block(self):
        cert = degree_reduced(block_map(np.array([[0.0, -1.0], [1.0, 0.0]]), lambda p, q: q**5 + q),
                              Box.cube(2.0, 3))
        assert cert.degree == 1

    @pytest.mark.parametrize("g", [lambda p, q: q**3 + q, lambda p, q: q**5 + q])
    def test_zero_count_law(self, g):
        # with dg/dq invertible throughout the box, |degree| equals the
        # number of located zeros
        cert = degree_reduced(block_map(np.eye(2), g), Box.cube(2.0, 3))
        assert abs(cert.degree) == len(cert.zeros)

    def test_negative_block(self):
        # det < 0 flips the count
        cert = degree_reduced(block_map(np.array([[-1.0]]), lambda p, q: q), Box.cube(1.0, 2))
        assert cert.degree == -1

    def test_singular_block_rejected(self):
        with pytest.raises(SingularMatrixError):
            degree_reduced(block_map(np.zeros((1, 1)), lambda p, q: q), Box.cube(1.0, 2))


class TestDegreeGeneric:
    def test_identity_map(self):
        cert = degree_generic(lambda z: z, Box.cube(1.0, 3))
        assert cert.degree == 1
        assert len(cert.zeros) == 1

    def test_rotating_candidate_map(self):
        prob = load_fixture("rotating_surface")
        cert = degree_generic(candidate_map(fixed_frame(prob)), Box.cube(2.0, 3))
        assert cert.degree == 1

    def test_flat_zero_is_degenerate(self):
        with pytest.raises(DegenerateZeroError):
            degree_generic(lambda q: q**3, Box.cube(1.0, 1))

    def test_cubic_three_zeros(self):
        cert = degree_generic(lambda q: q**3 - q, Box.cube(2.0, 1))
        assert cert.degree == 1
        pts = sorted(z.point[0] for z in cert.zeros)
        assert np.allclose(pts, [-1, 0, 1], atol=1e-9)
        signs = [z.sign for z in sorted(cert.zeros, key=lambda z: z.point[0])]
        # brute-force oracle: sign(3 q^2 - 1) at each root
        assert signs == [int(np.sign(3 * q * q - 1)) for q in (-1.0, 0.0, 1.0)]

    def test_boundary_zero_rejected(self):
        with pytest.raises(BoundaryZeroError):
            degree_generic(lambda q: q - 1.0, Box(np.array([-1.0]), np.array([1.0])))

    def test_suspect_incomplete(self):
        # both components change sign across a cell, but the common zero
        # set is a line the (singular) Newton never certifies
        def fun(z):
            return np.array([z[0] - 0.05, 0.05 - z[0]])

        with pytest.raises((SuspectIncompleteError, DegenerateZeroError)):
            degree_generic(fun, Box.cube(2.0, 2))

    def test_scaling_invariance(self):
        prob = load_fixture("rotating_surface")
        cmap = candidate_map(fixed_frame(prob))
        box = Box.cube(2.0, 3)
        base = degree_generic(cmap, box).degree
        scaled = degree_generic(lambda z: 3.7 * cmap(z), box).degree
        assert scaled == base

    def test_single_component_negation_flips_sign(self):
        prob = load_fixture("rotating_surface")
        cmap = candidate_map(fixed_frame(prob))

        def negated(z):
            val = cmap(z)
            val[0] = -val[0]
            return val

        box = Box.cube(2.0, 3)
        assert degree_generic(negated, box).degree == -degree_generic(cmap, box).degree


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_block_and_polynomial(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 3))
        d0 = rng.normal(size=(m, m))
        while abs(np.linalg.det(d0)) < 0.3:
            d0 = rng.normal(size=(m, m))
        roots = np.sort(rng.uniform(-1.2, 1.2, size=3))
        while np.min(np.diff(roots)) < 0.3:
            roots = np.sort(rng.uniform(-1.2, 1.2, size=3))

        def g(p, q):
            return (q - roots[0]) * (q - roots[1]) * (q - roots[2])

        box = Box.cube(2.0, m + 1)
        red = degree_reduced(block_map(d0, g), box, grid=7)
        gen = degree_generic(
            lambda z: np.concatenate([d0 @ z[:m], np.atleast_1d(g(z[:m], z[m:]))]),
            box, grid=7,
        )
        # enumeration oracle: sign(det d0) times the alternating sum over roots
        expected = int(np.sign(np.linalg.det(d0))) * 1
        assert red.degree == gen.degree == expected


class TestSkewFrameDeterminant:
    @pytest.mark.parametrize("name", ["rotating_surface", "commuting_h"])
    def test_det_m_nonnegative(self, name):
        from daecont.linalg import determinant

        prob = load_fixture(name)
        m_mat = frame_audit(prob.A).M
        assert determinant(m_mat) >= 0


class TestAveragedMap:
    def test_constant_forcing(self):
        prob = DaeProblem1(
            m=1, s=1, period=2 * np.pi,
            f=lambda t, x, y: np.array([x[0] + 2 * y[0]]),
            g=lambda p, q: q - p,
            A=MatrixPath.constant(np.eye(1), 2 * np.pi),
            B=MatrixPath.constant(np.eye(1), 2 * np.pi),
        )
        val = averaged_map_fn(fixed_frame(prob))(np.array([0.5, 0.25]))
        assert abs(val[0] - (0.5 + 2 * 0.25)) <= 1e-12
        assert abs(val[1] - (0.25 - 0.5)) <= 1e-12

    def test_zero_mean_forcing(self):
        prob = DaeProblem1(
            m=2, s=1, period=2 * np.pi,
            f=lambda t, x, y: np.array([np.cos(t), np.sin(t)]),
            g=lambda p, q: q,
            A=MatrixPath.constant(np.eye(2), 2 * np.pi),
            B=MatrixPath.constant(np.eye(1), 2 * np.pi),
        )
        val = averaged_map_fn(fixed_frame(prob))(np.array([0.3, 0.4, 0.7]))
        assert norm_inf(val[:2]) <= 1e-12
        assert abs(val[2] - 0.7) <= 1e-14

    def test_semilinear_audit_consistency(self):
        red = reduce_semilinear(load_fixture("semilinear_4x4"))
        probes = [np.array([0.7, -0.3, 0.2, 0.5]), np.zeros(4)]
        from daecont.fixtures import AVERAGED_MAP_REFERENCES

        audit = averaged_map_audit(fixed_frame_first(red, validate=False), probes,
                                   AVERAGED_MAP_REFERENCES["semilinear_4x4"])
        assert audit["quadrature_gap"] <= 1e-10
        assert "reference_gap" in audit and "matches_reference" in audit

    def test_second_order_constant_frame_state_moves(self):
        # A = 1, B = 2 + sin(t): the constant frame state (0.5, 0.5) has
        # y = eta / B and ydot = -cos(t) eta / B^2, so f = ydot B^2 cos(t) - x
        # averages to -eta/2 - xi = -0.75 (zero velocities would give -0.5)
        b = MatrixPath(1, 2 * np.pi, lambda t: np.array([[2.0 + np.sin(t)]]),
                       d1=lambda t: np.array([[np.cos(t)]]))
        prob = DaeProblem2(
            m=1, s=1, period=2 * np.pi,
            f=lambda t, x, y, u, v: np.array([v[0] * (2.0 + np.sin(t)) ** 2 * np.cos(t) - x[0]]),
            g=lambda p, q: q - p,
            A=MatrixPath.constant(np.eye(1), 2 * np.pi), B=b,
        )
        sys_t = fixed_frame(prob)
        assert norm_inf(sys_t.D0) == 0.0
        val = seeding_map(sys_t)(np.array([0.5, 0.5]))
        assert abs(val[0] + 0.75) <= 1e-12
        assert val[1] == 0.0


class TestLocateZeros:
    def test_signs_reported(self):
        recs = locate_zeros(lambda q: np.array([q[0] ** 3 - q[0]]), Box.cube(2.0, 1))
        assert sorted(r.sign for r in recs) == [-1, 1, 1]


def _forwarding(fn):
    return lambda *args: fn(*args)


class TestBatchedSearch:
    """One Newton over all lattice starts: stacked forms when a problem has
    them, the point forms otherwise, the same certificate either way."""

    FIXTURES = ["commuting_h", "rotating_surface", "rotating_surface_2nd", "semilinear_4x4"]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_forwarding_model_callables_change_no_byte(self, name, capsys, monkeypatch):
        # wrappers like perfbench/tracing.py's replace g, d1g and d2g on the
        # problem; the stacked forms stay, so the search runs as before
        assert main(["degree", name, "--method", "both"]) == 0
        plain = capsys.readouterr().out

        def wrapped(build):
            def build_and_wrap(*args):
                prob = build(*args)
                for attr in ("f", "g", "d1g", "d2g"):
                    if callable(getattr(prob, attr, None)):
                        setattr(prob, attr, _forwarding(getattr(prob, attr)))
                return prob
            return build_and_wrap

        for attr in ("build_problem", "reduce_semilinear"):
            monkeypatch.setattr(cli, attr, wrapped(getattr(cli, attr)))
        assert main(["degree", name, "--method", "both"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("exact", [True, False])
    def test_newton_from_each_start_matches_newton_solve(self, exact):
        # the per-start loop the batched Newton replaced is the reference:
        # same iterates bit for bit (2x2 closed-form solves), same starts dropped
        def fun(z):
            return np.array([z[0] ** 3 - z[0] + 0.3 * z[1], z[1] ** 2 + z[0] * z[1] - 0.5])

        def jac(z):
            return np.array([[3.0 * z[0] ** 2 - 1.0, 0.3], [z[1], 2.0 * z[1] + z[0]]])

        if exact:
            fun.jac = jac
        lattice = Box.cube(2.0, 2).lattice(13)
        search = degree._search(fun)
        values = np.array([search[0](z) for z in lattice])
        points, converged = degree._newton_all(*search[2:], lattice, values)
        config = linalg.NewtonConfig(max_iters=60, tol_residual=1e-12)
        for start, point, ok in zip(lattice, points, converged):
            try:
                ref = linalg.newton_solve(fun, jac if exact else None, start, config)
            except (NoConvergenceError, SingularJacobianError):
                assert not ok
                continue
            assert ok and point.tobytes() == ref.tobytes()
        assert converged.any()

    def test_plain_callable_twin_certifies_the_same(self):
        # rotating_surface with Python callables: no stacked forms, so the
        # point forms enter the batched Newton one point at a time
        prob = load_fixture("rotating_surface")
        twin = DaeProblem1(
            m=2, s=1, period=prob.period, f=prob.f, A=prob.A, B=prob.B,
            g=lambda p, q: np.array([q[0] ** 3 + q[0] - p[0] ** 2 - 2.0 * p[1] ** 2]),
            d1g=lambda p, q: np.array([[-2.0 * p[0], -4.0 * p[1]]]),
            d2g=lambda p, q: np.array([[3.0 * q[0] ** 2 + 1.0]]),
        )
        assert prob.g_arrays is not None and twin.g_arrays is None
        box = Box.cube(2.0, 3)
        for problem in (prob, twin):
            sys_t = fixed_frame(problem)
            cmap = candidate_map(sys_t)
            certs = (degree_reduced(cmap, box), degree_generic(cmap, box))
            if problem is prob:
                expected = certs
                continue
            for got, ref in zip(certs, expected):
                assert (got.degree, got.boundary_margin, len(got.zeros)) == \
                    (ref.degree, ref.boundary_margin, len(ref.zeros))
                for zero, ref_zero in zip(got.zeros, ref.zeros):
                    assert zero.sign == ref_zero.sign
                    assert norm_inf(zero.point - ref_zero.point) <= 1e-12

    def test_overflow_at_one_start_raises(self):
        # Newton from q = 1.5 (g' ~ 0.1) tries q ~ -28.8, where exp(q^2)
        # overflows; the lattice itself evaluates finitely
        text = problem_text("rotating_surface").replace(
            "q^3 + q - p1^2 - 2*p2^2", "sin(q) + 2 + 0.001*exp(q^2) - p1^2 - 2*p2^2")
        prob = build_problem(parse_problem(text))
        sys_t = fixed_frame(prob)
        cmap = candidate_map(sys_t)
        # the same map on point forms only: no g_arrays
        point_map = block_map(candidate_block(sys_t), prob.g, prob.g_jac1, prob.g_jac2)
        assert cmap.arrays is not None and point_map.arrays is None
        box = Box.cube(2.0, 3)
        for fun in (cmap, point_map):
            for run in (degree_reduced, degree_generic):
                with pytest.raises(NonfiniteResultError):
                    run(fun, box)
