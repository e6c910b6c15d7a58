import json
from dataclasses import replace

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
    EvaluationError,
    NoConvergenceError,
    NonfiniteResultError,
    SingularJacobianError,
    SingularMatrixError,
    SuspectIncompleteError,
)
from daecont.fixtures import load_fixture, problem_text
from daecont.linalg import NewtonConfig, norm_inf
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
from oracles import (
    averaged_map,
    central_jacobian,
    certificate_bits,
    degree_generic_points,
    degree_reduced_points,
    newton_point,
    newton_stacked_reference,
)

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


class TestReplacedConstraint:
    """A problem whose ``g`` is replaced certifies the new constraint: every
    form of ``g`` the degree layer evaluates goes with it."""

    @staticmethod
    def certified(prob):
        box = Box.cube(2.0, 3)
        cmap = candidate_map(fixed_frame(prob))
        certs = (degree_generic(cmap, box), degree_reduced(cmap, box))
        seeds = branch_seeds(prob, box)
        for zero in [z for cert in certs for z in cert.zeros] + seeds:
            assert norm_inf(cmap(zero.point)) <= 1e-12  # a zero of the map itself
        return to_json([cert.to_dict() for cert in certs] + [seed.to_dict() for seed in seeds])

    @pytest.mark.parametrize("how", ["assignment", "dataclasses.replace"])
    def test_shifted_constraint_certifies_as_its_own_problem(self, how):
        shifted = _with_constraint("q^3 + q - p1^2 - 2*p2^2 - 0.5")
        prob = load_fixture("rotating_surface")
        if how == "assignment":
            prob.g = shifted.g
        else:
            prob = replace(prob, g=shifted.g)
        assert self.certified(prob) == self.certified(shifted)


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

        for module in (linalg, transform):
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


def moving_b_second_order():
    # order 2, m = s = 1: A = 1, B = 2 + sin(t), f = ydot B^2 cos(t) - x
    b = MatrixPath(1, 2 * np.pi, lambda t: np.array([[2.0 + np.sin(t)]]),
                   d1=lambda t: np.array([[np.cos(t)]]))
    return DaeProblem2(
        m=1, s=1, period=2 * np.pi,
        f=lambda t, x, y, u, v: np.array([v[0] * (2.0 + np.sin(t)) ** 2 * np.cos(t) - x[0]]),
        g=lambda p, q: q - p,
        A=MatrixPath.constant(np.eye(1), 2 * np.pi), B=b,
    )


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
        assert audit["matches_reference"] is True and audit["reference_gap"] <= 1e-12

    def test_second_order_constant_frame_state_moves(self):
        # A = 1, B = 2 + sin(t): the constant frame state (0.5, 0.5) has
        # y = eta / B and ydot = -cos(t) eta / B^2, so f = ydot B^2 cos(t) - x
        # averages to -eta/2 - xi = -0.75 (zero velocities would give -0.5)
        sys_t = fixed_frame(moving_b_second_order())
        assert norm_inf(sys_t.D0) == 0.0
        val = seeding_map(sys_t)(np.array([0.5, 0.5]))
        assert abs(val[0] + 0.75) <= 1e-12
        assert val[1] == 0.0


def _scalar_linear(forcing="cos(t) - x"):
    return build_problem(parse_problem(problem_text("scalar_linear").replace("cos(t) - x", forcing)))


def _called_through(prob):
    # a copy whose forcing is a plain callable: the kernel calls it through
    # its adapter instead of inlining its trees
    return replace(prob, f=lambda *args: prob.f(*args))


# check's probes of the reduced semilinear_4x4 (rank 2)
CHECK_PROBES = [np.array(p) for p in ([0.7, -0.3, 0.2, 0.5], [1.0, 1.0, 1.0, 0.0], [0.0] * 4)]
LINE_PROBES = [np.array(p) for p in ([0.3, 0.2], [-1.5, 0.7], [0.0, 0.0], [1.9, -1.9])]


class TestEmittedAveragedMap:
    """The averaged map runs the kernel's emitted forcing, on the inlined
    route of compiled trees and on the adapter route of Python callables;
    the numpy forcing of the test oracles is its reference."""

    CASES = {
        "scalar_linear": lambda: (fixed_frame(_scalar_linear()), LINE_PROBES),
        "semilinear_4x4": lambda: (fixed_frame_first(reduce_semilinear(load_fixture("semilinear_4x4")),
                                                     validate=False), CHECK_PROBES),
        "second_order": lambda: (fixed_frame(moving_b_second_order()),
                                 [np.array([0.5, 0.5]), np.array([-0.3, 1.2])]),
        "python_callables": lambda: (fixed_frame(_called_through(_scalar_linear())), LINE_PROBES),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_numpy_forcing(self, name):
        sys_t, probes = self.CASES[name]()
        inlined = getattr(sys_t.problem.f, "fragments", None) is not None
        assert inlined == (name in ("scalar_linear", "semilinear_4x4"))
        omega = averaged_map_fn(sys_t)
        for z in probes:
            got, want = omega(z), averaged_map(sys_t, z)
            assert got.shape == want.shape
            assert norm_inf(got - want) <= 1e-13 * max(1.0, norm_inf(want)), z

    @pytest.mark.parametrize("route", ["inlined", "python_callables"])
    def test_nonfinite_forcing_is_named(self, route):
        # x^300 * x^300 overflows to inf without raising; the forcing check
        # names it at the model call, before A(t) f
        prob = _scalar_linear("x^300*x^300")
        sys_t = fixed_frame(prob if route == "inlined" else _called_through(prob))
        messages = []
        for evaluate in (averaged_map_fn(sys_t), lambda z: averaged_map(sys_t, z)):
            with pytest.raises(NonfiniteResultError, match=r"^forcing f at t = 0\.0 is \[inf\]: ") as caught:
                evaluate(np.array([10.0, 0.5]))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_degree_certificate_of_the_numpy_forcing(self):
        # degree, signs, zero count and boundary margin exact, points within 1e-12
        sys_t, box = fixed_frame(load_fixture("scalar_linear")), Box.cube(2.0, 2)
        got = degree_generic(averaged_map_fn(sys_t), box)
        want = degree_generic(lambda z: averaged_map(sys_t, z), box)
        assert (got.degree, got.boundary_margin) == (want.degree, want.boundary_margin)
        assert [z.sign for z in got.zeros] == [z.sign for z in want.zeros] and got.zeros
        for z, ref in zip(got.zeros, want.zeros):
            assert norm_inf(z.point - ref.point) <= 1e-12


class TestModelErrors:
    """A Python callable model's ValueError leaves the degree layer as
    EvaluationError naming it, chained to it, as it leaves a march."""

    def certify(self, certify, the_map, box):
        with pytest.raises(EvaluationError, match=r"^model raised ValueError: injected$") as caught:
            certify(the_map, box)
        assert type(caught.value.__cause__) is ValueError

    def test_forcing_of_the_averaged_map(self):
        # the map's forcing runs through March.forcing
        def forcing(t, x, y):
            if x[0] > 0.5:
                raise ValueError("injected")
            return np.array([np.cos(t) - x[0]])

        prob = DaeProblem1(m=1, s=1, period=2 * np.pi, f=forcing, g=lambda p, q: q**3 + q - p,
                           A=MatrixPath.constant(np.eye(1), 2 * np.pi),
                           B=MatrixPath.constant(np.eye(1), 2 * np.pi))
        self.certify(degree_generic, seeding_map(fixed_frame(prob)), Box.cube(1.0, 2))

    @pytest.mark.parametrize("certify", [degree_generic, degree_reduced])
    @pytest.mark.parametrize("raising", ["g", "d2g"])
    def test_constraint_of_the_candidate_map(self, certify, raising):
        # g on the lattice, or d2g in the Jacobian (degree_reduced's eta_jac)
        rs = load_fixture("rotating_surface")

        def injected(model):
            def raising(p, q):
                if q[0] > 0.5:
                    raise ValueError("injected")
                return model(p, q)

            return raising

        models = {"g": lambda p, q: np.array([q[0] ** 3 + q[0] - p[0] ** 2 - 2.0 * p[1] ** 2]),
                  "d1g": lambda p, q: np.array([[-2.0 * p[0], -4.0 * p[1]]]),
                  "d2g": lambda p, q: np.array([[3.0 * q[0] ** 2 + 1.0]])}
        models[raising] = injected(models[raising])
        prob = DaeProblem1(m=2, s=1, period=2 * np.pi, f=rs.f, A=rs.A, B=rs.B, **models)
        self.certify(certify, candidate_map(fixed_frame(prob)), Box.cube(1.0, 3))


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
        # the per-start loop the stacked Newton replaced is the reference:
        # same iterates bit for bit, same starts dropped with the same
        # errors; 2 unknowns take the closed-form solves, 3 the elimination.
        # The full-array stacked body it replaced gives the same bytes for
        # every start, failed ones included, and raises the same errors.
        def fun2(z):
            return np.array([z[0] ** 3 - z[0] + 0.3 * z[1], z[1] ** 2 + z[0] * z[1] - 0.5])

        def jac2(z):
            return np.array([[3.0 * z[0] ** 2 - 1.0, 0.3], [z[1], 2.0 * z[1] + z[0]]])

        def fun3(z):
            return np.array([z[0] ** 3 - z[0] + 0.3 * z[1], z[1] ** 2 + z[0] * z[1] - 0.5 + 0.1 * z[2],
                             z[2] ** 2 - z[0] * z[1] - 0.2])

        def jac3(z):
            return np.array([[3.0 * z[0] ** 2 - 1.0, 0.3, 0.0], [z[1], 2.0 * z[1] + z[0], 0.1],
                             [-z[1], -z[0], 2.0 * z[2]]])

        # fun3 has no zero where z0 z1 < -0.2: starts there exhaust the budget
        batches = [(fun2, jac2, Box.cube(2.0, 2).lattice(13), degree.ZERO_NEWTON),
                   (fun3, jac3, Box.cube(2.0, 3).lattice(5), degree.ZERO_NEWTON),
                   (fun2, jac2, np.array([[0.5, -0.5]]), degree.ZERO_NEWTON),  # a stack of one
                   (fun3, jac3, np.array([[0.3, 0.8, -0.4]]), degree.ZERO_NEWTON),
                   *_newton_batches(2), *_newton_batches(3)]
        starts = failed = raised = 0
        for fun, jac, lattice, cfg in batches:
            if exact:
                fun.jac = jac
            maps = degree._stacked(fun)
            got = _stacked_newton(linalg.newton_stacked, maps, lattice, cfg)
            ref = _stacked_newton(newton_stacked_reference, maps, lattice, cfg)
            assert _newton_bits(got) == _newton_bits(ref)
            points = []
            for start in lattice:
                try:
                    points.append(newton_point(fun, jac if exact else None, start, cfg))
                except (EvaluationError, NoConvergenceError, SingularJacobianError) as exc:
                    points.append(exc)
            if isinstance(got, Exception):  # the batch raises the error of one of its starts
                raised += 1
                assert (type(got), str(got)) in {(type(p), str(p)) for p in points
                                                 if isinstance(p, Exception)}
                continue
            starts += len(lattice)
            for point, error, ref_point in zip(*got, points):
                if isinstance(ref_point, Exception):
                    assert type(error) is type(ref_point) and str(error) == str(ref_point)
                    failed += 1
                else:
                    assert error is None and point.tobytes() == ref_point.tobytes()
        assert 0 < failed < starts and raised == 1

    @pytest.mark.parametrize("name, work", [
        ("commuting_h", [(7, 42, 7, 42), (7, 3482, 7, 3482)]),
        ("rotating_surface", [(6, 42, 6, 42), (17, 5376, 9, 4656)]),
    ])
    def test_newton_work_is_pinned(self, name, work, capsys, monkeypatch):
        # per batched Newton run of `degree --method both` (the reduced
        # section, then the generic lattice): calls of the map and the rows
        # it evaluates, calls of the Jacobian and its rows.  A change to the
        # search that keeps its output but not its work shows here.
        runs = []

        def counted(fun, jac, x0, r0, cfg):
            count = [0, 0, 0, 0]

            def fun_counted(x):
                count[0:2] = count[0] + 1, count[1] + len(x)
                return fun(x)

            def jac_counted(x, r):
                count[2:4] = count[2] + 1, count[3] + len(x)
                return jac(x, r)

            runs.append(count)
            return linalg.newton_stacked(fun_counted, jac_counted, x0, r0, cfg)

        monkeypatch.setattr(degree, "newton_stacked", counted)
        assert main(["degree", name, "--method", "both"]) == 0
        capsys.readouterr()
        assert [tuple(count) for count in runs] == work

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
        assert hasattr(prob.g, "arrays") and not hasattr(twin.g, "arrays")
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

    def test_section_differences_only_the_eta_block(self, monkeypatch):
        # a plain-callable constraint without d1g/d2g: each Newton step of the
        # section forms the difference Jacobian by eta alone (43 of them;
        # 86 when the discarded d1g block was formed too)
        prob = load_fixture("rotating_surface")
        twin = DaeProblem1(
            m=2, s=1, period=prob.period, f=prob.f, A=prob.A, B=prob.B,
            g=lambda p, q: np.array([q[0] ** 3 + q[0] - p[0] ** 2 - 2.0 * p[1] ** 2]),
        )
        cmap = candidate_map(fixed_frame(twin))
        box = Box.cube(2.0, 3)
        plain = to_json(degree_reduced(cmap, box).to_dict())
        columns = []
        fd = transform.fd_jacobian

        def counted(fun, x, *args, **kwargs):
            columns.append(np.size(x))
            return fd(fun, x, *args, **kwargs)

        monkeypatch.setattr(transform, "fd_jacobian", counted)
        assert to_json(degree_reduced(cmap, box).to_dict()) == plain
        assert set(columns) == {twin.s} and len(columns) == 43

    def test_overflow_at_one_start_raises(self):
        # Newton from q = 1.5 (g' ~ 0.1) tries q ~ -28.8, where exp(q^2)
        # overflows; the lattice itself evaluates finitely
        text = problem_text("rotating_surface").replace(
            "q^3 + q - p1^2 - 2*p2^2", "sin(q) + 2 + 0.001*exp(q^2) - p1^2 - 2*p2^2")
        prob = build_problem(parse_problem(text))
        sys_t = fixed_frame(prob)
        cmap = candidate_map(sys_t)
        # the same map on point forms only: g_jac1 and g_jac2 carry no arrays
        point_map = block_map(candidate_block(sys_t), prob.g, prob.g_jac1, prob.g_jac2)
        assert cmap.arrays is not None and point_map.arrays is None
        box = Box.cube(2.0, 3)
        for fun in (cmap, point_map):
            for run in (degree_reduced, degree_generic):
                with pytest.raises(NonfiniteResultError):
                    run(fun, box)


def _newton_batches(dim):
    # Lattice batches of toy maps in ``dim`` unknowns, each driving some of
    # its starts down one exit of the stacked Newton: a Jacobian singular
    # at every start on the first iteration; steps halved down to
    # NEWTON_DAMPING_MIN and taken there until the budget is spent; a step
    # too small to move, which stagnates; a budget of 3 iterations on a
    # Newton that halves the residual per iteration (the start at the zero
    # converges at once); and a NaN value, which spends the budget with the
    # closed-form solves and makes the elimination raise.  With forward
    # differences the Jacobians are the maps' own, so only the singular and
    # NaN batches keep their exits there.
    eye, lattice = np.eye(dim), Box.cube(1.0, dim).lattice(5 if dim == 2 else 3)
    maps = [(lambda z: np.append(z[1:] - 1.0, z[1:].sum() + 3.0),
             lambda z: np.vstack([eye[1:], eye[1:].sum(axis=0)]), degree.ZERO_NEWTON),
            (lambda z: z.copy(), lambda z: -eye if z[0] > 0.0 else eye, degree.ZERO_NEWTON),
            (lambda z: z - 1.0, lambda z: 1e20 * eye if z[0] > 0.0 else eye, degree.ZERO_NEWTON),
            (lambda z: z - 1.0, lambda z: 2.0 * eye, NewtonConfig(max_iters=3)),
            (lambda z: np.full(dim, np.nan) if z[0] < -0.5 else z - 0.5, lambda z: eye,
             degree.ZERO_NEWTON)]
    return [(fun, jac, lattice, cfg) for fun, jac, cfg in maps]


def _stacked_newton(newton, maps, starts, cfg):
    # (x, errors) of a stacked Newton, or the error it raised
    try:
        return newton(*maps, starts, maps[0](starts), cfg)
    except EvaluationError as exc:
        return exc


def _newton_bits(run):
    if isinstance(run, Exception):
        return type(run), str(run)
    x, errors = run
    return x.tobytes(), [None if e is None else (type(e), str(e)) for e in errors]


def _rotating_twin():
    # rotating_surface with its constraint and its blocks as Python
    # callables: the map has no stacked forms
    prob = load_fixture("rotating_surface")
    return DaeProblem1(
        m=2, s=1, period=prob.period, f=prob.f, A=prob.A, B=prob.B,
        g=lambda p, q: np.array([q[0] ** 3 + q[0] - p[0] ** 2 - 2.0 * p[1] ** 2]),
        d1g=lambda p, q: np.array([[-2.0 * p[0], -4.0 * p[1]]]),
        d2g=lambda p, q: np.array([[3.0 * q[0] ** 2 + 1.0]]),
    )


def _with_constraint(expr):
    # rotating_surface compiled with another constraint g(p, q)
    text = problem_text("rotating_surface").replace("q^3 + q - p1^2 - 2*p2^2", expr)
    return build_problem(parse_problem(text))


def _both_methods(prob):
    # (method, map, library call, point-by-point reference) as the CLI pairs them
    sys_t = fixed_frame(prob)
    return sys_t, Box.cube(2.0, sys_t.m + sys_t.s), [
        ("generic", seeding_map(sys_t), degree_generic, degree_generic_points),
        ("reduced", candidate_map(sys_t), degree_reduced, degree_reduced_points),
    ]


class TestStackedLayer:
    """The lattice survey, both boundary margins and the classification of
    the located zeros run on the map's stacked pair; the point-by-point
    layer they replaced (tests/oracles.py) is the reference."""

    PROBLEMS = {**{name: (lambda name=name: _seeding_problem(name))
                   for name in TestBatchedSearch.FIXTURES + ["python_callables"]},
                "rotating_twin": _rotating_twin}

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_certificates_are_the_point_layers_bit_for_bit(self, name):
        _, box, methods = _both_methods(self.PROBLEMS[name]())
        for method, fun, run, reference in methods:
            if name == "python_callables" and method == "reduced":
                continue  # its averaged map seeds: no linear block
            got = run(fun, box)
            assert got.zeros and certificate_bits(got) == certificate_bits(reference(fun, box)), method

    def test_averaged_map_is_the_point_layers_bit_for_bit(self):
        sys_t = fixed_frame(load_fixture("scalar_linear"))
        fun, box = seeding_map(sys_t), Box.cube(2.0, 2)
        assert getattr(fun, "arrays", None) is None
        got = degree_generic(fun, box)
        assert got.zeros and certificate_bits(got) == certificate_bits(degree_generic_points(fun, box))

    @pytest.mark.parametrize("grid", [9, 17])
    def test_transcendental_constraint_within_tolerance(self, grid):
        # np.cos/np.exp and math.cos/math.exp may round apart in the last
        # bit: at one zero the residual reads 0.0 on stacks and 5.6e-17 on
        # points.  Degree, signs and zero count stay exact; points, det,
        # residual and margin move at most within the stated tolerances.
        prob = _with_constraint("q^3 - 2*q + 0.1*cos(5*q) + 0.3*exp(q/3) - 0.3 - p1^2 - 2*p2^2")
        _, box, methods = _both_methods(prob)
        for method, fun, run, reference in methods:
            got, ref = run(fun, box, grid), reference(fun, box, grid)
            assert (got.degree, [z.sign for z in got.zeros]) == (ref.degree, [z.sign for z in ref.zeros])
            assert len(got.zeros) == 3
            assert abs(got.boundary_margin - ref.boundary_margin) <= 1e-15 * ref.boundary_margin
            for z, z_ref in zip(got.zeros, ref.zeros):
                assert norm_inf(z.point - z_ref.point) <= 1e-12
                assert abs(z.det - z_ref.det) <= 1e-12 * abs(z_ref.det)
                assert abs(z.residual - z_ref.residual) <= 1e-15

    @pytest.fixture
    def point_calls(self, monkeypatch):
        # every call of a candidate map's point forms, the map or its jac
        calls = []
        build = degree._block_map

        def counted(*args):
            the_map = build(*args)

            def point(z):
                calls.append("map")
                return the_map(z)

            point.__dict__.update(the_map.__dict__)
            if the_map.jac is not None:
                point.jac = lambda z: calls.append("jac") or the_map.jac(z)
            return point

        monkeypatch.setattr(degree, "_block_map", counted)
        return calls

    @pytest.mark.parametrize("name", TestBatchedSearch.FIXTURES)
    def test_degree_both_calls_no_point_form(self, name, point_calls, capsys):
        assert main(["degree", name, "--method", "both"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True
        assert point_calls == []

    def test_branch_seeds_calls_no_point_form(self, point_calls):
        prob = load_fixture("rotating_surface")
        (seed,) = branch_seeds(prob, Box.cube(2.0, 3))
        assert point_calls == []
        # the hook sees a point call: continue_branch's seed test makes one
        assert norm_inf(seeding_map(fixed_frame(prob))(seed.point)) <= 1e-12
        assert point_calls == ["map"]

    @pytest.mark.parametrize("flip", [1.0, -1.0])
    def test_first_failing_zero_in_lattice_order_raises(self, flip):
        # q^2 (q - 1): a flat zero at 0 and a zero at 1, 1e-7 inside a face
        # (no lattice node lies on it); flipped, that zero comes first
        fun = lambda q: (flip * q) ** 2 * (flip * q - 1.0)
        box = Box(np.array([-1.0 - 1e-7 * (flip < 0)]), np.array([1.0 + 1e-7 * (flip > 0)]))
        raised = []
        for run in (degree_generic, degree_generic_points):
            with pytest.raises((BoundaryZeroError, DegenerateZeroError)) as caught:
                run(fun, box)
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] is (DegenerateZeroError if flip > 0 else BoundaryZeroError)

    def test_singular_step_is_degenerate(self):
        # |det J| = 1e12 clears DET_TOL, but not the 2x2 pivot test
        # (1e-13 ||J||)^2 = 1e14: the zero at the lattice node 0 (every
        # other start stops singular) is degenerate
        fun = lambda z: np.array([1e20 * z[0], 1e-8 * z[1]])
        raised = []
        for run in (degree_generic, degree_generic_points):
            with pytest.raises(DegenerateZeroError, match=r"^2x2 system is singular$") as caught:
                run(fun, Box.cube(1.0, 2))
            raised.append(str(caught.value))
        assert raised[0] == raised[1]

    def test_no_zero_located(self):
        box = Box.cube(1.0, 2)
        for fun, run, reference in ((lambda z: z + 5.0, degree_generic, degree_generic_points),
                                    (block_map(np.eye(1), lambda p, q: q + 5.0), degree_reduced,
                                     degree_reduced_points)):
            got = run(fun, box)
            assert (got.degree, got.zeros) == (0, [])
            assert certificate_bits(got) == certificate_bits(reference(fun, box))

    def test_empty_face_set_and_empty_zero_stack(self):
        # every lattice has face nodes (its corners); an empty face set has
        # no least norm, and an empty stack of zeros evaluates nothing
        assert degree._boundary_margin(np.empty((0, 3))) == np.inf

        def never(*args):
            raise AssertionError("an empty stack is not evaluated")

        assert degree._classify((never, never), np.empty((0, 2)), Box.cube(1.0, 2)) == []

    def test_overflow_at_lattice_nodes_raises(self):
        # 1e-300 * p1^1000 * p1^1000 overflows where |p1| >= 1.5: the float
        # target gives inf there without raising, the array target raises.
        # The point layer certified the reduced degree from the finite face
        # nodes; the stacked margin and survey raise.  The generic point
        # layer raised already, from its Newton on the stacked pair.
        prob = _with_constraint("q^3 + q - p1^2 - 2*p2^2 + 1e-300*(p1^1000*p1^1000)")
        _, box, methods = _both_methods(prob)
        assert np.isinf(candidate_map(fixed_frame(prob))(np.array([2.0, 0.0, 0.0]))[2])
        for method, fun, run, reference in methods:
            with pytest.raises(NonfiniteResultError, match="overflow encountered in multiply"):
                run(fun, box)
            if method == "reduced":
                assert reference(fun, box).degree == 1
            else:
                with pytest.raises(NonfiniteResultError, match="overflow encountered in multiply"):
                    reference(fun, box)
