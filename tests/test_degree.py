import numpy as np
import pytest

from daecont.degree import (
    Box,
    averaged_map,
    averaged_map_audit,
    candidate_block,
    candidate_map,
    degree_generic,
    degree_reduced,
    locate_zeros,
    zeros_of_reduced,
)
from daecont.errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    SingularMatrixError,
    SuspectIncompleteError,
)
from daecont.fixtures import load_fixture
from daecont.linalg import norm_inf
from daecont.paths import MatrixPath, frame_audit
from daecont.semilinear import reduce_semilinear
from daecont.transform import DaeProblem1, fixed_frame, fixed_frame_first, fixed_frame_second

ROT_M = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
        assert box.lattice(5).shape == (25, 2)
        samples = box.boundary_samples(5)
        assert samples.shape == (20, 2)
        assert all(box.boundary_distance(p) == 0.0 for p in samples)

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
        cmap = candidate_map(prob)
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
        cmap = candidate_map(prob)
        z = np.array([0.4, -0.2, 0.9])
        # with a drift, the first block is D0 = H - M = I
        assert norm_inf(cmap(z) - np.array([0.4, -0.2, 0.9])) <= 1e-12

    def test_second_order_uses_minus_m_squared(self):
        prob = load_fixture("rotating_surface_2nd")
        cmap = candidate_map(prob)
        z = np.array([0.5, 0.25, 0.0])
        val = cmap(z)
        # -M^2 = I for the rotation frame
        assert abs(val[0] - 0.5) <= 1e-10 and abs(val[1] - 0.25) <= 1e-10


class TestZerosOfReduced:
    def test_cubic_single_zero(self):
        zs = zeros_of_reduced(lambda p, q: q**3 + q, Box.cube(2.0, 1), m=1)
        assert len(zs) == 1
        assert abs(zs[0].point[0]) <= 1e-10
        assert zs[0].sign == 1

    def test_linear(self):
        zs = zeros_of_reduced(lambda p, q: q, Box.cube(1.0, 1), m=1)
        assert len(zs) == 1 and zs[0].sign == 1

    def test_quintic(self):
        zs = zeros_of_reduced(lambda p, q: q**5 + q, Box.cube(2.0, 1), m=1)
        assert len(zs) == 1 and zs[0].sign == 1

    def test_three_zeros_with_signs(self):
        zs = zeros_of_reduced(lambda p, q: q**3 - q, Box.cube(2.0, 1), m=1)
        points = sorted(z.point[0] for z in zs)
        assert np.allclose(points, [-1.0, 0.0, 1.0], atol=1e-9)
        signs = [z.sign for z in sorted(zs, key=lambda z: z.point[0])]
        assert signs == [1, -1, 1]


class TestDegreeReduced:
    def test_rotating_example(self):
        prob = load_fixture("rotating_surface")
        cert = degree_reduced(ROT_M, prob.g, Box.cube(2.0, 3), d2g=prob.g_jac2)
        assert cert.degree == 1
        assert cert.boundary_margin > 0
        assert cert.method == "reduced"

    def test_identity(self):
        cert = degree_reduced(np.eye(1), lambda p, q: q, Box.cube(1.0, 2))
        assert cert.degree == 1

    def test_quintic_with_rotation_block(self):
        cert = degree_reduced(np.array([[0.0, -1.0], [1.0, 0.0]]),
                              lambda p, q: q**5 + q, Box.cube(2.0, 3))
        assert cert.degree == 1

    @pytest.mark.parametrize("g", [lambda p, q: q**3 + q, lambda p, q: q**5 + q])
    def test_zero_count_law(self, g):
        # with dg/dq invertible throughout the box, |degree| equals the
        # number of located zeros
        cert = degree_reduced(np.eye(2), g, Box.cube(2.0, 3))
        assert abs(cert.degree) == len(cert.zeros)

    def test_negative_block(self):
        # det < 0 flips the count
        cert = degree_reduced(np.array([[-1.0]]), lambda p, q: q, Box.cube(1.0, 2))
        assert cert.degree == -1

    def test_singular_block_rejected(self):
        with pytest.raises(SingularMatrixError):
            degree_reduced(np.zeros((1, 1)), lambda p, q: q, Box.cube(1.0, 2))


class TestDegreeGeneric:
    def test_identity_map(self):
        cert = degree_generic(lambda z: z, Box.cube(1.0, 3))
        assert cert.degree == 1
        assert len(cert.zeros) == 1

    def test_rotating_candidate_map(self):
        prob = load_fixture("rotating_surface")
        cert = degree_generic(candidate_map(prob), Box.cube(2.0, 3))
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
        cmap = candidate_map(prob)
        box = Box.cube(2.0, 3)
        base = degree_generic(cmap, box).degree
        scaled = degree_generic(lambda z: 3.7 * cmap(z), box).degree
        assert scaled == base

    def test_single_component_negation_flips_sign(self):
        prob = load_fixture("rotating_surface")
        cmap = candidate_map(prob)

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
        red = degree_reduced(d0, g, box, grid=7)
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
        val = averaged_map(prob, np.array([0.5, 0.25]))
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
        val = averaged_map(prob, np.array([0.3, 0.4, 0.7]))
        assert norm_inf(val[:2]) <= 1e-12
        assert abs(val[2] - 0.7) <= 1e-14

    def test_warns_on_nonzero_frame_product(self):
        prob = load_fixture("rotating_surface")
        with pytest.warns(UserWarning):
            averaged_map(prob, np.zeros(3))

    def test_semilinear_audit_consistency(self):
        red = reduce_semilinear(load_fixture("semilinear_4x4"))
        probes = [np.array([0.7, -0.3, 0.2, 0.5]), np.zeros(4)]
        from daecont.fixtures import AVERAGED_MAP_REFERENCES

        audit = averaged_map_audit(red, probes, AVERAGED_MAP_REFERENCES["semilinear_4x4"])
        assert audit["quadrature_gap"] <= 1e-10
        assert "reference_gap" in audit and "matches_reference" in audit


class TestLocateZeros:
    def test_signs_reported(self):
        recs = locate_zeros(lambda q: np.array([q[0] ** 3 - q[0]]), Box.cube(2.0, 1))
        assert sorted(r.sign for r in recs) == [-1, 1, 1]
