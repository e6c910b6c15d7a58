"""Brouwer degree of the maps whose zeros seed solution branches.

Degree is computed on axis-aligned boxes either generically (locate all
regular zeros by multistart Newton, sum Jacobian orientation signs) or by
the reduction shortcut available when the map has the block form
``(D xi, g(xi, eta))`` with ``D`` nonsingular: the degree is then
``sign(det D)`` times the degree of ``eta -> g(0, eta)``.

The generic route refuses to certify anything it cannot defend: zeros on
the boundary, zeros with (near-)singular Jacobians, and sign patterns
that suggest an unlocated zero all raise instead of returning a number.
Its Newton steps and orientation signs use the map's Jacobian when one is
given (``jac``): the candidate map carries its exact one,
``[[C, 0], [d1g, d2g]]``, as the ``jac`` attribute of the callable
:func:`candidate_map` and :func:`seeding_map` return.  Without one (the
averaged map, or any plain callable) the Jacobian is formed by forward
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    NoConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
    SuspectIncompleteError,
)
from .linalg import (
    NewtonConfig,
    determinant,
    fd_jacobian,
    newton_solve,
    norm_inf,
    quadrature_periodic,
    solve_linear,
)
from .transform import TransformedSystem

__all__ = [
    "Box",
    "ZeroRecord",
    "DegreeCertificate",
    "candidate_block",
    "candidate_map",
    "locate_zeros",
    "degree_reduced",
    "degree_generic",
    "averaged_map_fn",
    "seeding_map",
    "averaged_map_audit",
]

DEDUP_TOL = 1e-6
BOUNDARY_TOL = 1e-6
DET_TOL = 1e-10
DEFAULT_GRID = 9
SEEDING_DRIFT_TOL = 1e-8  # ||D0||_inf at or below which the averaged map seeds
AUDIT_QUAD_NS = (64, 256)  # the two quadrature resolutions of the averaged-map audit


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lower, upper]`` in R^n."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or not np.all(lower < upper):
            raise ValueError("box needs lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    @staticmethod
    def cube(radius: float, dim: int) -> "Box":
        return Box(-radius * np.ones(dim), radius * np.ones(dim))

    def contains(self, x: np.ndarray, slack: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - slack) and np.all(x <= self.upper + slack))

    def boundary_distance(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(min((x - self.lower).min(), (self.upper - x).min()))

    def lattice(self, grid: int) -> np.ndarray:
        """Uniform grid of seed points, ``grid >= 2`` per axis, corners included."""
        if grid < 2:
            raise ValueError(f"seed lattice needs at least 2 points per axis, got {grid}")
        axes = [np.linspace(self.lower[i], self.upper[i], grid) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def face_mask(self, grid: int) -> np.ndarray:
        """Which rows of ``lattice(grid)`` lie on a face of the box."""
        index = np.indices((grid,) * self.dim).reshape(self.dim, -1)
        return np.any((index == 0) | (index == grid - 1), axis=0)


@dataclass(frozen=True)
class ZeroRecord:
    point: np.ndarray
    sign: int
    det: float
    residual: float

    def to_dict(self) -> dict:
        return {"point": self.point, "sign": self.sign, "det": self.det,
                "residual": self.residual}


@dataclass(frozen=True)
class DegreeCertificate:
    """Integer degree plus the evidence supporting it."""

    degree: int
    zeros: List[ZeroRecord]
    boundary_margin: float
    method: str

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "method": self.method,
            "boundary_margin": self.boundary_margin,
            "zero_count": len(self.zeros),
            "zeros": [z.to_dict() for z in self.zeros],
        }


def _boundary_margin(face_values) -> float:
    # Least map norm over the lattice nodes on the faces of the box.
    margin = np.inf
    for value in face_values:
        margin = min(margin, norm_inf(value))
    if margin <= 1e-12:
        raise BoundaryZeroError(f"map vanishes on the sampled boundary (margin {margin:.3e})")
    return float(margin)


def _polish_and_classify(fun, jac, x: np.ndarray, box: Box):
    # Converged Newton iterate -> (point, sign, det, residual), or raise.
    r = np.atleast_1d(np.asarray(fun(x), dtype=float))
    j = np.atleast_2d(np.asarray(jac(x), dtype=float))
    det = determinant(j)
    if box.boundary_distance(x) < BOUNDARY_TOL:
        raise BoundaryZeroError(
            f"zero at {np.array2string(x, precision=6)} lies within {BOUNDARY_TOL:g} of the boundary"
        )
    if abs(det) < DET_TOL:
        raise DegenerateZeroError(
            f"zero at {np.array2string(x, precision=6)} has |det J| = {abs(det):.3e} < {DET_TOL:g}"
        )
    # Residual already tiny; if a full Newton step still moves far, the
    # Jacobian at the true zero is singular (flat zero) even though det
    # at the iterate cleared the absolute threshold.
    try:
        step = solve_linear(j, -r)
    except SingularMatrixError as exc:
        raise DegenerateZeroError(str(exc)) from exc
    if norm_inf(step) > 1e-8 * (1.0 + norm_inf(x)):
        raise DegenerateZeroError(
            f"zero at {np.array2string(x, precision=6)} is degenerate: residual "
            f"{norm_inf(r):.3e} but Newton step {norm_inf(step):.3e}"
        )
    return ZeroRecord(point=x.copy(), sign=1 if det > 0 else -1, det=float(det),
                      residual=float(norm_inf(r)))


def _survey(fun, box: Box, grid: int):
    # The seed lattice and the map values on it, evaluated once.
    lattice = box.lattice(grid)
    return lattice, np.array([fun(p) for p in lattice])


def _find_zeros(fun, jac, box: Box, grid: int, survey=None):
    cfg = NewtonConfig(max_iters=60, tol_residual=1e-12)
    lattice, values = _survey(fun, box, grid) if survey is None else survey
    found: List[np.ndarray] = []
    for seed in lattice:
        try:
            x = newton_solve(fun, jac, seed, cfg)
        except (NoConvergenceError, SingularJacobianError):
            continue
        if not box.contains(x, slack=BOUNDARY_TOL):
            continue
        if all(norm_inf(x - z) > DEDUP_TOL for z in found):
            found.append(x)
    records = [_polish_and_classify(fun, jac, x, box) for x in found]
    _check_sign_coverage(box, grid, lattice, values, [rec.point for rec in records])
    return records


def _check_sign_coverage(box: Box, grid: int, lattice, values, zeros):
    # Two adjacent lattice nodes whose sign patterns are fully opposite
    # indicate a zero crossing on the edge between them; every such edge
    # must lie near a located zero, else the degree is not certified.
    # (A single component flipping is normal -- its zero set is a whole
    # hypersurface -- but all components flipping together across one
    # grid edge pins a common zero nearby.)
    n = box.dim
    shape = (grid,) * n
    vals = values.reshape(shape + (values.shape[-1],))
    signs = np.where(vals >= 0.0, 1, -1)
    cell_width = (box.upper - box.lower) / (grid - 1)
    pad = 1e-9 * (box.upper - box.lower)
    for axis in range(n):
        head = [slice(None)] * n
        tail = [slice(None)] * n
        head[axis] = slice(0, grid - 1)
        tail[axis] = slice(1, grid)
        flips = np.all(signs[tuple(head)] == -signs[tuple(tail)], axis=-1)
        for idx in np.argwhere(flips):
            node_lo = box.lower + idx * cell_width
            node_hi = node_lo.copy()
            node_hi[axis] += cell_width[axis]
            lo = node_lo - 1.5 * cell_width - pad
            hi = node_hi + 1.5 * cell_width + pad
            if not any(np.all(z >= lo) and np.all(z <= hi) for z in zeros):
                raise SuspectIncompleteError(
                    "all map components flip sign across the grid edge near "
                    f"{np.array2string(0.5 * (node_lo + node_hi), precision=4)} "
                    "with no located zero; degree not certified"
                )


def _with_jacobian(fun, jac):
    # (map, Jacobian) for the zero search: the given Jacobian, else forward
    # differences of the map
    wrapped = lambda z: np.atleast_1d(np.asarray(fun(z), dtype=float))
    return wrapped, (lambda z: fd_jacobian(wrapped, z)) if jac is None else jac


def locate_zeros(fun: Callable[[np.ndarray], np.ndarray], box: Box,
                 grid: int = DEFAULT_GRID, *,
                 jac: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> List[ZeroRecord]:
    """All regular zeros of ``fun`` inside ``box`` with orientation signs.

    Same machinery as :func:`degree_generic` without forming the degree:
    multistart Newton from a uniform lattice, dedup, regularity and
    coverage checks.  ``jac`` is the Jacobian of ``fun``; forward
    differences stand in when it is None.
    """
    return _find_zeros(*_with_jacobian(fun, jac), box, grid)


def candidate_block(sys: TransformedSystem) -> np.ndarray:
    """Linear block of the candidate map of a transformed system.

    ``M`` for order 1 and ``-M^2`` for order 2 when the drift ``D0`` is
    exactly the frame-only drift (``-M`` resp. ``-M^2``); with a constant
    drift present, ``D0`` itself.
    """
    if sys.order == 1:
        return sys.M if np.array_equal(sys.D0, -sys.M) else sys.D0
    m2 = sys.M @ sys.M
    return -m2 if np.array_equal(sys.D0, -m2) else sys.D0


def _block_map(block: np.ndarray, g) -> Callable[[np.ndarray], np.ndarray]:
    # z = (xi, eta) -> (block @ xi, g(xi, eta))
    m = block.shape[0]

    def the_map(z):
        z = np.asarray(z, dtype=float)
        return np.concatenate([block @ z[:m], np.atleast_1d(g(z[:m], z[m:]))])

    return the_map


def candidate_map(sys: TransformedSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Finite-dimensional map whose zeros seed branches of periodic pairs.

    The map is ``(C xi, g(xi, eta))`` with ``C`` the
    :func:`candidate_block` of the transformed system (see
    :func:`~daecont.transform.fixed_frame`).  The returned callable carries
    its Jacobian ``[[C, 0], [g_jac1, g_jac2]]`` as its ``jac`` attribute,
    exact wherever the model's constraint blocks are.
    """
    block = candidate_block(sys)
    m = block.shape[0]
    the_map = _block_map(block, sys.g)

    def jacobian(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros((z.size, z.size))
        out[:m, :m] = block
        out[m:, :m] = sys.g_jac1(z[:m], z[m:])
        out[m:, m:] = sys.g_jac2(z[:m], z[m:])
        return out

    the_map.jac = jacobian
    return the_map


def degree_reduced(
    m_mat: np.ndarray,
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: Box,
    grid: int = DEFAULT_GRID,
    *,
    d2g: Optional[Callable] = None,
) -> DegreeCertificate:
    """Degree of ``(M xi, g(xi, eta))`` via the reduction shortcut.

    With ``M`` nonsingular the zeros confine to ``xi = 0`` and the degree
    factors as ``sign(det M)`` times the sum of the orientation signs of
    the zeros of the section ``eta -> g(0, eta)``, located on the
    ``eta`` block of ``box`` like :func:`locate_zeros` (with ``d2g`` as
    the section Jacobian when given).  (The linear block contributes its
    orientation sign; any nonzero ``|det M|`` scales the map without
    changing the count.)
    """
    m_mat = np.atleast_2d(np.asarray(m_mat, dtype=float))
    m = m_mat.shape[0]
    det_m = determinant(m_mat)
    if det_m == 0.0:
        raise SingularMatrixError("reduction shortcut needs a nonsingular linear block")
    if box.dim - m < 1:
        raise ValueError("box must cover both state blocks")
    zero_p = np.zeros(m)
    section = lambda q: np.atleast_1d(np.asarray(g(zero_p, q), dtype=float))
    if d2g is None:
        jac = lambda q: fd_jacobian(section, q)
    else:
        jac = lambda q: np.atleast_2d(np.asarray(d2g(zero_p, q), dtype=float))
    zeros = _find_zeros(section, jac, Box(box.lower[m:], box.upper[m:]), grid)
    full_map = _block_map(m_mat, g)
    margin = _boundary_margin(full_map(p) for p in box.lattice(grid)[box.face_mask(grid)])
    sign_m = 1 if det_m > 0 else -1
    full_zeros = [
        ZeroRecord(
            point=np.concatenate([zero_p, z.point]),
            sign=sign_m * z.sign,
            det=det_m * z.det,
            residual=z.residual,
        )
        for z in zeros
    ]
    return DegreeCertificate(degree=int(sign_m * sum(z.sign for z in zeros)), zeros=full_zeros,
                             boundary_margin=margin, method="reduced")


def degree_generic(
    fun: Callable[[np.ndarray], np.ndarray],
    box: Box,
    grid: int = DEFAULT_GRID,
    *,
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> DegreeCertificate:
    """Degree by regular-zero enumeration.

    Locates all zeros by multistart Newton from a uniform lattice,
    verifies each is regular and interior, and sums orientation signs.
    One pass over the lattice gives both the seeds' sign pattern and the
    boundary margin (its nodes on the faces of the box).  Raises rather
    than guessing whenever the evidence is inconclusive.  ``jac`` is the
    Jacobian of ``fun`` for the Newton steps and the signs; forward
    differences stand in when it is None.
    """
    wrapped, jac = _with_jacobian(fun, jac)
    survey = _survey(wrapped, box, grid)
    margin = _boundary_margin(survey[1][box.face_mask(grid)])
    zeros = _find_zeros(wrapped, jac, box, grid, survey)
    return DegreeCertificate(
        degree=int(sum(z.sign for z in zeros)),
        zeros=zeros,
        boundary_margin=margin,
        method="generic",
    )


def averaged_map_fn(sys: TransformedSystem, quad_n: int = 64) -> Callable:
    """Averaged map ``(mean_t F(t, xi, eta), g(xi, eta))`` as a callable.

    ``F`` is the fixed-frame forcing at the constant frame state
    ``(xi, eta)``, frame velocities zero for order 2 (so the original
    velocities are those of the moving frame).  The branch-seeding map
    when the drift ``D0`` vanishes (see :func:`seeding_map`).  Its ``jac``
    attribute is None: its Jacobian is formed by forward differences.
    """
    m = sys.m
    velocities = () if sys.order == 1 else (np.zeros(sys.m), np.zeros(sys.s))

    def omega(z):
        z = np.asarray(z, dtype=float)
        xi, eta = z[:m], z[m:]
        first = quadrature_periodic(lambda t: sys.F(t, xi, eta, *velocities), sys.period, quad_n)
        return np.concatenate([np.atleast_1d(first), np.atleast_1d(sys.g(xi, eta))])

    omega.jac = None
    return omega


def seeding_map(sys: TransformedSystem) -> Callable[[np.ndarray], np.ndarray]:
    """The map whose zeros seed branches: the candidate map, or the averaged map.

    When the drift ``D0`` vanishes (``||D0||_inf <= 1e-8``: no frame
    product, no commuting drift) the first block of the candidate map is
    identically zero, and the averaged map takes its place.  The callable
    carries its Jacobian as ``jac`` (see :func:`candidate_map`), None for
    the averaged map; pass it on to :func:`degree_generic` or
    :func:`locate_zeros`.
    """
    if norm_inf(sys.D0) <= SEEDING_DRIFT_TOL:
        return averaged_map_fn(sys)
    return candidate_map(sys)


def averaged_map_audit(
    sys: TransformedSystem,
    probes: Sequence[np.ndarray],
    reference: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> dict:
    """Internal-consistency (and optional reference) audit of the averaged map.

    Evaluates the map at each probe with two quadrature resolutions and
    reports the worst discrepancy; when a reference formula is supplied
    its deviation is recorded as well (reported, not asserted, since a
    shipped reference may itself be unverified).
    """
    coarse, fine = (averaged_map_fn(sys, n) for n in AUDIT_QUAD_NS)
    rows = []
    quad_gap = 0.0
    ref_gap = 0.0
    for probe in probes:
        probe = np.asarray(probe, dtype=float)
        v_coarse = coarse(probe)
        v_fine = fine(probe)
        quad_gap = max(quad_gap, norm_inf(v_coarse - v_fine))
        row = {"point": probe, "value": v_coarse}
        if reference is not None:
            ref_val = np.asarray(reference(probe), dtype=float)
            row["reference"] = ref_val
            row["reference_gap"] = norm_inf(v_coarse - ref_val)
            ref_gap = max(ref_gap, row["reference_gap"])
        rows.append(row)
    out = {
        "quad_n": list(AUDIT_QUAD_NS),
        "quadrature_gap": quad_gap,
        "probes": rows,
    }
    if reference is not None:
        out["reference_gap"] = ref_gap
        out["matches_reference"] = bool(ref_gap <= 1e-8)
    return out
