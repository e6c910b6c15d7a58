"""Brouwer degree of the maps whose zeros seed solution branches.

Degree is computed on axis-aligned boxes either generically (locate all
regular zeros by multistart Newton, sum Jacobian orientation signs) or by
the reduction shortcut available when the map has the block form
``(D xi, g(xi, eta))`` with ``D`` nonsingular: the degree is then
``sign(det D)`` times the degree of ``eta -> g(0, eta)``.

The generic route refuses to certify anything it cannot defend: zeros on
the boundary, zeros with (near-)singular Jacobians, and sign patterns
that suggest an unlocated zero all raise instead of returning a number.
Every entry point takes only ``(map, box, grid)`` and turns the map
once into its stacked pair: the map and its Jacobian on stacks of
points.  The search reads nothing else: the survey of the lattice and
the boundary margin are one call each, the package's damped Newton
(:func:`~daecont.linalg.newton_stacked`) runs over all lattice nodes at
once, and the located zeros are classified as one stack.  A problem
compiled from a problem file (or reduced from a semi-linear one) has a
``g``, ``d1g`` and ``d2g`` that carry their forms on stacks as
``arrays``, and the candidate map built from them carries the pair as
``arrays``, with the exact Jacobian ``[[C, 0], [d1g, d2g]]``, and its
linear block ``C`` as ``block`` (which :func:`degree_reduced` reads).
Any other map (the averaged map, a Python-callable model, a plain
callable) is called point by point (:func:`~daecont.linalg.stacked_maps`),
with its ``jac`` attribute as the Jacobian, else forward differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    SingularMatrixError,
    SuspectIncompleteError,
)
from .linalg import (
    NewtonConfig,
    _singular_messages,
    determinant,
    newton_stacked,
    norm_inf,
    solve_stacked,
    stacked_maps,
)
from .kernel import March, frame_function, model_errors
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
NEWTON_BATCH = 1024  # lattice starts per batched Newton run: bounds its working arrays
ZERO_NEWTON = NewtonConfig(max_iters=60, tol_residual=1e-12)  # each lattice start's Newton
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

    def contains(self, x: np.ndarray, slack: float = 0.0):
        """Whether ``x`` lies in the box widened by ``slack``; a mask for a stack (k, n)."""
        x = np.asarray(x, dtype=float)
        inside = np.all((x >= self.lower - slack) & (x <= self.upper + slack), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def boundary_distance(self, x: np.ndarray):
        """Least distance of ``x`` to a face (negative outside); an array for a stack (k, n)."""
        x = np.asarray(x, dtype=float)
        distance = np.minimum((x - self.lower).min(axis=-1), (self.upper - x).min(axis=-1))
        return float(distance) if distance.ndim == 0 else distance

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


def _boundary_margin(face_values: np.ndarray) -> float:
    # Least map norm over the lattice nodes on the faces of the box (one
    # row each); fmin skips a NaN norm, as min() over the rows did.
    margin = float(np.fmin.reduce(np.abs(face_values).max(axis=1), initial=np.inf))
    if margin <= 1e-12:
        raise BoundaryZeroError(f"map vanishes on the sampled boundary (margin {margin:.3e})")
    return margin


def _stacked(fun):
    # The map (k, n) -> (k, n) and its Jacobian (k, n, n), given the values,
    # on stacks of points as newton_stacked takes them: the map's ``arrays``,
    # else its point forms called at each point (see stacked_maps).  A
    # model's ValueError or ArithmeticError leaves them as EvaluationError,
    # as a march's does (see kernel.model_errors).
    arrays = getattr(fun, "arrays", None)
    if arrays is None:
        maps = stacked_maps(fun, getattr(fun, "jac", None))
    else:
        maps = arrays[0], lambda x, r: arrays[1](x)
    return tuple(model_errors(f) for f in maps)


def _classify(maps, points: np.ndarray, box: Box) -> List[ZeroRecord]:
    # Converged Newton iterates (k, n), in lattice order -> their records,
    # or raise for the first zero, in that order, that lies on the boundary
    # or is degenerate.
    if not len(points):
        return []
    r = maps[0](points)
    j = maps[1](points, r)
    det = determinant(j)
    distance = box.boundary_distance(points)
    # Residual already tiny; if a full Newton step still moves far, the
    # Jacobian at the true zero is singular (flat zero) even though det
    # at the iterate cleared the absolute threshold.  The steps are solved
    # for the zeros before the first that fails the tests above.
    passed = np.logical_and.accumulate((distance >= BOUNDARY_TOL) & ~(np.abs(det) < DET_TOL))
    step, singular = solve_stacked(j[passed], -r[passed])
    moved, rnorm = np.abs(step).max(axis=1), np.abs(r).max(axis=1)
    for k, x in enumerate(points):
        where = np.array2string(x, precision=6)
        if distance[k] < BOUNDARY_TOL:
            raise BoundaryZeroError(f"zero at {where} lies within {BOUNDARY_TOL:g} of the boundary")
        if abs(det[k]) < DET_TOL:
            raise DegenerateZeroError(
                f"zero at {where} has |det J| = {abs(det[k]):.3e} < {DET_TOL:g}")
        if singular[k]:
            raise DegenerateZeroError(_singular_messages(j[k : k + 1])[0])
        if moved[k] > 1e-8 * (1.0 + norm_inf(x)):
            raise DegenerateZeroError(f"zero at {where} is degenerate: residual {rnorm[k]:.3e} "
                                      f"but Newton step {moved[k]:.3e}")
    return [ZeroRecord(point=x.copy(), sign=1 if d > 0 else -1, det=float(d), residual=float(n))
            for x, d, n in zip(points, det, rnorm)]


def _find_zeros(maps, box: Box, grid: int, lattice=None, values=None):
    # ``maps`` is the map's stacked pair (see _stacked); ``lattice`` and
    # ``values`` are box.lattice(grid) and the map on it, when the caller
    # has them.
    if lattice is None:
        lattice = box.lattice(grid)
        values = maps[0](lattice)
    runs = [newton_stacked(*maps, lattice[k : k + NEWTON_BATCH], values[k : k + NEWTON_BATCH],
                           ZERO_NEWTON)
            for k in range(0, len(lattice), NEWTON_BATCH)]
    points = np.concatenate([x for x, _ in runs])
    converged = np.array([error is None for _, errors in runs for error in errors])
    # Dedup in lattice order: the first point left is a zero, and the
    # points within DEDUP_TOL of it are its copies.
    found = []
    left = points[converged & box.contains(points, slack=BOUNDARY_TOL)]
    while len(left):
        found.append(left[0])
        left = left[np.abs(left - left[0]).max(axis=1) > DEDUP_TOL]
    records = _classify(maps, np.reshape(found, (-1, box.dim)), box)
    _check_sign_coverage(box, grid, values, [rec.point for rec in records])
    return records


def _check_sign_coverage(box: Box, grid: int, values, zeros):
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


def locate_zeros(fun: Callable[[np.ndarray], np.ndarray], box: Box,
                 grid: int = DEFAULT_GRID) -> List[ZeroRecord]:
    """All regular zeros of ``fun`` inside ``box`` with orientation signs.

    Same machinery as :func:`degree_generic` without forming the degree:
    Newton from every node of a uniform lattice, dedup, regularity and
    coverage checks.  Every step of the search (the lattice values, Newton
    and the check of the located zeros) reads the map's ``arrays``
    attribute, the pair ``(fun, jac)`` on stacks of points, ``(k, n) ->
    (k, n)`` and ``(k, n) -> (k, n, n)``, as the maps of
    :func:`candidate_map` and :func:`seeding_map` carry it.  A map without
    it is called point by point (:func:`~daecont.linalg.stacked_maps`),
    with its ``jac`` as the Jacobian, else forward differences.
    """
    return _find_zeros(_stacked(fun), box, grid)


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


def _block_map(block, g, d1g=None, d2g=None) -> Callable[[np.ndarray], np.ndarray]:
    # z = (xi, eta) -> (block @ xi, g(xi, eta)).  The map carries ``block``;
    # as ``jac`` its Jacobian [[block, 0], [d1g, d2g]] when both constraint
    # blocks are given (else None); as ``arrays`` the map and that Jacobian
    # on stacks of points (k, n), from the ``arrays`` of g, d1g and d2g when
    # all three carry one (else None); as ``eta_jac`` the Jacobian of the
    # section eta -> g(0, eta) of degree_reduced on stacks (k, s), as
    # newton_stacked takes it: d2g, else forward differences by eta.
    block = np.atleast_2d(np.asarray(block, dtype=float))
    m = block.shape[0]
    stacked = [getattr(fn, "arrays", None) for fn in (g, d1g, d2g)]

    def the_map(z):
        z = np.asarray(z, dtype=float)
        return np.concatenate([block @ z[:m], np.atleast_1d(g(z[:m], z[m:]))])

    def stacked_map(z):
        return np.concatenate([np.matmul(block, z[:, :m, None])[..., 0],
                               stacked[0](z[:, :m], z[:, m:])], axis=1)

    def jacobian(d1, d2):
        # on a point (n,) or a stack (k, n), with d1/d2 of the same form
        def at(z):
            z = np.asarray(z, dtype=float)
            out = np.zeros(z.shape + z.shape[-1:])
            out[..., :m, :m] = block
            out[..., m:, :m] = d1(z[..., :m], z[..., m:])
            out[..., m:, m:] = d2(z[..., :m], z[..., m:])
            return out

        return at

    the_map.block = block
    the_map.jac = None if d1g is None or d2g is None else jacobian(d1g, d2g)
    the_map.arrays = None if None in stacked else (stacked_map, jacobian(*stacked[1:]))
    if the_map.arrays is None:
        the_map.eta_jac = stacked_maps(lambda q: g(np.zeros(m), q), None if the_map.jac is None
                                       else lambda q: d2g(np.zeros(m), q))[1]
    else:
        the_map.eta_jac = lambda q, r: stacked[2](np.zeros((len(q), m)), q)
    return the_map


def candidate_map(sys: TransformedSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Finite-dimensional map whose zeros seed branches of periodic pairs.

    The map is ``(C xi, g(xi, eta))`` with ``C`` the
    :func:`candidate_block` of the transformed system (see
    :func:`~daecont.transform.fixed_frame`).  The returned callable carries
    what the degree layer reads from it: ``C`` as its ``block``, and as
    ``arrays`` the map and its Jacobian ``[[C, 0], [g_jac1, g_jac2]]`` on
    stacks of points, from the ``arrays`` of the system's ``g``, ``d1g``
    and ``d2g`` (None unless all three carry one).  Its point Jacobian is
    its ``jac``, exact wherever the model's constraint blocks are; the
    degree layer calls the point forms only for a map without ``arrays``.
    """
    d1g = sys.g_jac1 if sys.d1g is None else sys.d1g  # else differences of g
    d2g = sys.g_jac2 if sys.d2g is None else sys.d2g
    return _block_map(candidate_block(sys), sys.g, d1g, d2g)


def degree_reduced(fun: Callable[[np.ndarray], np.ndarray], box: Box,
                   grid: int = DEFAULT_GRID) -> DegreeCertificate:
    """Degree of a block map ``(M xi, g(xi, eta))`` via the reduction shortcut.

    ``fun`` carries ``M`` as its ``block`` attribute (see
    :func:`candidate_map`).  With ``M`` nonsingular the zeros confine to
    ``xi = 0`` and the degree factors as ``sign(det M)`` times the sum of
    the orientation signs of the zeros of the section
    ``eta -> g(0, eta)``, located on the ``eta`` block of ``box`` like
    :func:`locate_zeros`.  The section runs on stacks only: its values are
    the ``eta`` rows of the map's stacked form (see :func:`locate_zeros`)
    at ``(0, eta)``, its Jacobian the map's ``eta_jac`` (the ``d2g`` block
    alone).  The boundary margin is one stacked call of the map on the
    lattice nodes on the faces of ``box``.  (The linear block contributes
    its orientation sign; any nonzero ``|det M|`` scales the map without
    changing the count.)
    """
    m_mat = fun.block
    m = m_mat.shape[0]
    det_m = determinant(m_mat)
    if det_m == 0.0:
        raise SingularMatrixError("reduction shortcut needs a nonsingular linear block")
    if box.dim - m < 1:
        raise ValueError("box must cover both state blocks")
    # (0, eta) for a point eta (s,) or a stack (k, s)
    at_zero = lambda q: np.concatenate([np.zeros(q.shape[:-1] + (m,)), q], axis=-1)
    values = _stacked(fun)[0]
    section = (lambda q: values(at_zero(q))[:, m:], model_errors(fun.eta_jac))
    # not locate_zeros, whose per-call hook in perfbench/tracing.py would count these zeros twice
    zeros = _find_zeros(section, Box(box.lower[m:], box.upper[m:]), grid)
    margin = _boundary_margin(values(box.lattice(grid)[box.face_mask(grid)]))
    sign_m = 1 if det_m > 0 else -1
    full_zeros = [
        ZeroRecord(
            point=at_zero(z.point),
            sign=sign_m * z.sign,
            det=det_m * z.det,
            residual=z.residual,
        )
        for z in zeros
    ]
    return DegreeCertificate(degree=int(sign_m * sum(z.sign for z in zeros)), zeros=full_zeros,
                             boundary_margin=margin, method="reduced")


def degree_generic(fun: Callable[[np.ndarray], np.ndarray], box: Box,
                   grid: int = DEFAULT_GRID) -> DegreeCertificate:
    """Degree by regular-zero enumeration.

    Locates all zeros by Newton from every node of a uniform lattice,
    verifies each is regular and interior, and sums orientation signs.
    One stacked call of the map on the lattice gives both the seeds' sign
    pattern and the boundary margin (its nodes on the faces of the box).
    Raises rather than guessing whenever the evidence is inconclusive.
    The map's stacked form serves every step, as in :func:`locate_zeros`.
    """
    maps = _stacked(fun)
    lattice = box.lattice(grid)
    values = maps[0](lattice)
    margin = _boundary_margin(values[box.face_mask(grid)])
    zeros = _find_zeros(maps, box, grid, lattice, values)
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
    velocities are those of the moving frame), averaged over the
    ``quad_n >= 8`` uniform times of :func:`~daecont.linalg.quadrature_periodic`,
    with its bits: each value is one call of the emitted loop of the
    system's plain march (:meth:`~daecont.kernel.March.mean_forcing`) on
    the fixed frames at those times, filled once per map.  The
    branch-seeding map when the drift ``D0`` vanishes (see
    :func:`seeding_map`).  Its ``jac`` and ``arrays`` are absent: its
    Jacobian is formed by forward differences, and the zero search calls
    it point by point.
    """
    if quad_n < 8:
        raise ValueError("need at least 8 quadrature nodes")
    m = sys.m
    mean_forcing = March(sys, 0.0).mean_forcing
    times = [k * sys.period / quad_n for k in range(quad_n)]
    pairs = list(zip(times, frame_function(sys.A, sys.B, sys.order, fixed=True)(times)))

    def omega(z):
        z = np.asarray(z, dtype=float)
        first = mean_forcing(pairs, z[:m].tolist(), z[m:].tolist())
        return np.concatenate([first, np.atleast_1d(sys.g(z[:m], z[m:]))])

    return omega


def seeding_map(sys: TransformedSystem) -> Callable[[np.ndarray], np.ndarray]:
    """The map whose zeros seed branches: the candidate map, or the averaged map.

    When the drift ``D0`` vanishes (``||D0||_inf <= 1e-8``: no frame
    product, no commuting drift) the first block of the candidate map is
    identically zero, and the averaged map takes its place.  The candidate
    map carries its own ``block``, ``jac`` and ``arrays`` (see
    :func:`candidate_map`), the averaged map none of them;
    :func:`degree_generic` and :func:`locate_zeros` read them from the map.
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
