"""Brouwer degree of the maps whose zeros seed solution branches.

Degree is computed on axis-aligned boxes either generically (locate all
regular zeros by multistart Newton, sum Jacobian orientation signs) or by
the reduction shortcut available when the map has the block form
``(D xi, g(xi, eta))`` with ``D`` nonsingular: the degree is then
``sign(det D)`` times the degree of ``eta -> g(0, eta)``.

The generic route refuses to certify anything it cannot defend: zeros on
the boundary, zeros with (near-)singular Jacobians, and sign patterns
that suggest an unlocated zero all raise instead of returning a number.
Every entry point takes only ``(map, box, grid)`` and reads what the
search needs from the map itself.  Its Newton steps and orientation
signs use the map's ``jac`` attribute: the candidate map carries its
exact Jacobian ``[[C, 0], [d1g, d2g]]`` there, and its linear block
``C`` as ``block`` (which :func:`degree_reduced` reads).  Without a
``jac`` (the averaged map, or any plain callable) the Jacobian is formed
by forward differences.

The zero search runs one damped Newton over all lattice nodes at once,
on stacks of points.  A problem compiled from a problem file (or reduced
from a semi-linear one) carries its constraint on stacks (``g_arrays``),
and the candidate map built from it carries the stacked map and
Jacobian as its ``arrays`` attribute; any other map enters the same
iteration point by point.  The survey of the lattice, the boundary
margin and the classification of each located zero use the point forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    EvaluationError,
    SingularMatrixError,
    SuspectIncompleteError,
)
from .linalg import (
    NEWTON_DAMPING_MIN,
    NEWTON_TOL_STEP,
    NewtonConfig,
    determinant,
    fd_jacobian,
    norm_inf,
    quadrature_periodic,
    solve_linear,
    solve_stacked,
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
NEWTON_BATCH = 1024  # lattice starts per batched Newton run: bounds its working arrays
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


def _boundary_margin(face_values: np.ndarray) -> float:
    # Least map norm over the lattice nodes on the faces of the box (one
    # row each); fmin skips a NaN norm, as min() over the rows did.
    margin = float(np.fmin.reduce(np.abs(face_values).max(axis=1), initial=np.inf))
    if margin <= 1e-12:
        raise BoundaryZeroError(f"map vanishes on the sampled boundary (margin {margin:.3e})")
    return margin


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


def _newton_all(fun, jac, starts: np.ndarray, values: np.ndarray):
    # newton_solve's damped Newton (60 iterations, residual 1e-12) from
    # every start at once: ``fun`` maps a stack of points (k, n) to their
    # values, ``jac(x, r)`` to their Jacobians (k, n, n), given the values
    # r at x; ``values`` are the starts' values.  Each start keeps its own
    # backtracking, stagnation test and budget, and a start whose Jacobian
    # is singular is dropped.  Returns (points, converged).
    cfg = NewtonConfig(max_iters=60, tol_residual=1e-12)
    x, r = starts.copy(), values.copy()
    rnorm = np.abs(r).max(axis=1)
    live = np.arange(len(x))  # starts still iterating
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(cfg.max_iters):
        done = rnorm[live] <= cfg.tol_residual
        converged[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break
        step, singular = solve_stacked(jac(x[live], r[live]), -r[live])
        live, step = live[~singular], step[~singular]
        alpha = np.ones(len(live))
        x_new, r_new = x[live], r[live]
        rnorm_new = rnorm[live]
        todo = np.arange(len(live))  # halve the step until the residual drops
        while todo.size:
            x_new[todo] = x[live[todo]] + alpha[todo, None] * step[todo]
            r_new[todo] = fun(x_new[todo])
            rnorm_new[todo] = np.abs(r_new[todo]).max(axis=1)
            better = rnorm_new[todo] < rnorm[live[todo]]
            todo = todo[~(better | (alpha[todo] <= NEWTON_DAMPING_MIN))]
            alpha[todo] *= 0.5
        moved = np.abs(alpha[:, None] * step).max(axis=1)
        going = ~((moved <= NEWTON_TOL_STEP) & (rnorm_new > cfg.tol_residual))
        live = live[going]
        x[live], r[live], rnorm[live] = x_new[going], r_new[going], rnorm_new[going]
    converged[live[rnorm[live] <= cfg.tol_residual]] = True
    if not np.all(np.isfinite(x[converged])):
        raise EvaluationError("newton iterate is non-finite")
    return x, converged


def _find_zeros(search, box: Box, grid: int, survey=None):
    # ``search`` is (map, Jacobian, stacked map, stacked Jacobian), see _search
    fun, jac, stacked_fun, stacked_jac = search
    lattice, values = _survey(fun, box, grid) if survey is None else survey
    runs = [_newton_all(stacked_fun, stacked_jac, lattice[k : k + NEWTON_BATCH],
                        values[k : k + NEWTON_BATCH]) for k in range(0, len(lattice), NEWTON_BATCH)]
    points, converged = (np.concatenate(part) for part in zip(*runs))
    # Dedup in lattice order: the first point left is a zero, and the
    # points within DEDUP_TOL of it are its copies.
    found: List[np.ndarray] = []
    left = points[converged & box.contains(points, slack=BOUNDARY_TOL)]
    while len(left):
        found.append(left[0])
        left = left[np.abs(left - left[0]).max(axis=1) > DEDUP_TOL]
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


def _search(fun):
    # (map, Jacobian, stacked map, stacked Jacobian) for the zero search.
    # The Jacobian is the map's ``jac``, else forward differences of the
    # map; the stacked pair is its ``arrays`` (the map and its Jacobian on
    # stacks of points), else the point forms called at each point.
    jac, arrays = getattr(fun, "jac", None), getattr(fun, "arrays", None)
    wrapped = lambda z: np.atleast_1d(np.asarray(fun(z), dtype=float))
    if jac is None:
        # a point's value doubles as its difference base point
        jac_at = lambda z, v: fd_jacobian(wrapped, z, f0=v)
        jac = lambda z: fd_jacobian(wrapped, z)
    else:
        jac_at = lambda z, v: np.atleast_2d(np.asarray(jac(z), dtype=float))
    if arrays is None:
        return (wrapped, jac, lambda x: np.array([wrapped(z) for z in x]),
                lambda x, r: np.array([jac_at(z, v) for z, v in zip(x, r)]))
    return wrapped, jac, arrays[0], lambda x, r: arrays[1](x)


def locate_zeros(fun: Callable[[np.ndarray], np.ndarray], box: Box,
                 grid: int = DEFAULT_GRID) -> List[ZeroRecord]:
    """All regular zeros of ``fun`` inside ``box`` with orientation signs.

    Same machinery as :func:`degree_generic` without forming the degree:
    Newton from every node of a uniform lattice, dedup, regularity and
    coverage checks.  The search reads the map's own ``jac`` (its
    Jacobian) and ``arrays`` (the pair ``(fun, jac)`` on stacks of points,
    ``(k, n) -> (k, n)`` and ``(k, n) -> (k, n, n)``) attributes, as the
    maps of :func:`candidate_map` and :func:`seeding_map` carry them;
    without them the Jacobian is formed by forward differences and the
    Newton iteration calls ``fun`` point by point.
    """
    return _find_zeros(_search(fun), box, grid)


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


def _block_map(block, g, d1g=None, d2g=None, g_arrays=None) -> Callable[[np.ndarray], np.ndarray]:
    # z = (xi, eta) -> (block @ xi, g(xi, eta)).  The map carries ``block``;
    # as ``jac`` its Jacobian [[block, 0], [d1g, d2g]] when both constraint
    # blocks are given (else None); as ``arrays`` the map and that Jacobian
    # on stacks of points (k, n), built from g_arrays = (g, d1g, d2g) on
    # stacks, when given (else None).
    block = np.atleast_2d(np.asarray(block, dtype=float))
    m = block.shape[0]

    def the_map(z):
        z = np.asarray(z, dtype=float)
        return np.concatenate([block @ z[:m], np.atleast_1d(g(z[:m], z[m:]))])

    def stacked_map(z):
        return np.concatenate([np.matmul(block, z[:, :m, None])[..., 0],
                               g_arrays[0](z[:, :m], z[:, m:])], axis=1)

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
    the_map.arrays = None if g_arrays is None else (stacked_map, jacobian(*g_arrays[1:]))
    return the_map


def candidate_map(sys: TransformedSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Finite-dimensional map whose zeros seed branches of periodic pairs.

    The map is ``(C xi, g(xi, eta))`` with ``C`` the
    :func:`candidate_block` of the transformed system (see
    :func:`~daecont.transform.fixed_frame`).  The returned callable carries
    what the degree layer reads from it: ``C`` as its ``block``, its
    Jacobian ``[[C, 0], [g_jac1, g_jac2]]`` as ``jac``, exact wherever the
    model's constraint blocks are, and as ``arrays`` the map and that
    Jacobian on stacks of points, built from the system's ``g_arrays``
    (None when the system has none).
    """
    return _block_map(candidate_block(sys), sys.g, sys.g_jac1, sys.g_jac2, sys.g_arrays)


def degree_reduced(fun: Callable[[np.ndarray], np.ndarray], box: Box,
                   grid: int = DEFAULT_GRID) -> DegreeCertificate:
    """Degree of a block map ``(M xi, g(xi, eta))`` via the reduction shortcut.

    ``fun`` carries ``M`` as its ``block`` attribute (see
    :func:`candidate_map`).  With ``M`` nonsingular the zeros confine to
    ``xi = 0`` and the degree factors as ``sign(det M)`` times the sum of
    the orientation signs of the zeros of the section
    ``eta -> g(0, eta)``, located on the ``eta`` block of ``box`` like
    :func:`locate_zeros`.  The section is ``fun`` at ``(0, eta)``, its
    ``eta`` rows, with the ``eta`` block of the map's ``jac`` and
    ``arrays``.  (The linear block contributes its orientation sign; any
    nonzero ``|det M|`` scales the map without changing the count.)
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
    section = lambda q: fun(at_zero(q))[m:]
    section.jac = None if fun.jac is None else lambda q: fun.jac(at_zero(q))[m:, m:]
    section.arrays = None if fun.arrays is None else (
        lambda q: fun.arrays[0](at_zero(q))[:, m:], lambda q: fun.arrays[1](at_zero(q))[:, m:, m:])
    # not locate_zeros, whose per-call hook in perfbench/tracing.py would count these zeros twice
    zeros = _find_zeros(_search(section), Box(box.lower[m:], box.upper[m:]), grid)
    margin = _boundary_margin(np.array([fun(p) for p in box.lattice(grid)[box.face_mask(grid)]]))
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
    One pass over the lattice gives both the seeds' sign pattern and the
    boundary margin (its nodes on the faces of the box).  Raises rather
    than guessing whenever the evidence is inconclusive.  The map's own
    ``jac`` and ``arrays`` serve the Newton steps and the signs, as in
    :func:`locate_zeros`.
    """
    search = _search(fun)
    survey = _survey(search[0], box, grid)
    margin = _boundary_margin(survey[1][box.face_mask(grid)])
    zeros = _find_zeros(search, box, grid, survey)
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
    and ``arrays`` are absent: its Jacobian is formed by forward
    differences, and the zero search calls it point by point.
    """
    m = sys.m
    velocities = () if sys.order == 1 else (np.zeros(sys.m), np.zeros(sys.s))

    def omega(z):
        z = np.asarray(z, dtype=float)
        xi, eta = z[:m], z[m:]
        first = quadrature_periodic(lambda t: sys.F(t, xi, eta, *velocities), sys.period, quad_n)
        return np.concatenate([np.atleast_1d(first), np.atleast_1d(sys.g(xi, eta))])

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
