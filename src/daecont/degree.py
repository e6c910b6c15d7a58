"""Brouwer degree of the candidate maps whose zeros seed solution branches.

Degree is computed on axis-aligned boxes either generically (locate all
regular zeros by multistart Newton, sum Jacobian orientation signs) or by
the reduction shortcut available when the map has the block form
``(D xi, g(xi, eta))`` with ``D`` nonsingular: the degree is then
``sign(det D)`` times the degree of ``eta -> g(0, eta)``.

The generic route refuses to certify anything it cannot defend: zeros on
the boundary, zeros with (near-)singular Jacobians, and sign patterns
that suggest an unlocated zero all raise instead of returning a number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
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
from .transform import DaeProblem1, DaeProblem2, TransformedSystem, fixed_frame

__all__ = [
    "Box",
    "ZeroRecord",
    "DegreeCertificate",
    "candidate_block",
    "candidate_map",
    "locate_zeros",
    "zeros_of_reduced",
    "degree_reduced",
    "degree_generic",
    "averaged_map",
    "averaged_map_fn",
    "averaged_map_audit",
]

DEDUP_TOL = 1e-6
BOUNDARY_TOL = 1e-6
DET_TOL = 1e-10
DEFAULT_GRID = 9


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

    def boundary_samples(self, grid: int) -> np.ndarray:
        """Sample points on every face, ``grid`` per tangential axis."""
        pts = []
        for axis in range(self.dim):
            others = [np.linspace(self.lower[i], self.upper[i], grid) for i in range(self.dim)
                      if i != axis]
            if others:
                mesh = np.meshgrid(*others, indexing="ij")
                tang = np.stack([m.ravel() for m in mesh], axis=-1)
            else:
                tang = np.zeros((1, 0))
            for value in (self.lower[axis], self.upper[axis]):
                block = np.empty((tang.shape[0], self.dim))
                block[:, axis] = value
                block[:, [i for i in range(self.dim) if i != axis]] = tang
                pts.append(block)
        return np.vstack(pts)

    def sub_box(self, idx: Sequence[int]) -> "Box":
        idx = list(idx)
        return Box(self.lower[idx], self.upper[idx])


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
    box: Box = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "method": self.method,
            "boundary_margin": self.boundary_margin,
            "zero_count": len(self.zeros),
            "zeros": [z.to_dict() for z in self.zeros],
        }


def _boundary_margin(fun, box: Box, grid: int) -> float:
    margin = np.inf
    for pt in box.boundary_samples(grid):
        margin = min(margin, norm_inf(fun(pt)))
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


def _find_zeros(fun, jac, box: Box, grid: int):
    cfg = NewtonConfig(max_iters=60, tol_residual=1e-12)
    lattice = box.lattice(grid)
    values = np.array([np.atleast_1d(fun(p)) for p in lattice])
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


def locate_zeros(fun: Callable[[np.ndarray], np.ndarray], box: Box,
                 grid: int = DEFAULT_GRID) -> List[ZeroRecord]:
    """All regular zeros of ``fun`` inside ``box`` with orientation signs.

    Same machinery as :func:`degree_generic` without forming the degree:
    multistart Newton from a uniform lattice, dedup, regularity and
    coverage checks.
    """
    wrapped = lambda z: np.atleast_1d(np.asarray(fun(z), dtype=float))
    jac = lambda z: fd_jacobian(wrapped, z)
    return _find_zeros(wrapped, jac, box, grid)


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


def candidate_map(sys) -> Callable[[np.ndarray], np.ndarray]:
    """Finite-dimensional map whose zeros seed branches of periodic pairs.

    The map is ``(C xi, g(xi, eta))`` with ``C`` the
    :func:`candidate_block`.  Accepts a problem (the frame hypotheses are
    audited by the transformation) or an already-transformed system.
    """
    if isinstance(sys, (DaeProblem1, DaeProblem2)):
        sys = fixed_frame(sys)
    if not isinstance(sys, TransformedSystem):
        raise TypeError(f"cannot build a candidate map from {type(sys).__name__}")
    m, g = sys.m, sys.g
    block = candidate_block(sys)

    def the_map(z):
        z = np.asarray(z, dtype=float)
        return np.concatenate([block @ z[:m], np.atleast_1d(g(z[:m], z[m:]))])

    return the_map


def zeros_of_reduced(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box_q: Box,
    grid: int = DEFAULT_GRID,
    *,
    m: Optional[int] = None,
    d2g: Optional[Callable] = None,
) -> List[ZeroRecord]:
    """Zeros of the section ``q -> g(0, q)`` inside ``box_q``, with signs.

    Multistart Newton from a uniform grid, dedup at 1e-6; each zero
    carries the orientation sign of ``dg/dq`` there.  ``m`` is the
    dimension of the zero first argument (defaults to the box dimension).
    """
    m = box_q.dim if m is None else m
    zero_p = np.zeros(m)
    fun = lambda q: np.atleast_1d(np.asarray(g(zero_p, q), dtype=float))
    if d2g is not None:
        jac = lambda q: np.atleast_2d(np.asarray(d2g(zero_p, q), dtype=float))
    else:
        jac = lambda q: fd_jacobian(fun, q)
    return _find_zeros(fun, jac, box_q, grid)


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
    the section zeros.  (The linear block contributes its orientation
    sign; any nonzero ``|det M|`` scales the map without changing the
    count.)
    """
    m_mat = np.atleast_2d(np.asarray(m_mat, dtype=float))
    m = m_mat.shape[0]
    det_m = determinant(m_mat)
    if det_m == 0.0:
        raise SingularMatrixError("reduction shortcut needs a nonsingular linear block")
    s = box.dim - m
    if s < 1:
        raise ValueError("box must cover both state blocks")
    box_q = box.sub_box(range(m, m + s))
    zeros = zeros_of_reduced(g, box_q, grid, m=m, d2g=d2g)
    sign_m = 1 if det_m > 0 else -1
    degree = sign_m * sum(z.sign for z in zeros)

    def full_map(z):
        z = np.asarray(z, dtype=float)
        return np.concatenate([m_mat @ z[:m], np.atleast_1d(g(z[:m], z[m:]))])

    margin = _boundary_margin(full_map, box, grid)
    full_zeros = [
        ZeroRecord(
            point=np.concatenate([np.zeros(m), z.point]),
            sign=sign_m * z.sign,
            det=det_m * z.det,
            residual=z.residual,
        )
        for z in zeros
    ]
    return DegreeCertificate(degree=int(degree), zeros=full_zeros, boundary_margin=margin,
                             method="reduced", box=box)


def degree_generic(
    fun: Callable[[np.ndarray], np.ndarray],
    box: Box,
    grid: int = DEFAULT_GRID,
) -> DegreeCertificate:
    """Degree by regular-zero enumeration.

    Locates all zeros by multistart Newton from a uniform lattice,
    verifies each is regular and interior, and sums orientation signs.
    Raises rather than guessing whenever the evidence is inconclusive.
    """
    wrapped = lambda z: np.atleast_1d(np.asarray(fun(z), dtype=float))
    jac = lambda z: fd_jacobian(wrapped, z)
    margin = _boundary_margin(wrapped, box, grid)
    zeros = _find_zeros(wrapped, jac, box, grid)
    return DegreeCertificate(
        degree=int(sum(z.sign for z in zeros)),
        zeros=zeros,
        boundary_margin=margin,
        method="generic",
        box=box,
    )


def averaged_map_fn(prob, quad_n: int = 64, *, warn: bool = True) -> Callable:
    """Averaged map ``(mean_t of conjugated forcing, g)`` as a callable.

    Meaningful as a branch-seeding map when the frame product ``M``
    vanishes; a nonzero ``M`` triggers a warning (not an error), so the
    map stays computable for diagnostics on drifting frames.
    """
    from .paths import frame_audit  # local import keeps module deps one-way

    audit = frame_audit(prob.A)
    if warn and norm_inf(audit.M) > audit.tol:
        warnings.warn(
            f"averaged map requested with nonzero frame product (||M|| = {norm_inf(audit.M):.3e}); "
            "the seeding theory behind it assumes M = 0",
            stacklevel=3,
        )
    a_path, b_path, f, g = prob.A, prob.B, prob.f, prob.g
    m = prob.m
    second_order = getattr(prob, "order", 1) == 2

    def omega(z):
        z = np.asarray(z, dtype=float)
        xi, eta = z[:m], z[m:]

        def integrand(t):
            a = a_path(t)
            x = a.T @ xi
            y = solve_linear(b_path(t), eta)
            if second_order:
                return a @ np.asarray(f(t, x, y, np.zeros_like(x), np.zeros_like(y)), float)
            return a @ np.asarray(f(t, x, y), dtype=float)

        first = quadrature_periodic(integrand, prob.period, quad_n)
        return np.concatenate([np.atleast_1d(first), np.atleast_1d(g(xi, eta))])

    return omega


def averaged_map(prob, point, quad_n: int = 64) -> np.ndarray:
    """Evaluate the averaged map at one point (see :func:`averaged_map_fn`)."""
    return averaged_map_fn(prob, quad_n)(np.asarray(point, dtype=float))


def averaged_map_audit(
    prob,
    probes: Sequence[np.ndarray],
    reference: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    quad_ns=(64, 256),
) -> dict:
    """Internal-consistency (and optional reference) audit of the averaged map.

    Evaluates the map at each probe with two quadrature resolutions and
    reports the worst discrepancy; when a reference formula is supplied
    its deviation is recorded as well (reported, not asserted, since a
    shipped reference may itself be unverified).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coarse = averaged_map_fn(prob, quad_ns[0], warn=False)
        fine = averaged_map_fn(prob, quad_ns[1], warn=False)
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
        "quad_n": list(quad_ns),
        "quadrature_gap": quad_gap,
        "probes": rows,
    }
    if reference is not None:
        out["reference_gap"] = ref_gap
        out["matches_reference"] = bool(ref_gap <= 1e-8)
    return out
