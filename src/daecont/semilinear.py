"""SVD-based reduction of separated-variables semi-linear DAEs.

Systems ``E dx/dt = F(t) x + lam * C(t) S(x)`` with ``rank E = n/2`` are
reduced to the semi-explicit moving-constraint form: orthogonal factors
``P, Q`` diagonalizing ``E`` split the transformed system into an ODE
block for the first ``r`` variables and an algebraic block
``F3(t) x + F4(t) y = 0``, provided the kernel/image alignment conditions
hold (``ker C(t).T = ker E.T`` and ``im F(t) = ker E.T`` for all t).
The algebraic block then plays the role of the moving constraint with
frame ``F3`` and scaling ``F4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConditionsViolatedError,
    RankMismatchError,
    SingularBlockError,
)
from .linalg import determinant, norm_inf, svd_small
from .paths import MatrixPath
from .transform import DaeProblem1

__all__ = ["SemiLinearDae", "ReductionReport", "check_conditions", "reduce_semilinear"]

COND_TOL = 1e-8
RANK_REL = 1e-10


@dataclass
class SemiLinearDae:
    """Semi-linear DAE with separated variables.

    ``mass`` is the (singular) constant matrix multiplying dx/dt;
    ``Fpath`` and ``Cpath`` are T-periodic matrix paths; ``S`` maps
    state vectors to state vectors.
    """

    n: int
    period: float
    mass: np.ndarray
    Fpath: MatrixPath
    Cpath: MatrixPath
    S: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def _numerical_rank(sigma: np.ndarray) -> int:
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_REL * sigma[0]))


def _kernel_basis(mat: np.ndarray) -> np.ndarray:
    # Orthonormal basis of ker(mat.T): left singular vectors past the rank.
    p, sigma, _ = svd_small(mat)
    return p[:, _numerical_rank(sigma) :]


def _image_basis(mat: np.ndarray) -> np.ndarray:
    p, sigma, _ = svd_small(mat)
    return p[:, : _numerical_rank(sigma)]


def _subspace_residual(u: np.ndarray, v: np.ndarray) -> float:
    # 0 iff span(u) == span(v); dimension mismatch counts as maximal.
    if u.shape[1] != v.shape[1]:
        return 1.0
    return norm_inf(u @ u.T - v @ v.T)


@dataclass(frozen=True)
class ReductionReport:
    """Everything the reduction is allowed to assume, as residuals.

    Block residuals measure how far the transformed matrices are from
    their required zero patterns; kernel residuals compare the relevant
    subspaces via orthogonal projectors; determinant margins are minima
    over the audit grid.
    """

    P: np.ndarray
    Q: np.ndarray
    sigma: np.ndarray
    rank: int
    e_block_residual: float
    f_block_residual: float
    c_block_residual: float
    kernel_residual_c: float
    kernel_residual_f: float
    det_margin_f3: float
    det_margin_f4: float
    grid_size: int
    tol: float = COND_TOL

    @property
    def conditions_hold(self) -> bool:
        return (
            max(
                self.e_block_residual,
                self.f_block_residual,
                self.c_block_residual,
                self.kernel_residual_c,
                self.kernel_residual_f,
            )
            <= self.tol
        )

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "sigma": self.sigma,
            "e_block_residual": self.e_block_residual,
            "f_block_residual": self.f_block_residual,
            "c_block_residual": self.c_block_residual,
            "kernel_residual_c": self.kernel_residual_c,
            "kernel_residual_f": self.kernel_residual_f,
            "det_margin_f3": self.det_margin_f3,
            "det_margin_f4": self.det_margin_f4,
            "conditions_hold": self.conditions_hold,
            "tol": self.tol,
            "grid_size": self.grid_size,
            "P": self.P,
            "Q": self.Q,
        }


def _rank_checked_svd(dae: SemiLinearDae):
    p, sigma, q = svd_small(dae.mass)
    r = _numerical_rank(sigma)
    if dae.n % 2 != 0 or r != dae.n // 2:
        raise RankMismatchError(
            f"mass matrix rank {r} must equal n/2 = {dae.n / 2:g} (n = {dae.n})"
        )
    return p, sigma, q, r


def check_conditions(dae: SemiLinearDae, grid: int = 64) -> ReductionReport:
    """Audit the reduction hypotheses of a semi-linear DAE on a grid."""
    return _check_with(dae, *_rank_checked_svd(dae), grid)


def _check_with(dae, p, sigma, q, r, grid) -> ReductionReport:
    n = dae.n
    e_t = p.T @ dae.mass @ q
    e_res = max(
        norm_inf(e_t[:r, r:]),
        norm_inf(e_t[r:, :r]),
        norm_inf(e_t[r:, r:]),
    )
    ker_e = p[:, r:]
    f_res = c_res = 0.0
    ker_c_res = ker_f_res = 0.0
    det3 = det4 = np.inf
    for k in range(grid):
        t = k * dae.period / grid
        f_raw, c_raw = dae.Fpath(t), dae.Cpath(t)
        f_t = p.T @ f_raw @ q
        c_t = p.T @ c_raw @ q
        f_res = max(f_res, norm_inf(f_t[:r, :]))
        c_res = max(c_res, norm_inf(c_t[r:, :]))
        ker_c_res = max(ker_c_res, _subspace_residual(_kernel_basis(c_raw), ker_e))
        ker_f_res = max(ker_f_res, _subspace_residual(_image_basis(f_raw), ker_e))
        det3 = min(det3, abs(determinant(f_t[r:, :r])))
        det4 = min(det4, abs(determinant(f_t[r:, r:])))
    return ReductionReport(
        P=p,
        Q=q,
        sigma=sigma,
        rank=r,
        e_block_residual=e_res,
        f_block_residual=f_res,
        c_block_residual=c_res,
        kernel_residual_c=ker_c_res,
        kernel_residual_f=ker_f_res,
        det_margin_f3=det3,
        det_margin_f4=det4,
        grid_size=grid,
    )


def _block_path(path: MatrixPath, p: np.ndarray, q: np.ndarray, rows: slice, cols: slice,
                period: float, name: str) -> MatrixPath:
    # Constant conjugation commutes with d/dt, so derivatives of the block
    # are blocks of the derivative.
    def block(order):
        return lambda t: (p.T @ path(t, order) @ q)[rows, cols]

    dim = rows.stop - rows.start
    return MatrixPath(dim, period, block(0), d1=block(1), d2=block(2), name=name)


def reduce_semilinear(
    dae: SemiLinearDae,
    grid: int = 64,
    *,
    report: Optional[ReductionReport] = None,
) -> DaeProblem1:
    """Reduce a semi-linear DAE to a first-order moving-constraint problem.

    The result has ``m = s = r = n/2``, frame path ``F3``, scaling path
    ``F4``, constraint ``g(p, q) = p + q`` and forcing
    ``f = E1^{-1} (C1(t) S1 + C2(t) S2)`` with ``(S1, S2) = Q.T S(Q ·)``.
    The frame ``F3`` is not audited here: a frame that fails
    ``frame_audit`` is outside the scope of the fixed-frame machinery
    (which then raises), while raw-mode integration still works.
    A given ``report`` supplies ``P``, ``Q``, ``sigma`` and the rank;
    without one, :func:`check_conditions` runs first.
    """
    if report is None:
        report = check_conditions(dae, grid)
    p, q, sigma, r = report.P, report.Q, report.sigma, report.rank
    if not report.conditions_hold:
        raise ConditionsViolatedError(
            "reduction conditions failed: "
            + ", ".join(f"{k}={v:.3e}" for k, v in report.to_dict().items()
                        if k.endswith("residual") and isinstance(v, float))
        )
    if min(report.det_margin_f3, report.det_margin_f4) < 1e-12:
        raise SingularBlockError(
            f"transformed blocks are singular on the grid: |det F3| >= {report.det_margin_f3:.3e}, "
            f"|det F4| >= {report.det_margin_f4:.3e}"
        )
    period = dae.period
    a_path = _block_path(dae.Fpath, p, q, slice(r, 2 * r), slice(0, r), period, "F3")
    b_path = _block_path(dae.Fpath, p, q, slice(r, 2 * r), slice(r, 2 * r), period, "F4")
    c_top = lambda t: (p.T @ dae.Cpath(t) @ q)[:r, :]
    inv_e1 = 1.0 / sigma[:r]
    s_fun = dae.S
    q_mat = q

    def forcing(t, x, y):
        s_vec = q_mat.T @ np.asarray(s_fun(q_mat @ np.concatenate([x, y])), dtype=float)
        return inv_e1 * (c_top(t) @ s_vec)

    eye_r = np.eye(r)
    return DaeProblem1(
        m=r,
        s=r,
        period=period,
        f=forcing,
        g=lambda pp, qq: pp + qq,
        A=a_path,
        B=b_path,
        d1g=lambda pp, qq: eye_r,
        d2g=lambda pp, qq: eye_r,
        name=(dae.name + "_reduced") if dae.name else "reduced",
    )
