"""Time-parameterized matrix paths and executable audits of their structure.

A :class:`MatrixPath` is a T-periodic map ``t -> A(t)`` into square
matrices with derivative access up to order 2, either analytic (supplied
callables, exact for expression-table and exponential-frame paths) or by
central finite differences.

The audits quantify, as grid residuals, the structural hypotheses the
rest of the package relies on: orthogonality of ``A(t)``, constancy of
the frame products ``A(t) @ dA(t).T`` and ``A(t).T @ dA(t)``, and a family
of second-derivative identities that hold for orthogonal paths with a
constant frame product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .errors import EvaluationError
from .linalg import norm_inf, solve_linear

__all__ = [
    "MatrixPath",
    "FrameAudit",
    "frame_audit",
    "LemmaReport",
    "lemma_audit",
    "inverse_derivative",
]

DEFAULT_GRID = 64
MIN_GRID = 8
ANALYTIC_TOL = 1e-8
FD_TOL = 1e-5


class MatrixPath:
    """T-periodic matrix-valued function of time, differentiable twice.

    Parameters
    ----------
    dim : int
        Matrix dimension (paths are square).
    period : float
        Nominal period T > 0.  Periodicity is audited where it matters
        (problem validation), not enforced at construction, so
        non-periodic test paths remain representable.
    value : callable
        ``t -> (dim, dim)`` array.
    d1, d2 : callable, optional
        First/second derivatives.  Missing orders fall back to central
        finite differences with step ``fd_step``.
    fd_step : float, optional
        Finite-difference step; defaults to ``1e-4 * max(1, period)``.
    """

    def __init__(
        self,
        dim: int,
        period: float,
        value: Callable[[float], np.ndarray],
        d1: Optional[Callable[[float], np.ndarray]] = None,
        d2: Optional[Callable[[float], np.ndarray]] = None,
        *,
        fd_step: Optional[float] = None,
        name: str = "",
    ):
        if dim < 1:
            raise EvaluationError("path dimension must be positive")
        if period <= 0:
            raise EvaluationError("path period must be positive")
        self.dim = int(dim)
        self.period = float(period)
        self._value = value
        self._d1 = d1
        self._d2 = d2
        self.fd_step = float(fd_step) if fd_step is not None else 1e-4 * max(1.0, period)
        self.name = name

    @property
    def analytic(self) -> bool:
        """True when first derivatives are supplied rather than differenced."""
        return self._d1 is not None

    def _raw(self, fn, t: float) -> np.ndarray:
        a = np.asarray(fn(t), dtype=float)
        if a.shape != (self.dim, self.dim):
            raise EvaluationError(
                f"path {self.name or '<anonymous>'} returned shape {a.shape}, "
                f"expected {(self.dim, self.dim)}"
            )
        if not np.all(np.isfinite(a)):
            raise EvaluationError(f"path {self.name or '<anonymous>'} returned non-finite entries")
        return a

    def __call__(self, t: float, order: int = 0) -> np.ndarray:
        if order == 0:
            return self._raw(self._value, t)
        if order == 1:
            if self._d1 is not None:
                return self._raw(self._d1, t)
            h = self.fd_step
            return (self._raw(self._value, t + h) - self._raw(self._value, t - h)) / (2.0 * h)
        if order == 2:
            if self._d2 is not None:
                return self._raw(self._d2, t)
            if self._d1 is not None:
                h = self.fd_step
                return (self._raw(self._d1, t + h) - self._raw(self._d1, t - h)) / (2.0 * h)
            h = self.fd_step
            return (
                self._raw(self._value, t + h)
                - 2.0 * self._raw(self._value, t)
                + self._raw(self._value, t - h)
            ) / (h * h)
        raise EvaluationError(f"derivative order {order} not supported (max 2)")

    def periodicity_residual(self, grid: int = 16) -> float:
        """Max of ``||A(t+T) - A(t)||_inf`` over a uniform grid."""
        worst = 0.0
        for k in range(grid):
            t = k * self.period / grid
            worst = max(worst, norm_inf(self(t + self.period) - self(t)))
        return worst

    @staticmethod
    def constant(mat: np.ndarray, period: float = 1.0, name: str = "") -> "MatrixPath":
        """Path that is constantly equal to ``mat``."""
        mat = np.asarray(mat, dtype=float)
        zero = np.zeros_like(mat)
        return MatrixPath(
            mat.shape[0],
            period,
            lambda t: mat,
            d1=lambda t: zero,
            d2=lambda t: zero,
            name=name or "constant",
        )

    @staticmethod
    def exp_frame(
        s: np.ndarray,
        a0: Optional[np.ndarray] = None,
        period: Optional[float] = None,
        name: str = "",
    ) -> "MatrixPath":
        """Path ``t -> expm(t*s) @ a0`` with exact derivatives.

        For skew ``s`` and orthogonal ``a0`` the path stays orthogonal and
        has constant frame products.
        """
        s = np.asarray(s, dtype=float)
        n = s.shape[0]
        a0 = np.eye(n) if a0 is None else np.asarray(a0, dtype=float)
        s2 = s @ s

        def value(t):
            return expm(t * s) @ a0

        return MatrixPath(
            n,
            period if period is not None else 2.0 * np.pi,
            value,
            d1=lambda t: s @ value(t),
            d2=lambda t: s2 @ value(t),
            name=name or "exp_frame",
        )


def _grid_times(path: MatrixPath, grid: int) -> np.ndarray:
    return np.arange(grid) * (path.period / grid)


def default_tol(path: MatrixPath) -> float:
    return ANALYTIC_TOL if path.analytic else FD_TOL


@dataclass(frozen=True)
class FrameAudit:
    """Grid residuals for the structural hypotheses on a frame path.

    ``M`` and ``K`` are the grid means of ``A @ dA.T`` and ``A.T @ dA``;
    the constancy residuals measure the worst deviation from those means.
    A hypothesis "holds" when its residual is at most ``tol``.
    """

    orthogonality: float
    right_constancy: float
    M: np.ndarray
    left_constancy: float
    K: np.ndarray
    skewness: float
    tol: float
    grid_size: int

    @property
    def is_orthogonal(self) -> bool:
        return self.orthogonality <= self.tol

    @property
    def right_constant(self) -> bool:
        return self.right_constancy <= self.tol

    @property
    def left_constant(self) -> bool:
        return self.left_constancy <= self.tol

    @property
    def suitable(self) -> bool:
        """Orthogonal with a constant right product: a frame the fixed-frame form accepts."""
        return self.is_orthogonal and self.right_constant

    def to_dict(self) -> dict:
        return {
            "orthogonality_residual": self.orthogonality,
            "right_constancy_residual": self.right_constancy,
            "M": self.M,
            "left_constancy_residual": self.left_constancy,
            "K": self.K,
            "skewness_residual": self.skewness,
            "tol": self.tol,
            "grid_size": self.grid_size,
            "orthogonal": self.is_orthogonal,
            "right_constant": self.right_constant,
            "left_constant": self.left_constant,
        }


def frame_audit(path: MatrixPath, grid_size: int = DEFAULT_GRID, tol: Optional[float] = None) -> FrameAudit:
    """Audit orthogonality and frame-product constancy on a uniform grid.

    Constancy is measured against the grid mean (not against any single
    time), so no instant is privileged.
    """
    if grid_size < MIN_GRID:
        raise ValueError(f"audit grid must have at least {MIN_GRID} points")
    if tol is None:
        tol = default_tol(path)
    times = _grid_times(path, grid_size)
    eye = np.eye(path.dim)
    rights = []
    lefts = []
    orth = 0.0
    for t in times:
        a = path(t)
        da = path(t, 1)
        orth = max(orth, norm_inf(a @ a.T - eye))
        rights.append(a @ da.T)
        lefts.append(a.T @ da)
    m_mean = np.mean(rights, axis=0)
    k_mean = np.mean(lefts, axis=0)
    right_res = max(norm_inf(r - m_mean) for r in rights)
    left_res = max(norm_inf(l - k_mean) for l in lefts)
    return FrameAudit(
        orthogonality=orth,
        right_constancy=right_res,
        M=m_mean,
        left_constancy=left_res,
        K=k_mean,
        skewness=norm_inf(m_mean + m_mean.T),
        tol=tol,
        grid_size=grid_size,
    )


@dataclass(frozen=True)
class LemmaReport:
    """Grid residuals of the second-derivative identities of frame paths.

    For an orthogonal path with constant right product M := A @ dA.T the
    following vanish identically, and the report records their worst
    grid deviation:

    - ``accel_symmetry``:      d2A @ A.T - A @ d2A.T
    - ``accel_velocity``:      d2A @ A.T + dA @ dA.T
    - ``velocity_square``:     dA @ dA.T + (A @ dA.T)^2
    - ``accel_drift_square``:  d2A @ A.T - M^2        (M = grid mean)
    - ``left_accel_velocity``: d2A.T @ A + dA.T @ dA
    - ``left_velocity_square``: dA.T @ dA + (A.T @ dA)^2
    - ``left_accel_square``:   d2A.T @ A - (A.T @ dA)^2

    ``constancy_pair`` carries the two one-sided constancy residuals,
    which are zero (or not) together; ``second_mean`` is the grid mean of
    ``A @ d2A.T``.
    """

    accel_symmetry: float
    accel_velocity: float
    velocity_square: float
    accel_drift_square: float
    left_accel_velocity: float
    left_velocity_square: float
    left_accel_square: float
    constancy_pair: tuple
    second_mean: np.ndarray
    one_sided_gap: float  # max ||A.T @ dA - A @ dA.T||_inf over the grid
    grid_size: int

    def residuals(self) -> dict:
        return {
            "accel_symmetry": self.accel_symmetry,
            "accel_velocity": self.accel_velocity,
            "velocity_square": self.velocity_square,
            "accel_drift_square": self.accel_drift_square,
            "left_accel_velocity": self.left_accel_velocity,
            "left_velocity_square": self.left_velocity_square,
            "left_accel_square": self.left_accel_square,
        }

    def to_dict(self) -> dict:
        out = dict(self.residuals())
        out["right_constancy_residual"] = self.constancy_pair[0]
        out["left_constancy_residual"] = self.constancy_pair[1]
        out["second_mean"] = self.second_mean
        out["one_sided_gap"] = self.one_sided_gap
        out["grid_size"] = self.grid_size
        return out


def lemma_audit(path: MatrixPath, grid_size: int = DEFAULT_GRID) -> LemmaReport:
    """Evaluate every second-derivative identity residual on the grid.

    The identities are only guaranteed for orthogonal paths with constant
    right product (``frame_audit(path).suitable``); when those
    preconditions fail, only the constancy pair is meaningful.
    """
    audit = frame_audit(path, grid_size)
    times = _grid_times(path, grid_size)
    m2 = audit.M @ audit.M
    res = dict.fromkeys(
        [
            "accel_symmetry",
            "accel_velocity",
            "velocity_square",
            "accel_drift_square",
            "left_accel_velocity",
            "left_velocity_square",
            "left_accel_square",
        ],
        0.0,
    )
    gap = 0.0
    seconds = []
    for t in times:
        a = path(t)
        da = path(t, 1)
        dda = path(t, 2)
        right = a @ da.T
        left = a.T @ da
        dda_at = dda @ a.T
        a_ddat = a @ dda.T
        seconds.append(a_ddat)
        res["accel_symmetry"] = max(res["accel_symmetry"], norm_inf(dda_at - a_ddat))
        res["accel_velocity"] = max(res["accel_velocity"], norm_inf(dda_at + da @ da.T))
        res["velocity_square"] = max(res["velocity_square"], norm_inf(da @ da.T + right @ right))
        res["accel_drift_square"] = max(res["accel_drift_square"], norm_inf(dda_at - m2))
        res["left_accel_velocity"] = max(res["left_accel_velocity"], norm_inf(dda.T @ a + da.T @ da))
        res["left_velocity_square"] = max(
            res["left_velocity_square"], norm_inf(da.T @ da + left @ left)
        )
        res["left_accel_square"] = max(res["left_accel_square"], norm_inf(dda.T @ a - left @ left))
        gap = max(gap, norm_inf(left - right))
    return LemmaReport(
        accel_symmetry=res["accel_symmetry"],
        accel_velocity=res["accel_velocity"],
        velocity_square=res["velocity_square"],
        accel_drift_square=res["accel_drift_square"],
        left_accel_velocity=res["left_accel_velocity"],
        left_velocity_square=res["left_velocity_square"],
        left_accel_square=res["left_accel_square"],
        constancy_pair=(audit.right_constancy, audit.left_constancy),
        second_mean=np.mean(seconds, axis=0),
        one_sided_gap=gap,
        grid_size=grid_size,
    )


def inverse_derivative(b: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Time derivative ``-B^{-1} dB B^{-1}`` of ``B^{-1}`` from ``B`` and ``dB``.

    Two LU solves; raises :class:`SingularMatrixError` if ``B`` is
    singular at the pivot threshold.
    """
    x = solve_linear(b, db)  # B^{-1} dB
    return -solve_linear(b.T, x.T).T  # -(B^{-1} dB) B^{-1}
