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


def _samples(path: MatrixPath, grid_size: int, order: int) -> list:
    """``(A, dA[, d2A])`` at each node of a uniform grid: the audits' one sampling pass."""
    if grid_size < MIN_GRID:
        raise ValueError(f"audit grid must have at least {MIN_GRID} points")
    return [tuple(path(t, k) for k in range(order + 1)) for t in _grid_times(path, grid_size)]


def _audit_samples(samples: list, tol: float) -> FrameAudit:
    eye = np.eye(samples[0][0].shape[0])
    orth = max(norm_inf(a @ a.T - eye) for a, *_ in samples)
    rights = [a @ da.T for a, da, *_ in samples]
    lefts = [a.T @ da for a, da, *_ in samples]
    m_mean = np.mean(rights, axis=0)
    k_mean = np.mean(lefts, axis=0)
    return FrameAudit(
        orthogonality=orth,
        right_constancy=max(norm_inf(r - m_mean) for r in rights),
        M=m_mean,
        left_constancy=max(norm_inf(l - k_mean) for l in lefts),
        K=k_mean,
        skewness=norm_inf(m_mean + m_mean.T),
        tol=tol,
        grid_size=len(samples),
    )


def frame_audit(path: MatrixPath, grid_size: int = DEFAULT_GRID, tol: Optional[float] = None) -> FrameAudit:
    """Audit orthogonality and frame-product constancy on a uniform grid.

    Constancy is measured against the grid mean (not against any single
    time), so no instant is privileged.
    """
    samples = _samples(path, grid_size, 1)
    return _audit_samples(samples, default_tol(path) if tol is None else tol)


# The second-derivative identities, name -> residual matrix at one node
# from (A, dA, d2A) and M^2 (M the grid mean of A @ dA.T).  For an
# orthogonal path with constant right product every one vanishes.
IDENTITIES = {
    "accel_symmetry": lambda a, da, dda, m2: dda @ a.T - a @ dda.T,
    "accel_velocity": lambda a, da, dda, m2: dda @ a.T + da @ da.T,
    "velocity_square": lambda a, da, dda, m2: da @ da.T + (a @ da.T) @ (a @ da.T),
    "accel_drift_square": lambda a, da, dda, m2: dda @ a.T - m2,
    "left_accel_velocity": lambda a, da, dda, m2: dda.T @ a + da.T @ da,
    "left_velocity_square": lambda a, da, dda, m2: da.T @ da + (a.T @ da) @ (a.T @ da),
    "left_accel_square": lambda a, da, dda, m2: dda.T @ a - (a.T @ da) @ (a.T @ da),
}


@dataclass(frozen=True)
class LemmaReport:
    """Grid residuals of the second-derivative identities of frame paths.

    ``residuals`` maps each name of :data:`IDENTITIES` to the worst grid
    deviation of its identity.  ``constancy_pair`` carries the two
    one-sided constancy residuals, which are zero (or not) together;
    ``second_mean`` is the grid mean of ``A @ d2A.T``.
    """

    residuals: dict
    constancy_pair: tuple
    second_mean: np.ndarray
    one_sided_gap: float  # max ||A.T @ dA - A @ dA.T||_inf over the grid
    grid_size: int

    def to_dict(self) -> dict:
        out = dict(self.residuals)
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
    samples = _samples(path, grid_size, 2)
    audit = _audit_samples(samples, default_tol(path))
    m2 = audit.M @ audit.M
    return LemmaReport(
        residuals={
            name: max(norm_inf(formula(a, da, dda, m2)) for a, da, dda in samples)
            for name, formula in IDENTITIES.items()
        },
        constancy_pair=(audit.right_constancy, audit.left_constancy),
        second_mean=np.mean([a @ dda.T for a, _, dda in samples], axis=0),
        one_sided_gap=max(norm_inf(a.T @ da - a @ da.T) for a, da, _ in samples),
        grid_size=grid_size,
    )


def inverse_derivative(b: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Time derivative ``-B^{-1} dB B^{-1}`` of ``B^{-1}`` from ``B`` and ``dB``.

    Two LU solves; raises :class:`SingularMatrixError` if ``B`` is
    singular at the pivot threshold.
    """
    x = solve_linear(b, db)  # B^{-1} dB
    return -solve_linear(b.T, x.T).T  # -(B^{-1} dB) B^{-1}
