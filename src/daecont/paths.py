"""Time-parameterized matrix paths and executable audits of their structure.

A :class:`MatrixPath` is a T-periodic map ``t -> A(t)`` into square
matrices with derivative access up to order 2, either analytic (supplied
callables, exact for expression-table and exponential-frame paths) or by
central finite differences.  An exponential frame ``exp(t S) A0`` takes a
skew generator ``S`` and is evaluated from one Hermitian eigendecomposition
of ``i S`` (numpy's ``eigh``), the only matrix exponential the package needs.

The audits quantify, as grid residuals, the structural hypotheses the
rest of the package relies on: orthogonality of ``A(t)``, constancy of
the frame products ``A(t) @ dA(t).T`` and ``A(t).T @ dA(t)``, and a family
of second-derivative identities that hold for orthogonal paths with a
constant frame product.  An audit reads its grid as ``(grid, n, n)``
stacks, one per derivative order (:meth:`MatrixPath.stack`), and computes
each quantity with one stacked expression; a residual is the max absolute
entry of its stack, and one that is not finite (a product overflowed, a
NaN at any node) raises :class:`EvaluationError` naming it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError
from .expressions import Fragments, _define
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

SKEW_REL = 1e-12  # an exp_frame generator with ||s + s.T||_inf > SKEW_REL * ||s||_inf is not skew


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

    A returned array may be shared between calls (a constant path returns
    its matrix, an exponential frame the value at the last time it saw),
    so callers must not write to it.
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
        self._closed = None  # (times, order) -> the stacks of an exponential frame

    @property
    def analytic(self) -> bool:
        """True when first derivatives are supplied rather than differenced."""
        return self._d1 is not None

    def fragments(self, order: int = 0):
        """The :class:`~daecont.expressions.Fragments` of the value (order 0)
        or the first derivative (order 1): None unless that function was
        compiled from expression trees (a Python callable, a differenced
        derivative)."""
        return getattr((self._value, self._d1)[order], "fragments", None)

    def _checked(self, a: np.ndarray) -> np.ndarray:
        # a stack of values, after its one shape test and finiteness test
        if a.shape[1:] != (self.dim, self.dim):
            raise EvaluationError(
                f"path {self.name or '<anonymous>'} returned shape {a.shape[1:]}, "
                f"expected {(self.dim, self.dim)}"
            )
        if not np.isfinite(a).all():
            raise EvaluationError(f"path {self.name or '<anonymous>'} returned non-finite entries")
        return a

    def _at(self, fn, t: float) -> np.ndarray:
        # fn at one time, after the shape and finiteness tests of a stack
        return self._checked(np.asarray(fn(t), dtype=float)[None])[0]

    def _gather(self, fn, times) -> np.ndarray:
        # fn at each time, as one tested stack: a compiled fn by one call of
        # its fill (see _fill), any other node by node; when the nodes have
        # different shapes, the first one that is wrong is named
        fragments = getattr(fn, "fragments", None)
        if fragments is not None:
            flat = _fill(fragments)(times.tolist())
            return self._checked(np.array(flat, dtype=float).reshape(len(times), *fragments.shape))
        values = [fn(t) for t in times]
        try:
            a = np.array(values, dtype=float)
        except ValueError:
            for value in values:
                self._checked(np.array([value], dtype=float))
            raise
        return self._checked(a)

    def _order(self, order: int, at) -> np.ndarray:
        # Order ``order`` from ``at(fn, dt)``, fn's tested value at the
        # time(s) shifted by dt: a supplied function, else central differences.
        if order == 0:
            return at(self._value, 0.0)
        if order not in (1, 2):
            raise EvaluationError(f"derivative order {order} not supported (max 2)")
        supplied = (self._d1, self._d2)[order - 1]
        if supplied is not None:
            return at(supplied, 0.0)
        h = self.fd_step
        if order == 1:
            return (at(self._value, h) - at(self._value, -h)) / (2.0 * h)
        if self._d1 is not None:
            return (at(self._d1, h) - at(self._d1, -h)) / (2.0 * h)
        return (at(self._value, h) - 2.0 * at(self._value, 0.0) + at(self._value, -h)) / (h * h)

    def __call__(self, t: float, order: int = 0) -> np.ndarray:
        return self._order(order, lambda fn, dt: self._at(fn, t + dt if dt else t))

    def stack(self, times, order: int = 0) -> tuple:
        """The stacks ``(A, dA[, d2A])`` of orders ``0..order`` at ``times``.

        Each is a ``(len(times), dim, dim)`` array whose node ``k`` has the
        bits of ``self(times[k], order)``, with its errors: each stack gets
        one shape test and one finiteness test.  An exponential frame
        exponentiates all times at once, and a function compiled from
        expressions fills the stack in one call of emitted code that loops
        over the times with its statements (see
        :class:`~daecont.expressions.Fragments`); any other function (a
        constant's or a Python callable) is called once per node.  A
        differenced order applies its formula to the value stacks at
        ``times +- fd_step``.
        """
        if order not in (0, 1, 2):
            raise EvaluationError(f"derivative order {order} not supported (max 2)")
        times = np.asarray(times, dtype=float)
        if self._closed is not None:
            return tuple(map(self._checked, self._closed(times, order)))
        at = lambda fn, dt: self._gather(fn, times + dt if dt else times)
        return tuple(self._order(k, at) for k in range(order + 1))

    def periodicity_times(self, grid: int = 16) -> np.ndarray:
        """The times ``t + T``, then ``t``, of a uniform grid of ``grid >= 1``
        times ``t``: where :meth:`periodicity_residual` reads the path."""
        if grid < 1:
            raise ValueError(f"periodicity grid must have at least 1 point, got {grid}")
        times = np.array([k * self.period / grid for k in range(grid)])
        return np.concatenate([times + self.period, times])

    def periodicity_residual(self, grid: int = 16, values: Optional[np.ndarray] = None) -> float:
        """Max of ``||A(t+T) - A(t)||_inf`` over a uniform grid of ``grid >= 1`` times.

        ``values``, when given, is the stack of the path's values at
        :meth:`periodicity_times` in place of its own :meth:`stack`.  A
        residual that is not finite raises :class:`EvaluationError`.
        """
        times = self.periodicity_times(grid)
        values = self.stack(times)[0] if values is None else values
        with np.errstate(all="ignore"):
            return _sup(values[:grid] - values[grid:], "periodicity_residual")

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
        """Path ``t -> exp(t*s) @ a0`` with exact derivatives, ``s`` skew.

        A generator ``s`` that is not skew (``||s + s.T||_inf`` above
        ``SKEW_REL * ||s||_inf``) raises :class:`EvaluationError`.  For
        orthogonal ``a0`` the path stays orthogonal and has constant frame
        products.  ``i s`` is Hermitian: one ``eigh`` here factors it as
        ``V diag(w) V^H``, and ``exp(t s) = Re(V diag(e^{-i t w}) V^H)``.
        The value and both derivatives at one ``t`` share one evaluation, and
        a stack of times takes one exponential of all of them.
        """
        s = np.asarray(s, dtype=float)
        n = s.shape[0]
        gap = norm_inf(s + s.T)
        if not gap <= SKEW_REL * norm_inf(s):  # NaN is not skew either
            raise EvaluationError(f"exp_frame generator is not skew: ||s + s.T||_inf = {gap:.3e}")
        a0 = np.eye(n) if a0 is None else np.asarray(a0, dtype=float)
        w, v = np.linalg.eigh(1j * s)
        vh_a0 = v.conj().T @ a0
        s2 = s @ s
        last = [None, None]  # (t, value) of the last time: the orders at one t share one evaluation

        def value(t):
            if t != last[0]:
                last[1] = ((v * np.exp(-1j * t * w)) @ vh_a0).real
                last[0] = t
            return last[1]

        def stacked(times, order):
            # the value's strides are value(t)'s, so s @ a multiplies as s @ value(t) does
            a = ((v * np.exp(-1j * times[:, None, None] * w)) @ vh_a0).real
            return (np.ascontiguousarray(a), *[d @ a for d in (s, s2)[:order]])

        path = MatrixPath(
            n,
            period if period is not None else 2.0 * np.pi,
            value,
            d1=lambda t: s @ value(t),
            d2=lambda t: s2 @ value(t),
            name=name or "exp_frame",
        )
        path._closed = stacked
        return path


@functools.lru_cache(maxsize=128)
def _fill(fragments):
    # fill(times) -> the entries of the compiled function of ``fragments``
    # at each of ``times``, node after node in one flat list: one loop over
    # its statements, with their NonfiniteResultError, emitted and compiled
    # once per fragments
    entries = [f"v{i}" for i in range(len(fragments.templates))]
    lines = ["def fill(times):", "    out = []", "    for t in times:",
             *(f"        {line}" for line in fragments.statements(entries, "t")),
             f"        out += ({', '.join(entries)},)", "    return out", ""]
    return _define("\n".join(lines), Fragments.GLOBALS, "fill")


def _grid_times(path: MatrixPath, grid: int) -> np.ndarray:
    # the audit grid of grid >= MIN_GRID uniform times
    if grid < MIN_GRID:
        raise ValueError(f"audit grid must have at least {MIN_GRID} points")
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


def _t(stack: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (of a matrix, its transpose)."""
    return stack.swapaxes(-1, -2)


def _finite(value, name: str) -> float:
    """``value`` as a float, or :class:`EvaluationError` naming the audit
    quantity when it is not finite."""
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(f"audit quantity {name} is not finite: {value}")
    return value


def _sup(stack: np.ndarray, name: str) -> float:
    """Max absolute entry of a stack of node residuals; a NaN at any node
    propagates, so it raises like an overflow does."""
    return _finite(np.abs(stack).max(), name)


def _audit_samples(a: np.ndarray, rights: np.ndarray, lefts: np.ndarray, tol: float) -> FrameAudit:
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite quantity
        m_mean, k_mean = rights.mean(axis=0), lefts.mean(axis=0)
        return FrameAudit(
            orthogonality=_sup(a @ _t(a) - np.eye(a.shape[1]), "orthogonality_residual"),
            right_constancy=_sup(rights - m_mean, "right_constancy_residual"),
            M=m_mean,
            left_constancy=_sup(lefts - k_mean, "left_constancy_residual"),
            K=k_mean,
            skewness=_sup(m_mean + m_mean.T, "skewness_residual"),
            tol=tol,
            grid_size=len(a),
        )


def frame_audit(path: MatrixPath, grid_size: int = DEFAULT_GRID, tol: Optional[float] = None,
                stacks: Optional[tuple] = None) -> FrameAudit:
    """Audit orthogonality and frame-product constancy on a uniform grid.

    Constancy is measured against the grid mean (not against any single
    time), so no instant is privileged.  ``stacks``, when given, are the
    stacks ``(A, dA)`` at the grid's times in place of the path's own (a
    problem's frame function, see :mod:`daecont.transform`); they must
    give the path's values, and their length is the grid's size.
    """
    a, da = path.stack(_grid_times(path, grid_size), 1) if stacks is None else stacks
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite quantity
        return _audit_samples(a, a @ _t(da), _t(a) @ da, default_tol(path) if tol is None else tol)


# The second-derivative identities, name -> residual matrices at the nodes
# from the stacked products p of lemma_audit, named by their formulas (' is
# the transpose), and M^2 (M the grid mean of A dA').  For an orthogonal path
# with constant right product every one vanishes.
IDENTITIES = {
    "accel_symmetry": lambda p, m2: p["d2A A'"] - p["A d2A'"],
    "accel_velocity": lambda p, m2: p["d2A A'"] + p["dA dA'"],
    "velocity_square": lambda p, m2: p["dA dA'"] + p["(A dA')^2"],
    "accel_drift_square": lambda p, m2: p["d2A A'"] - m2,
    "left_accel_velocity": lambda p, m2: p["d2A' A"] + p["dA' dA"],
    "left_velocity_square": lambda p, m2: p["dA' dA"] + p["(A' dA)^2"],
    "left_accel_square": lambda p, m2: p["d2A' A"] - p["(A' dA)^2"],
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
    a, da, dda = path.stack(_grid_times(path, grid_size), 2)
    with np.errstate(all="ignore"):  # each distinct stacked product once
        right, left = a @ _t(da), _t(a) @ da
        p = {"d2A A'": dda @ _t(a), "A d2A'": a @ _t(dda), "dA dA'": da @ _t(da),
             "dA' dA": _t(da) @ da, "d2A' A": _t(dda) @ a, "(A dA')^2": right @ right,
             "(A' dA)^2": left @ left}
    audit = _audit_samples(a, right, left, default_tol(path))
    m2 = audit.M @ audit.M
    with np.errstate(all="ignore"):
        return LemmaReport(
            residuals={name: _sup(formula(p, m2), name) for name, formula in IDENTITIES.items()},
            constancy_pair=(audit.right_constancy, audit.left_constancy),
            second_mean=p["A d2A'"].mean(axis=0),
            one_sided_gap=_sup(left - right, "one_sided_gap"),
            grid_size=grid_size,
        )


def inverse_derivative(b: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Time derivative ``-B^{-1} dB B^{-1}`` of ``B^{-1}`` from ``B`` and ``dB``.

    Two LU solves; raises :class:`SingularMatrixError` if ``B`` is
    singular at the pivot threshold.
    """
    x = solve_linear(b, db)  # B^{-1} dB
    return -solve_linear(b.T, x.T).T  # -(B^{-1} dB) B^{-1}
