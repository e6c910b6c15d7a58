"""Problem model and the fixed-frame coordinate change.

A first-order problem couples ``dx/dt = H x + lam * f(t, x, y)`` with the
moving constraint ``g(A(t) x, B(t) y) = 0`` (``H`` optional, commuting
with ``A``); the second-order variant drives ``d2x/dt2`` and lets ``f``
see velocities.  The coordinate change ``xi = A(t) x``, ``eta = B(t) y``
renders the constraint autonomous at the price of constant drift terms
built from the audited frame product ``M = mean(A @ dA.T)``:

- order 1: ``dxi/dt  = (H - M) xi + lam * F(t, xi, eta)``
- order 2: ``d2xi/dt2 = (H1 M + H2 - M^2) xi + (H1 - 2M) dxi/dt + lam * F``

with ``F = A(t) f`` the frame-conjugated forcing.  :class:`TransformedSystem`
owns the change in both directions, node by node: ``push_forward`` and
its inverse ``pull_back`` (``x = A(t).T xi``, ``y = B(t)^{-1} eta``),
velocities included for order 2.  One node map serves ``pull_back``,
``F`` and the linearized forcing that shooting sensitivities need
(``linear_drive``).  The frame depends on time alone, and every
fixed-frame computation (a march, the averaged map's quadrature) visits
the same times again and again, so a system keeps the frame of each time
it has seen in its table ``frames``: filled on first use, keyed by the
exact float, and living as long as the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisViolatedError, NonfiniteResultError
from .linalg import fd_jacobian, norm_inf, solve_linear
from .paths import DEFAULT_GRID, MatrixPath, frame_audit, inverse_derivative

__all__ = [
    "DaeProblem1",
    "DaeProblem2",
    "TransformedSystem",
    "fixed_frame",
    "fixed_frame_first",
    "fixed_frame_second",
    "c_frame_drifts",
]

PERIODICITY_TOL = 1e-9
_EPS_QUARTER = np.finfo(float).eps ** 0.25  # step of the mixed second difference in gdot_jac


@dataclass
class DaeProblem1:
    """First-order parametrized DAE with a moving constraint.

    ``f(t, x, y)`` is the forcing (T-periodic in t), ``g(p, q)`` the
    constraint with invertible ``dg/dq``; ``A`` must be an orthogonal
    frame path with constant right product, ``B`` invertible.  ``d1g`` and
    ``d2g`` are the constraint Jacobian blocks and ``df(t, x, y)`` the
    Jacobian of ``f`` with respect to ``(x, y)``; each one that is omitted
    is formed by forward differences.
    """

    m: int
    s: int
    period: float
    f: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    A: MatrixPath
    B: MatrixPath
    d1g: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    d2g: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    H: Optional[np.ndarray] = None
    name: str = ""
    df: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None

    order: int = field(default=1, init=False, repr=False)

    def g_jac1(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        if self.d1g is not None:
            return np.asarray(self.d1g(p, q), dtype=float)
        return fd_jacobian(lambda pp: np.atleast_1d(self.g(pp, q)), np.asarray(p, float))

    def g_jac2(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        if self.d2g is not None:
            return np.asarray(self.d2g(p, q), dtype=float)
        return fd_jacobian(lambda qq: np.atleast_1d(self.g(p, qq)), np.asarray(q, float))

    def f_jac(self, t: float, *node) -> np.ndarray:
        """Jacobian of ``f(t, *node)`` with respect to the stacked node arguments."""
        if self.df is not None:
            return np.asarray(self.df(t, *node), dtype=float)
        cuts = np.cumsum([np.size(v) for v in node])[:-1]
        return fd_jacobian(lambda z: np.asarray(self.f(t, *np.split(z, cuts)), dtype=float),
                           np.concatenate(node))

    def frame(self, t: float):
        """``(A(t), B(t))``."""
        return self.A(t), self.B(t)

    def drive(self, t: float, x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
        """Right-hand side of the differential part in original coordinates."""
        rhs = lam * np.asarray(self.f(t, x, y), dtype=float)
        if self.H is not None:
            rhs = rhs + self.H @ x
        return rhs


@dataclass
class DaeProblem2:
    """Second-order variant: ``f(t, x, y, xdot, ydot)``, drifts H1, H2.

    ``df`` is the Jacobian of ``f`` with respect to ``(x, y, xdot, ydot)``
    and ``dgdot(p, q, u, w)`` that of ``d1g(p, q) u + d2g(p, q) w`` with
    respect to ``(p, q)``, the time derivative of the constraint along a
    motion with rates ``(u, w)``.  An omitted ``df`` is formed by forward
    differences, an omitted ``dgdot`` by central second differences of
    ``g`` (see :meth:`gdot_jac`).
    """

    m: int
    s: int
    period: float
    f: Callable
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    A: MatrixPath
    B: MatrixPath
    d1g: Optional[Callable] = None
    d2g: Optional[Callable] = None
    H1: Optional[np.ndarray] = None
    H2: Optional[np.ndarray] = None
    name: str = ""
    df: Optional[Callable] = None
    dgdot: Optional[Callable] = None

    order: int = field(default=2, init=False, repr=False)

    g_jac1 = DaeProblem1.g_jac1
    g_jac2 = DaeProblem1.g_jac2
    f_jac = DaeProblem1.f_jac
    frame = DaeProblem1.frame

    def gdot_jac(self, p, q, u, w) -> np.ndarray:
        """Jacobian of ``g_jac1(p, q) u + g_jac2(p, q) w`` with respect to ``(p, q)``.

        Without ``dgdot`` it is the central mixed second difference of
        ``g`` along each coordinate and the rate direction ``(u, w)``, steps
        ``eps^(1/4) (1 + |z|)``: accurate to about ``eps^(1/2)`` whether or
        not ``d1g`` and ``d2g`` are given.
        """
        if self.dgdot is not None:
            return np.asarray(self.dgdot(p, q, u, w), dtype=float)
        m = np.size(p)
        z, rate = np.concatenate([p, q]), np.concatenate([u, w])
        out = np.zeros((self.s, z.size))
        speed = norm_inf(rate)
        if speed == 0.0:
            return out
        g = lambda y: np.atleast_1d(np.asarray(self.g(y[:m], y[m:]), dtype=float))
        along = _EPS_QUARTER * (1.0 + norm_inf(z)) / speed
        d = along * rate
        for k in range(z.size):
            h = np.zeros(z.size)
            h[k] = _EPS_QUARTER * (1.0 + abs(z[k]))
            out[:, k] = ((g(z + h + d) - g(z + h - d) - g(z - h + d) + g(z - h - d))
                         / (4.0 * h[k] * along))
        return out

    def drive(self, t, x, y, xdot, ydot, lam):
        rhs = lam * np.asarray(self.f(t, x, y, xdot, ydot), dtype=float)
        if self.H1 is not None:
            rhs = rhs + self.H1 @ xdot
        if self.H2 is not None:
            rhs = rhs + self.H2 @ x
        return rhs


def _check_frame(prob):
    audit = frame_audit(prob.A)
    if audit.orthogonality > audit.tol:
        raise HypothesisViolatedError(
            f"frame path is not orthogonal: residual {audit.orthogonality:.3e} > {audit.tol:.1e}"
        )
    if audit.right_constancy > audit.tol:
        raise HypothesisViolatedError(
            f"frame product is not constant: residual {audit.right_constancy:.3e} > {audit.tol:.1e}"
        )
    for path, label in ((prob.A, "A"), (prob.B, "B")):
        res = path.periodicity_residual()
        if res > PERIODICITY_TOL:
            raise HypothesisViolatedError(
                f"path {label} is not {prob.period}-periodic: residual {res:.3e}"
            )
    return audit


def _check_commutation(h: np.ndarray, path: MatrixPath, tol: float, label: str):
    worst = 0.0
    for k in range(DEFAULT_GRID):
        t = k * path.period / DEFAULT_GRID
        a = path(t)
        worst = max(worst, norm_inf(h @ a - a @ h))
    if worst > tol:
        raise HypothesisViolatedError(
            f"{label} does not commute with the frame path: residual {worst:.3e} > {tol:.1e}"
        )


@dataclass
class TransformedSystem:
    """Fixed-frame form of a problem: autonomous constraint, constant drifts.

    ``D0`` multiplies the state, ``D1`` (order 2 only) the velocity; ``f``
    is the problem's forcing, which :meth:`F` conjugates into the frame.
    The model derivatives (``g_jac1``, ``g_jac2``, ``f_jac`` and, for order
    2, ``gdot_jac``) are the problem's.  ``frames`` maps each time the
    system has seen to its frame (see :meth:`_frame`); a copy made with
    :func:`dataclasses.replace` starts with an empty table.
    """

    order: int
    m: int
    s: int
    period: float
    D0: np.ndarray
    D1: Optional[np.ndarray]
    f: Callable
    g: Callable
    g_jac1: Callable
    g_jac2: Callable
    f_jac: Callable
    gdot_jac: Optional[Callable]
    A: MatrixPath
    B: MatrixPath
    M: np.ndarray
    frames: dict = field(init=False, default_factory=dict, repr=False)

    def _frame(self, t: float):
        # The frame at t, (A, B) and for order 2 (dA, d(B^-1)) too: from the
        # table, else evaluated once and stored there.
        frame = self.frames.get(t)
        if frame is None:
            a, b = self.A(t), self.B(t)
            rates = (self.A(t, 1), inverse_derivative(b, self.B(t, 1))) if self.order == 2 else ()
            frame = self.frames[t] = (a, b, *rates)
        return frame

    def frame(self, t: float):
        """``(A(t), B(t))``, read through the frame table."""
        return self._frame(t)[:2]

    def _node(self, t: float, xi, eta, xid=None, etad=None):
        # The frame at t and the original-coordinate node (x, y, xdot, ydot)
        # of a frame node, velocities None unless xid and etad are given.
        frame = self._frame(t)
        a, b = frame[0], frame[1]
        x = a.T @ xi
        y = solve_linear(b, eta)
        if xid is None:
            return frame, (x, y, None, None)
        da, dbinv = frame[2], frame[3]
        xd = da.T @ xi + a.T @ xid
        yd = dbinv @ eta + solve_linear(b, etad)
        return frame, (x, y, xd, yd)

    def _forcing(self, t, xi, eta, velocities):
        # (frame, model arguments, F) at a frame node.  A non-finite model
        # value is named here: A(t) has zero entries, and 0 * inf in the
        # product would turn it into a NaN and a numpy warning.
        frame, node = self._node(t, xi, eta, *velocities)
        args = node[: 2 * self.order]
        value = np.asarray(self.f(t, *args), dtype=float)
        if not all(map(math.isfinite, value.tolist())):
            raise NonfiniteResultError(
                f"forcing f at t = {t!r} is {value.tolist()}: a model value is not finite"
            )
        return frame, args, frame[0] @ value

    def F(self, t: float, xi, eta, *velocities):
        """Frame-conjugated forcing ``A(t) f(t, x, y[, xdot, ydot])``.

        Called as ``F(t, xi, eta)`` for order 1 and ``F(t, xi, eta, u, v)``
        for order 2, where ``u`` and ``v`` are the frame velocities.
        """
        return self._forcing(t, xi, eta, velocities)[2]

    def _drift(self, xi, velocities):
        return self.D0 @ xi if self.order == 1 else self.D0 @ xi + self.D1 @ velocities[0]

    def drive(self, t, xi, eta, *args):
        """Right-hand side of the differential part in frame coordinates.

        Called like the problem's ``drive``: ``(t, xi, eta, lam)`` for
        order 1 and ``(t, xi, eta, xidot, etadot, lam)`` for order 2.
        """
        *velocities, lam = args
        return self._drift(xi, velocities) + lam * self.F(t, xi, eta, *velocities)

    def linear_drive(self, t, xi, eta, *args):
        """:meth:`drive` with its forcing and the forcing's Jacobian.

        Called like :meth:`drive`; returns ``(rhs, F, dF)``, where ``rhs``
        is :meth:`drive`'s value bit for bit, ``F`` the forcing and ``dF``
        the Jacobians of ``F`` with respect to ``xi`` and ``eta`` (order 1)
        or ``xi``, ``eta``, ``xidot`` and ``etadot`` (order 2), chained
        through the frame change from the model's ``f_jac``.
        """
        *velocities, lam = args
        frame, node, force = self._forcing(t, xi, eta, velocities)
        a, b = frame[0], frame[1]
        m, s = self.m, self.s
        jac = self.f_jac(t, *node)
        rhs = self._drift(xi, velocities) + lam * force
        f_x, f_y = jac[:, :m], jac[:, m : m + s]
        if self.order == 1:
            return rhs, force, (a @ f_x @ a.T, a @ _times_inverse(f_y, b))
        da, dbinv = frame[2], frame[3]
        f_u, f_v = jac[:, m + s : 2 * m + s], jac[:, 2 * m + s :]
        return rhs, force, (a @ (f_x @ a.T + f_u @ da.T),
                            a @ (_times_inverse(f_y, b) + f_v @ dbinv),
                            a @ f_u @ a.T,
                            a @ _times_inverse(f_v, b))

    def pull_back(self, t: float, xi, eta, xid=None, etad=None):
        """Original-coordinate node ``(x, y, xdot, ydot)`` of a frame node.

        ``x = A(t).T xi`` and ``y = B(t)^{-1} eta``; the velocities are
        differentiated through the same change when ``xid`` and ``etad``
        are given, and are None otherwise.
        """
        return self._node(t, xi, eta, xid, etad)[1]

    def push_forward(self, t: float, x, y, xdot=None):
        """Frame node ``(xi, eta, xidot)`` of an original-coordinate node.

        ``xi = A(t) x`` and ``eta = B(t) y``; ``xidot`` is None unless
        ``xdot`` is given.
        """
        a = self.A(t)
        xi, eta = a @ x, self.B(t) @ y
        if xdot is None:
            return xi, eta, None
        return xi, eta, self.A(t, 1) @ x + a @ xdot


def _times_inverse(c, b):
    # c @ inv(b), as a solve with b.T
    return solve_linear(b.T, c.T).T


def _transform(prob, validate, labels, drifts) -> TransformedSystem:
    # Shared body of both transforms: audit the frame and the commutation
    # of each named drift matrix (zero when absent) with A, then build the
    # system with ``drifts(M, *drift_matrices) -> (D0, D1)``.
    audit = _check_frame(prob) if validate else frame_audit(prob.A)
    mats = []
    for label in labels:
        h = getattr(prob, label)
        if h is None:
            h = np.zeros((prob.m, prob.m))
        else:
            h = np.asarray(h, dtype=float)
            if validate:
                _check_commutation(h, prob.A, audit.tol, label)
        mats.append(h)
    d0, d1 = drifts(audit.M, *mats)
    return TransformedSystem(
        order=prob.order,
        m=prob.m,
        s=prob.s,
        period=prob.period,
        D0=d0,
        D1=d1,
        f=prob.f,
        g=prob.g,
        g_jac1=prob.g_jac1,
        g_jac2=prob.g_jac2,
        f_jac=prob.f_jac,
        gdot_jac=getattr(prob, "gdot_jac", None),
        A=prob.A,
        B=prob.B,
        M=audit.M,
    )


def fixed_frame(prob) -> TransformedSystem:
    """Fixed-frame form of a first- or second-order problem."""
    return fixed_frame_first(prob) if prob.order == 1 else fixed_frame_second(prob)


def fixed_frame_first(prob: DaeProblem1, *, validate: bool = True) -> TransformedSystem:
    """Transform a first-order problem into its fixed-frame form.

    Audits the frame hypotheses (orthogonality, product constancy,
    periodicity, commutation of ``H``) unless ``validate=False``; the
    audited grid mean ``M`` feeds the drift ``D0 = H - M``.
    """
    return _transform(prob, validate, ("H",), lambda m, h: (h - m, None))


def fixed_frame_second(prob: DaeProblem2, *, validate: bool = True) -> TransformedSystem:
    """Transform a second-order problem into its fixed-frame form.

    The second-derivative product ``A @ d2A.T`` of an orthogonal path
    with constant product equals ``M^2``, which is what the drift
    formulas use: ``D0 = H1 M + H2 - M^2`` and ``D1 = H1 - 2M``.
    """
    def drifts(m, h1, h2):
        return h1 @ m + h2 - m @ m, h1 - 2.0 * m

    return _transform(prob, validate, ("H1", "H2"), drifts)


def c_frame_drifts(c_path: MatrixPath):
    """Constant drifts induced by differentiating ``C(t) x`` twice in time.

    For an orthogonal path with constant products, ``K1 = mean(C.T @ dC)``
    is constant and ``C.T @ d2C`` equals ``-K1^2``; expanding
    ``d2/dt2 (C x)`` then yields the drift pair ``H1 = -2 K1`` and
    ``H2 = K1^2``, both commuting with any matrix that commutes with K1.
    """
    audit = frame_audit(c_path)
    if not audit.suitable:
        raise HypothesisViolatedError(
            f"drift path fails the frame audit: orthogonality {audit.orthogonality:.3e}, "
            f"constancy {audit.right_constancy:.3e} (tol {audit.tol:.1e})"
        )
    k1 = audit.K
    return -2.0 * k1, k1 @ k1
