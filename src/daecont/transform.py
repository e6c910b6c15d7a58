"""Problem model and the fixed-frame coordinate change.

A first-order problem couples ``dx/dt = H x + lam * f(t, x, y)`` with the
moving constraint ``g(A(t) x, B(t) y) = 0`` (``H`` optional, commuting
with ``A``); the second-order variant drives ``d2x/dt2`` and lets ``f``
see velocities.  The coordinate change ``xi = A(t) x``, ``eta = B(t) y``
renders the constraint autonomous at the price of constant drift terms
built from the audited frame product ``M = mean(A @ dA.T)``:

- order 1: ``dxi/dt  = (H - M) xi + lam * F(t, xi, eta)``
- order 2: ``d2xi/dt2 = (H1 M + H2 - M^2) xi + (H1 - 2M) dxi/dt + lam * F``

with ``F = A(t) f`` the frame-conjugated forcing.  The change of variables
rewrites the same DAE, so a :class:`TransformedSystem` has no model of its
own: it is its problem plus the drifts, reads every model attribute from
the problem, and maps an original-coordinate node into the frame
(``push_forward``: ``xi = A(t) x``, ``eta = B(t) y``); the way back (``x =
A(t).T xi``, ``y = B(t)^{-1} eta``, velocities included for order 2) and
``F`` are emitted code of :mod:`daecont.kernel`, which the marches and the
averaged map run.  The frame depends on time alone, and the marches of a
system visit the same times again and again, so a system keeps the frames
of one march grid (:meth:`TransformedSystem.frame_grid`), read by one
call and kept until a march asks for another grid or a path of the
problem is replaced.

Frames come from one generator ``frames(times)`` per pair of paths, order
and coordinate system (:func:`~daecont.kernel.frame_function`): emitted
float code for paths compiled from expression trees, the paths' numpy
values otherwise.  No problem keeps one.  A system's grid holds the
fixed-frame function's frames, a raw march reads the raw one as it steps
(see :class:`~daecont.kernel.March`), and the transform's audit reads the
raw order-2 frame ``(A, B, dA, dB)`` as stacks, one call per set of times
(the audit grid, which ``check`` hands over from its own audit at the
default grid; for periodicity, ``t`` and ``t + T``): orthogonality and
constancy of ``A``, periodicity of ``A`` and ``B``, drifts that commute
with ``A`` and a ``B`` that is invertible at every audit-grid time, by
one stacked test (:func:`~daecont.linalg.solve_stacked`'s pivot flags).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisViolatedError
from .linalg import _singular_messages, fd_jacobian, norm_inf, solve_stacked
from .paths import DEFAULT_GRID, MatrixPath, _grid_times, _sup, frame_audit

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
    is formed by forward differences.  When ``g``, ``d1g`` and ``d2g`` each
    carry their form on stacks of points as ``arrays`` (arrays ``(..., m)``
    and ``(..., s)``, as compiled from a problem file; see
    :func:`~daecont.expressions.compile_vector`), the batched degree zero
    search evaluates those; a replaced ``g`` takes its own with it.
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


@dataclass
class DaeProblem2:
    """Second-order variant: ``f(t, x, y, xdot, ydot)``, drifts H1, H2.

    ``df`` is the Jacobian of ``f`` with respect to ``(x, y, xdot, ydot)``
    and ``dgdot(p, q, u, w)`` that of ``d1g(p, q) u + d2g(p, q) w`` with
    respect to ``(p, q)``, the time derivative of the constraint along a
    motion with rates ``(u, w)``.  An omitted ``df`` is formed by forward
    differences, an omitted ``dgdot`` by central second differences of
    ``g`` (see :meth:`gdot_jac`).  The stacked forms of ``g``, ``d1g`` and
    ``d2g`` are as in :class:`DaeProblem1`.
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


def _matrices(entries, dims) -> tuple:
    # the square matrices of sizes dims, read row by row from a flat frame;
    # from a stack of flat frames (rows), the stack of each matrix
    entries = np.asarray(entries)
    out, start = [], 0
    for dim in dims:
        out.append(entries[..., start : start + dim * dim].reshape(*entries.shape[:-1], dim, dim))
        start += dim * dim
    return tuple(out)


def _frame_samples(prob, grid=DEFAULT_GRID, times=None, frames=None) -> tuple:
    # (times, A, B[, dA, dB]): the matrices of a flat frame function of the
    # problem's paths (by default the raw order-2 one) as stacks at times
    # (by default the audit grid of grid nodes), read as one float stream
    from . import kernel  # kernel imports this module

    times = _grid_times(prob.A, grid) if times is None else times
    frames = kernel.frame_function(prob.A, prob.B, 2) if frames is None else frames
    entries = np.fromiter(itertools.chain.from_iterable(frames(times)), float).reshape(len(times), -1)
    dims = (prob.A.dim, prob.B.dim)
    return (times, *_matrices(entries, dims * (entries.shape[-1] // sum(d * d for d in dims))))


def _check_invertible(b, times):
    # B at the audit-grid times, one stacked solve's pivot flags, and the
    # first singular time named with solve_linear's message
    singular = solve_stacked(b, np.zeros(b.shape[:2]))[1]
    if singular.any():
        k = int(np.argmax(singular))
        raise HypothesisViolatedError(f"path B is not invertible at t = {float(times[k])!r}: "
                                      f"{_singular_messages(b[k : k + 1])[0]}")


def _check_frame(prob, audit):
    if audit.orthogonality > audit.tol:
        raise HypothesisViolatedError(
            f"frame path is not orthogonal: residual {audit.orthogonality:.3e} > {audit.tol:.1e}"
        )
    if audit.right_constancy > audit.tol:
        raise HypothesisViolatedError(
            f"frame product is not constant: residual {audit.right_constancy:.3e} > {audit.tol:.1e}"
        )
    # A's and B's periodicity read one call, at both paths' times if their periods differ
    ta, tb = prob.A.periodicity_times(), prob.B.periodicity_times()
    _, a, b = _frame_samples(prob, times=ta if np.array_equal(ta, tb) else np.concatenate([ta, tb]))[:3]
    for path, values, label in ((prob.A, a[: len(ta)], "A"), (prob.B, b[-len(tb) :], "B")):
        res = path.periodicity_residual(values=values)
        if res > PERIODICITY_TOL:
            raise HypothesisViolatedError(
                f"path {label} is not {prob.period}-periodic: residual {res:.3e}"
            )


def _check_commutation(h: np.ndarray, a: np.ndarray, tol: float, label: str):
    with np.errstate(all="ignore"):
        worst = _sup(h @ a - a @ h, f"commutation residual of {label}")
    if worst > tol:
        raise HypothesisViolatedError(
            f"{label} does not commute with the frame path: residual {worst:.3e} > {tol:.1e}"
        )


@dataclass(eq=False)
class TransformedSystem:
    """Fixed-frame form of a problem: autonomous constraint, constant drifts.

    A system is its ``problem`` plus the drifts: ``D0`` multiplies the
    state, ``D1`` (order 2 only) the velocity, and ``M`` is the audited
    frame product they are built from.  Every model attribute (``order``,
    ``m``, ``s``, ``period``, the paths ``A`` and ``B``, the model callables
    and their derivatives, with the stacked forms they carry) is read from
    the problem when it is asked for, so a change to the problem is the
    system's change; the forcing ``f`` is the problem's, which the emitted
    stage and ``forcing`` conjugate into the frame (see
    :mod:`daecont.kernel`).  The system keeps the frames of the last march
    grid asked for (see :meth:`frame_grid`); a copy made with
    :func:`dataclasses.replace` starts without them.  Systems compare by
    identity: each keeps its own grid.
    """

    problem: DaeProblem1 | DaeProblem2
    D0: np.ndarray
    D1: Optional[np.ndarray]
    M: np.ndarray
    _grid: Optional[tuple] = field(default=None, init=False, repr=False)

    def frame_grid(self, h: float, nsteps: int) -> tuple:
        """``(times, frames)`` of a march of ``nsteps`` steps of size ``h`` from 0.

        The ``2 nsteps + 1`` times are the running sum a march steps by, ``t
        + h/2``, ``t + h``: each step's midpoint and end.  Each frame is one
        flat tuple of floats, the entries of ``A(t)`` and ``B(t)`` and, for
        order 2, of ``dA(t)`` and the derivative of ``B(t)^-1``, each matrix
        row by row, by the fixed-frame function of the problem's paths (see
        :func:`~daecont.kernel.frame_function`), whose first failing time
        raises.  The grid is kept, keyed by the paths, ``h`` and ``nsteps``:
        a replaced path or another grid is read anew.
        """
        key = (self.A, self.B, h, nsteps)
        if self._grid is None or self._grid[0] != key:
            from . import kernel  # kernel imports this module

            times = list(kernel.march_times(h, nsteps))
            frames = kernel.frame_function(self.A, self.B, self.order, fixed=True)
            self._grid = (key, times, list(frames(times)))
        return self._grid[1:]

    def push_forward(self, frame, x, y, xdot=None):
        """Frame node ``(xi, eta, xidot)`` of an original-coordinate node at ``frame``.

        ``frame`` is the node's flat fixed frame, as :meth:`frame_grid`
        gives it: ``xi = A x`` and ``eta = B y``; ``eta`` is None when ``y``
        is, and ``xidot`` (``dA x + A xdot``, order 2) when ``xdot`` is.
        """
        dims = (self.m, self.s) if xdot is None else (self.m, self.s, self.m)
        a, b, *da = _matrices(frame, dims)
        xi, eta = a @ x, None if y is None else b @ y
        if xdot is None:
            return xi, eta, None
        return xi, eta, da[0] @ x + a @ xdot


# Read-only views of the problem's model, as properties: a __getattr__
# fallback would make every A and B lookup a Python call.
for _name in ("order m s period A B f df g d1g d2g dgdot g_jac1 g_jac2 f_jac "
              "gdot_jac").split():
    setattr(TransformedSystem, _name, property(operator.attrgetter(f"problem.{_name}")))


def _transform(prob, validate, labels, drifts, samples=None) -> TransformedSystem:
    # Shared body of both transforms: test B, audit the frame and the
    # commutation of each named drift matrix (zero when absent) with A, on
    # the stacks of the frame function at the audit grid (samples, when the
    # caller has filled them; see _frame_samples), then build the system
    # with ``drifts(M, *drift_matrices) -> (D0, D1)``.  Unvalidated, only
    # the audit's M is computed.
    times, a, b, da, _ = _frame_samples(prob) if samples is None else samples
    if validate:  # a singular B is named before a failing A
        _check_invertible(b, times)
    audit = frame_audit(prob.A, stacks=(a, da))
    if validate:
        _check_frame(prob, audit)
    mats = []
    for label in labels:
        h = getattr(prob, label)
        if h is None:
            h = np.zeros((prob.m, prob.m))
        else:
            h = np.asarray(h, dtype=float)
            if validate:
                _check_commutation(h, a, audit.tol, label)
        mats.append(h)
    d0, d1 = drifts(audit.M, *mats)
    return TransformedSystem(prob, d0, d1, audit.M)


def fixed_frame(prob) -> TransformedSystem:
    """Fixed-frame form of a first- or second-order problem; a system is its own."""
    if isinstance(prob, TransformedSystem):
        return prob
    return _fixed_frame(prob)


def _fixed_frame(prob, validate=True, samples=None) -> TransformedSystem:
    # the transform of the problem's order, on the caller's samples of its
    # frame at the audit grid when given
    if prob.order == 1:
        return _transform(prob, validate, ("H",), _drifts_first, samples)
    return _transform(prob, validate, ("H1", "H2"), _drifts_second, samples)


def _drifts_first(m, h):
    return h - m, None


def _drifts_second(m, h1, h2):
    return h1 @ m + h2 - m @ m, h1 - 2.0 * m


def fixed_frame_first(prob: DaeProblem1, *, validate: bool = True) -> TransformedSystem:
    """Transform a first-order problem into its fixed-frame form.

    Audits the frame hypotheses (orthogonality, product constancy,
    periodicity, commutation of ``H``) unless ``validate=False``; the
    audited grid mean ``M`` feeds the drift ``D0 = H - M``.
    """
    if prob.order != 1:
        raise ValueError(f"fixed_frame_first needs an order-1 problem, got order {prob.order}")
    return _fixed_frame(prob, validate)


def fixed_frame_second(prob: DaeProblem2, *, validate: bool = True) -> TransformedSystem:
    """Transform a second-order problem into its fixed-frame form.

    The second-derivative product ``A @ d2A.T`` of an orthogonal path
    with constant product equals ``M^2``, which is what the drift
    formulas use: ``D0 = H1 M + H2 - M^2`` and ``D1 = H1 - 2M``.
    """
    if prob.order != 2:
        raise ValueError(f"fixed_frame_second needs an order-2 problem, got order {prob.order}")
    return _fixed_frame(prob, validate)


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
