"""Dense linear-algebra and numerics substrate.

Everything here works on small (desk-scale) dense float64 arrays: linear
solves and determinants, damped Newton iteration, finite-difference
Jacobians, an SVD with deterministic signs and periodic quadrature.
Solves and Newton run on stacks, a point being a stack of one:
:func:`solve_stacked` (closed forms for 1x1 and 2x2, one partial-pivot
elimination for every LU of size 3 or more, on the augmented rows
``[a | b]``) serves :func:`solve_linear`, one copy of the matrix per
right-hand side column, and :func:`newton_stacked`, the one damped Newton,
serves :func:`newton_solve`.  The Newton keeps only its live starts in its
working stacks, so a start that has stopped costs nothing more.
The SVD is numpy's.  What this module adds is the pivot-threshold
singularity test and the sign convention.  All functions are pure;
inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    EvaluationError,
    NoConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
)

# Pivot magnitudes below PIVOT_REL * ||A||_inf are treated as zero.
PIVOT_REL = 1e-13
NEWTON_TOL_STEP = 1e-14  # a Newton step this small, residual above tolerance: stagnation
NEWTON_DAMPING_MIN = 1.0 / 1024.0  # backtracking floor of the Newton step fraction

__all__ = [
    "NewtonConfig",
    "solve_linear",
    "solve_stacked",
    "determinant",
    "fd_jacobian",
    "newton_solve",
    "newton_stacked",
    "stacked_maps",
    "svd_small",
    "quadrature_periodic",
    "norm_inf",
]


def norm_inf(a) -> float:
    """Max absolute entry of a vector or matrix (0.0 for empty input)."""
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` by LU with partial pivoting.

    ``b`` may be a vector or a matrix of right-hand sides.  Raises
    :class:`SingularMatrixError` when a pivot falls below
    ``1e-13 * ||a||_inf``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise EvaluationError(f"expected square matrix, got shape {a.shape}")
    if b.shape[0] != n:
        raise EvaluationError(f"dimension mismatch: matrix {a.shape}, rhs {b.shape}")
    # one system per right-hand side column, so that each column is
    # solve_stacked's solve of it, bit for bit
    rhs = b[None] if b.ndim == 1 else b.T
    x, singular = solve_stacked(np.broadcast_to(a, (len(rhs), n, n)), rhs)
    if singular.any():
        raise SingularMatrixError(_singular_messages(a[None])[0])
    return x[0] if b.ndim == 1 else x.T


def solve_stacked(a: np.ndarray, b: np.ndarray):
    """Solve ``a[k] @ x[k] = b[k]`` for a stack of ``(n, n)`` systems.

    Returns ``(x, singular)``: ``singular[k]`` flags the systems whose
    pivot test fails, and their rows of ``x`` are meaningless.  1x1 and
    2x2 stacks use closed forms (the pivot test of a 2x2 system is on its
    determinant, against ``(PIVOT_REL * ||a||_inf)**2``), larger ones the
    partial-pivot elimination with its ``PIVOT_REL * ||a||_inf`` pivot
    test.  A non-finite solution of a nonsingular system of size 3 or
    more raises :class:`EvaluationError`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k, n = b.shape
    if a.shape != (k, n, n):
        raise EvaluationError(f"dimension mismatch: matrices {a.shape}, right-hand sides {b.shape}")
    if n == 1:
        pivot = a[:, 0, 0]
        singular = (np.abs(pivot) < PIVOT_REL * np.maximum(np.abs(pivot), 1e-300)) | (pivot == 0.0)
        return b / np.where(singular, 1.0, pivot)[:, None], singular
    if n == 2:
        scale = np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300)  # ||a||_inf of each system
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        singular = (np.abs(det) < (PIVOT_REL * scale) ** 2) | (det == 0.0)
        det = np.where(singular, 1.0, det)
        return np.stack([(a[:, 1, 1] * b[:, 0] - a[:, 0, 1] * b[:, 1]) / det,
                         (a[:, 0, 0] * b[:, 1] - a[:, 1, 0] * b[:, 0]) / det], axis=-1), singular
    x, _, singular, _ = _eliminate(a, b)
    if not np.all(np.isfinite(x[~singular])):
        raise EvaluationError("linear solve produced non-finite entries")
    return x, singular


def _eliminate(a: np.ndarray, b: np.ndarray):
    # Partial-pivot elimination of the stack a[k] @ x[k] = b[k], n >= 3:
    # the one LU of that size.  Returns (x, pivots, singular, threshold):
    # pivots[k] in column order, each negated where its column swapped
    # rows, so that their product is the determinant; singular[k] when a
    # pivot falls below threshold[k] = PIVOT_REL * ||a[k]||_inf (NaN
    # compares false), after which the system's pivots and x are
    # meaningless.  No warnings: a non-finite entry shows in x.
    # The elimination runs on the augmented rows [a | b], so that one swap
    # and one update serve both; the entries below the diagonal are never
    # read again and are left as they are.
    k, n = b.shape
    u = np.concatenate([a, b[:, :, None]], axis=2)
    rows = np.arange(k)
    threshold = PIVOT_REL * np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300)
    pivots = np.empty((k, n))
    singular = np.zeros(k, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(n - 1):
            p = j + np.argmax(np.abs(u[:, j:, j]), axis=1)
            swap = p != j
            if swap.any():  # a fancy-indexed swap costs even where it moves nothing
                u[rows, j], u[rows, p] = u[rows, p], u[rows, j]
            pivots[:, j] = np.where(swap, -u[:, j, j], u[:, j, j])
            singular |= np.abs(u[:, j, j]) < threshold
            pivot = u[:, j, j] = np.where(singular, 1.0, u[:, j, j])
            factor = u[:, j + 1 :, j] / pivot[:, None]
            u[:, j + 1 :, j + 1 :] -= factor[:, :, None] * u[:, None, j, j + 1 :]
        # the last column has one candidate row: no search, swap or update
        pivots[:, -1] = u[:, -1, -2]
        singular |= np.abs(pivots[:, -1]) < threshold
        u[:, -1, -2] = np.where(singular, 1.0, pivots[:, -1])
        # einsum sums by the strides it is given: contiguous (k, n, n) and
        # (k, n) operands keep the bits of every size
        u, x = u[:, :, :n].copy(), u[:, :, n].copy()
        x[:, -1] /= u[:, -1, -1]
        for j in range(n - 2, -1, -1):
            x[:, j] = (x[:, j] - np.einsum("ki,ki->k", u[:, j, j + 1 :], x[:, j + 1 :])) / u[:, j, j]
    return x, pivots, singular, threshold


def _singular_messages(a: np.ndarray):
    # solve_linear's message for each system of a stack of singular ones:
    # for n >= 3 the first pivot below the threshold and its column
    k, n = a.shape[:2]
    if n <= 2:
        return [f"{n}x{n} system is singular"] * k
    _, pivots, _, threshold = _eliminate(a, np.zeros((k, n)))
    columns = np.argmax(np.abs(pivots) < threshold[:, None], axis=1)
    return [f"pivot {abs(p[j]):.3e} below threshold {t:.3e} at column {j}"
            for p, t, j in zip(pivots, threshold, columns)]


def determinant(a: np.ndarray):
    """Determinant via LU; returns 0.0 for numerically singular input.

    A stack ``(k, n, n)`` gives the array of its ``k`` determinants, each
    the bits of its own 2D call.
    """
    a = np.asarray(a, dtype=float)
    stack = a if a.ndim == 3 else a[None]
    k, n = stack.shape[:2]
    if n == 1:
        det = stack[:, 0, 0]
    elif n == 2:
        det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
    else:
        _, pivots, singular, _ = _eliminate(stack, np.zeros((k, n)))
        det = np.where(singular, 0.0, np.prod(pivots, axis=1))
    return det if a.ndim == 3 else float(det[0])


def fd_jacobian(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    *,
    f0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Forward-difference Jacobian of ``fun`` at ``x``.

    The step of component ``i`` is ``1e-7 * (1 + |x_i|)``; ``f0``, when
    given, is ``fun(x)``.
    """
    x = np.asarray(x, dtype=float)
    base = np.asarray(fun(x), dtype=float) if f0 is None else np.asarray(f0, dtype=float)
    cols = []
    for i in range(x.size):
        h = 1e-7 * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        cols.append((np.asarray(fun(xp), float) - base) / h)
    return np.column_stack(cols)


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration budget and residual tolerance of each start of the damped
    Newton (:func:`newton_stacked`, and :func:`newton_solve` on one start)."""

    max_iters: int = 50
    tol_residual: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")


def stacked_maps(
    fun: Callable[[np.ndarray], np.ndarray],
    jac: Optional[Callable[[np.ndarray], np.ndarray]],
):
    """A point map and its Jacobian as :func:`newton_stacked` takes them,
    called at each point of a stack.

    With ``jac`` None the Jacobian is :func:`fd_jacobian` of ``fun``, the
    point's value doubling as its base point.  It serves :func:`newton_solve`
    and every step of the degree search of a map that has no stacked form
    of its own (see :mod:`daecont.degree`).  The stack must not be empty.
    """
    point = lambda z: np.atleast_1d(np.asarray(fun(z), dtype=float))
    if jac is None:
        jac_at = lambda z, v: fd_jacobian(fun, z, f0=v)
    else:
        jac_at = lambda z, v: np.atleast_2d(np.asarray(jac(z), dtype=float))
    return (lambda x: np.array([point(z) for z in x]),
            lambda x, r: np.array([jac_at(z, v) for z, v in zip(x, r)]))


def newton_stacked(fun, jac, x0: np.ndarray, r0: np.ndarray, cfg: NewtonConfig):
    """Damped Newton for ``fun(x) = 0`` from a stack of starts at once.

    ``fun`` maps points ``(k, n)`` to their values, ``jac(x, r)`` to their
    Jacobians ``(k, n, n)`` given the values ``r`` at ``x``; ``r0`` is
    ``fun(x0)``.  Each start backtracks on its own, halving its step until
    its residual norm drops, down to ``NEWTON_DAMPING_MIN`` (where the step
    is taken anyway), and converges when that norm is at most
    ``cfg.tol_residual`` within ``cfg.max_iters`` iterations.  Returns
    ``(x, errors)``: the last iterates, and per start None if it converged,
    else the error that stopped it, :class:`SingularJacobianError` with
    :func:`solve_linear`'s message or :class:`NoConvergenceError` (a step
    below ``NEWTON_TOL_STEP``, or the budget spent).  A non-finite
    converged iterate raises :class:`EvaluationError`.

    The iterates, values and residual norms of the starts still iterating
    are compact stacks; a start's iterate is written to the returned array
    once, when it converges, fails or spends the budget.  Only the starts
    whose residual did not drop at the full step enter the halving.
    ``fun`` and ``jac`` are handed these stacks themselves, not copies, and
    must not write to them.
    """
    x = np.array(x0, dtype=float)
    errors = [None] * len(x)
    live, xl, rl = np.arange(len(x)), x, np.array(r0, dtype=float)
    nl = np.abs(rl).max(axis=1)
    tol = cfg.tol_residual

    def leave(out):
        nonlocal live, xl, rl, nl
        x[live[out]] = xl[out]
        live, xl, rl, nl = live[~out], xl[~out], rl[~out], nl[~out]

    for _ in range(cfg.max_iters):
        done = nl <= tol
        if done.any():
            leave(done)
        if live.size == 0:
            break
        j = jac(xl, rl)
        step, singular = solve_stacked(j, -rl)
        if singular.any():
            for k, message in zip(live[singular], _singular_messages(j[singular])):
                errors[k] = SingularJacobianError(message)
            step = step[~singular]
            leave(singular)
            if live.size == 0:  # no map call on an empty stack
                break
        x_new = xl + step
        r_new = fun(x_new)
        n_new = np.abs(r_new).max(axis=1)
        moved = np.abs(step).max(axis=1)
        todo = np.flatnonzero(~(n_new < nl))  # halve these steps until the residual drops
        if todo.size:
            alpha = np.ones(len(live))
            while todo.size:
                alpha[todo] *= 0.5
                x_new[todo] = xl[todo] + alpha[todo, None] * step[todo]
                r_new[todo] = fun(x_new[todo])
                n_new[todo] = np.abs(r_new[todo]).max(axis=1)
                todo = todo[~((n_new[todo] < nl[todo]) | (alpha[todo] <= NEWTON_DAMPING_MIN))]
            moved = np.abs(alpha[:, None] * step).max(axis=1)
        stalled = (moved <= NEWTON_TOL_STEP) & (n_new > tol)
        if stalled.any():
            for k, size, norm in zip(live[stalled], moved[stalled], n_new[stalled]):
                errors[k] = NoConvergenceError(f"newton stagnated: step {size:.3e}, residual {norm:.3e}")
            leave(stalled)
            x_new, r_new, n_new = x_new[~stalled], r_new[~stalled], n_new[~stalled]
        xl, rl, nl = x_new, r_new, n_new
    spent = ~(nl <= tol)
    for k, norm in zip(live[spent], nl[spent]):
        errors[k] = NoConvergenceError(f"newton used {cfg.max_iters} iterations, "
                                       f"residual {norm:.3e} > {tol:.3e}")
    x[live] = xl
    if not np.all(np.isfinite(x[[error is None for error in errors]])):
        raise EvaluationError("newton iterate is non-finite")
    return x, errors


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]],
    x0: np.ndarray,
    cfg: NewtonConfig = NewtonConfig(),
) -> np.ndarray:
    """Damped Newton iteration for ``residual(x) = 0``.

    Parameters
    ----------
    residual : callable
        Maps an n-vector to an n-vector.
    jacobian : callable or None
        Jacobian of ``residual``; ``None`` selects forward differences.
    x0 : array
        Starting point.
    cfg : NewtonConfig
        Iteration budget and tolerances.

    Returns
    -------
    x : array with ``||residual(x)||_inf <= cfg.tol_residual``.

    The iteration is :func:`newton_stacked` on one start, and raises its
    error: :class:`SingularJacobianError`, :class:`NoConvergenceError` or,
    for a non-finite converged iterate, :class:`EvaluationError`.
    """
    fun, jac = stacked_maps(residual, jacobian)
    start = np.array(x0, dtype=float, ndmin=2)
    x, (error,) = newton_stacked(fun, jac, start, fun(start), cfg)
    if error is not None:
        raise error
    return x[0]


def svd_small(e: np.ndarray):
    """SVD of a small square matrix, or of each of a stack ``(..., n, n)``,
    with deterministic signs.

    Returns ``(P, sigma, Q)`` with ``P.T @ e @ Q`` diagonal, ``sigma``
    nonnegative and nonincreasing, and both factors orthogonal to 1e-12
    (for a stack, stacks of these, slice by slice).  Singular values below
    ``1e-13 * sigma[0]`` are set to zero.  Signs are fixed per slice so
    that the largest-magnitude entry of each column of ``Q``, and of each
    column of ``P`` past the rank, is positive; columns of ``P`` inside
    the rank follow their ``Q`` column.  Each slice of a stack gets the
    bits of its own 2D call.
    """
    e = np.asarray(e, dtype=float)
    if e.ndim < 2 or e.shape[-1] != e.shape[-2]:
        raise EvaluationError(f"expected square matrix, got shape {e.shape}")
    if not 1 <= e.shape[-1] <= 32:
        raise EvaluationError("svd_small handles matrices from 1x1 up to 32x32")
    if not np.all(np.isfinite(e)):
        raise EvaluationError("svd_small input has non-finite entries")
    p, sigma, qt = np.linalg.svd(e)
    q = qt.swapaxes(-1, -2)
    inside = sigma > 1e-13 * np.maximum(sigma[..., :1], 1e-300)  # the rank, a prefix
    sigma[~inside] = 0.0
    lead = lambda f: np.take_along_axis(f, np.argmax(np.abs(f), axis=-2)[..., None, :], axis=-2)
    q_sign = np.sign(lead(q))
    p_sign = np.where(inside[..., None, :], q_sign, np.sign(lead(p)))
    # + 0.0 turns the -0.0 of a flipped zero entry into 0.0
    return p * p_sign + 0.0, sigma, q * q_sign + 0.0


def quadrature_periodic(
    h: Callable[[float], np.ndarray], period: float, n: int = 64
) -> np.ndarray:
    """Average ``(1/T) * integral_0^T h(t) dt`` of a T-periodic integrand.

    Uses the uniform rectangle rule, which coincides with the composite
    trapezoid rule for periodic integrands and is spectrally accurate:
    exact (to roundoff) on trigonometric polynomials of degree < n/2.
    """
    if n < 8:
        raise ValueError("need at least 8 quadrature nodes")
    acc = None
    for k in range(n):
        val = np.asarray(h(k * period / n), dtype=float)
        acc = val.copy() if acc is None else acc + val
    return acc / n
