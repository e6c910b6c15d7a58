"""Reference integrators, derivatives and factorizations the tests check the library against."""

import numpy as np
from scipy.linalg import lu_factor, lu_solve


def rk4_step(field, t, u, h):
    """One classical fourth-order Runge-Kutta step of size ``h``."""
    u = np.asarray(u, dtype=float)
    k1 = np.asarray(field(t, u), dtype=float)
    k2 = np.asarray(field(t + 0.5 * h, u + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(field(t + 0.5 * h, u + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(field(t + h, u + h * k3), dtype=float)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def central_jacobian(fun, x, step=1e-5):
    """Central-difference Jacobian of ``fun`` at ``x``, step ``step * (1 + |x_i|)``."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fun(xp), float) - np.asarray(fun(xm), float)) / (2 * h))
    return np.column_stack(cols)


def lu_solve_reference(a, b):
    """``a x = b`` through scipy's public LU wrappers ``lu_factor``/``lu_solve``."""
    return lu_solve(lu_factor(a), b)


def lu_determinant_reference(a):
    """Determinant from ``scipy.linalg.lu_factor``: pivot-sign times the product of U's diagonal."""
    lu, piv = lu_factor(a)
    swaps = np.count_nonzero(piv != np.arange(len(piv)))
    return float((-1.0) ** swaps * np.prod(np.diag(lu)))
