"""Reference integrators, derivatives and factorizations the tests check the library against."""

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from daecont import degree
from daecont.degree import Box, DegreeCertificate, ZeroRecord
from daecont.errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    EvaluationError,
    NoConvergenceError,
    NonfiniteResultError,
    SingularJacobianError,
    SingularMatrixError,
)
from daecont.kernel import CONSTRAINT_SOLVE_MAX_ITER, CONSTRAINT_SOLVE_TOL, March, frame_function
from daecont.linalg import (
    NEWTON_DAMPING_MIN,
    NEWTON_TOL_STEP,
    PIVOT_REL,
    _eliminate,
    _singular_messages,
    determinant,
    fd_jacobian,
    newton_stacked,
    norm_inf,
    quadrature_periodic,
    solve_linear,
    solve_stacked,
    stacked_maps,
)
from daecont.periodic import DEFAULT_STEPS, _ShootingRunner
from daecont.paths import MIN_GRID, FrameAudit, LemmaReport, _grid_times, default_tol
from daecont.probfile import _bracket
from daecont.semilinear import RANK_REL, ReductionReport
from daecont.transform import TransformedSystem, _matrices


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


def newton_point(residual, jacobian, x0, cfg):
    """Damped Newton for ``residual(x) = 0`` from one start, on numpy arrays.

    The per-point loop that the library's stacked Newton replaced, by its
    rules: backtracking halves the step until the residual norm drops,
    down to ``NEWTON_DAMPING_MIN``; a step below ``NEWTON_TOL_STEP`` with
    the residual above tolerance stagnates; ``jacobian`` None selects
    forward differences based at the current residual.  Raises
    :class:`SingularJacobianError`, :class:`NoConvergenceError` or, for a
    non-finite converged iterate, :class:`EvaluationError`.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    r = np.atleast_1d(np.asarray(residual(x), dtype=float))
    rnorm = norm_inf(r)
    for _ in range(cfg.max_iters):
        if rnorm <= cfg.tol_residual:
            if not np.all(np.isfinite(x)):
                raise EvaluationError("newton iterate is non-finite")
            return x
        if jacobian is None:
            j = fd_jacobian(residual, x, f0=r)
        else:
            j = np.atleast_2d(np.asarray(jacobian(x), dtype=float))
        try:
            step = solve_linear(j, -r)
        except SingularMatrixError as exc:
            raise SingularJacobianError(str(exc)) from exc
        alpha = 1.0
        while True:
            x_new = x + alpha * step
            r_new = np.atleast_1d(np.asarray(residual(x_new), dtype=float))
            rnorm_new = norm_inf(r_new)
            if rnorm_new < rnorm or alpha <= NEWTON_DAMPING_MIN:
                break
            alpha *= 0.5
        if norm_inf(alpha * step) <= NEWTON_TOL_STEP and rnorm_new > cfg.tol_residual:
            raise NoConvergenceError(
                f"newton stagnated: step {norm_inf(alpha * step):.3e}, residual {rnorm_new:.3e}"
            )
        x, r, rnorm = x_new, r_new, rnorm_new
    if rnorm <= cfg.tol_residual:
        return x
    raise NoConvergenceError(
        f"newton used {cfg.max_iters} iterations, residual {rnorm:.3e} > {cfg.tol_residual:.3e}"
    )


def newton_stacked_reference(fun, jac, x0, r0, cfg):
    """:func:`daecont.linalg.newton_stacked` on full-size arrays: every
    iteration indexes the iterates, values and norms of all starts by the
    live ones, and every step goes through the halving loop."""
    x, r = np.array(x0, dtype=float), np.array(r0, dtype=float)
    rnorm = np.abs(r).max(axis=1)
    errors = [None] * len(x)
    live = np.arange(len(x))
    for _ in range(cfg.max_iters):
        live = live[~(rnorm[live] <= cfg.tol_residual)]
        if live.size == 0:
            break
        j = jac(x[live], r[live])
        step, singular = solve_stacked(j, -r[live])
        if singular.any():
            for k, message in zip(live[singular], _singular_messages(j[singular])):
                errors[k] = SingularJacobianError(message)
            live, step = live[~singular], step[~singular]
        alpha = np.ones(len(live))
        x_new, r_new = x[live], r[live]
        rnorm_new = rnorm[live]
        todo = np.arange(len(live))
        while todo.size:
            x_new[todo] = x[live[todo]] + alpha[todo, None] * step[todo]
            r_new[todo] = fun(x_new[todo])
            rnorm_new[todo] = np.abs(r_new[todo]).max(axis=1)
            better = rnorm_new[todo] < rnorm[live[todo]]
            todo = todo[~(better | (alpha[todo] <= NEWTON_DAMPING_MIN))]
            alpha[todo] *= 0.5
        moved = np.abs(alpha[:, None] * step).max(axis=1)
        stalled = (moved <= NEWTON_TOL_STEP) & (rnorm_new > cfg.tol_residual)
        for k, size, norm in zip(live[stalled], moved[stalled], rnorm_new[stalled]):
            errors[k] = NoConvergenceError(f"newton stagnated: step {size:.3e}, residual {norm:.3e}")
        live = live[~stalled]
        x[live], r[live], rnorm[live] = x_new[~stalled], r_new[~stalled], rnorm_new[~stalled]
    for k in live[~(rnorm[live] <= cfg.tol_residual)]:
        errors[k] = NoConvergenceError(f"newton used {cfg.max_iters} iterations, "
                                       f"residual {rnorm[k]:.3e} > {cfg.tol_residual:.3e}")
    if not np.all(np.isfinite(x[[error is None for error in errors]])):
        raise EvaluationError("newton iterate is non-finite")
    return x, errors


def eliminate_reference(a, b):
    """:func:`daecont.linalg._eliminate` on separate arrays: the matrix and
    the right-hand sides each swapped and updated in every column, the
    last one included."""
    k, n = b.shape
    u, x = a.copy(), b.copy()
    rows = np.arange(k)
    threshold = PIVOT_REL * np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300)
    pivots = np.empty((k, n))
    singular = np.zeros(k, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(n):
            p = j + np.argmax(np.abs(u[:, j:, j]), axis=1)
            swap = p != j
            if swap.any():
                u[rows, j], u[rows, p] = u[rows, p], u[rows, j]
                x[rows, j], x[rows, p] = x[rows, p], x[rows, j]
            pivots[:, j] = np.where(swap, -u[:, j, j], u[:, j, j])
            singular |= np.abs(u[:, j, j]) < threshold
            pivot = u[:, j, j] = np.where(singular, 1.0, u[:, j, j])
            factor = u[:, j + 1 :, j] / pivot[:, None]
            u[:, j + 1 :, j:] -= factor[:, :, None] * u[:, None, j, j:]
            x[:, j + 1 :] -= factor * x[:, j, None]
        for j in range(n - 1, -1, -1):
            x[:, j] = (x[:, j] - np.einsum("ki,ki->k", u[:, j, j + 1 :], x[:, j + 1 :])) / u[:, j, j]
    return x, pivots, singular, threshold


def solve_constraint(g, jac, q0):
    """Warm-started Newton for ``g(q) = 0`` on numpy arrays, by the rules of the emitted one.

    The numpy constraint Newton that the library's emitted Newton replaced:
    a warm start inside the absolute tolerance still gets one polish
    iteration, a non-finite residual ends the solve at once, and a
    singular ``jac`` inside the tolerance keeps the iterate.  ``g`` and
    ``jac`` may return bare floats or lists.
    """
    q = np.atleast_1d(np.asarray(q0, dtype=float)).copy()
    r = np.atleast_1d(g(q))
    rn = np.abs(r).max()
    for iteration in range(CONSTRAINT_SOLVE_MAX_ITER):
        if rn == 0.0 or (rn <= CONSTRAINT_SOLVE_TOL and iteration > 0):
            return q
        if not rn < np.inf:
            raise NonfiniteResultError(f"constraint residual is {rn}: a model value is not finite")
        try:
            q = q - solve_linear(np.atleast_2d(jac(q)), r)
        except SingularMatrixError:
            if rn <= CONSTRAINT_SOLVE_TOL:
                return q
            raise
        r = np.atleast_1d(g(q))
        rn = np.abs(r).max()
    if rn <= CONSTRAINT_SOLVE_TOL:
        return q
    raise NoConvergenceError(
        f"constraint solve stalled at residual {rn:.3e} (tol {CONSTRAINT_SOLVE_TOL:.1e})"
    )


def fixed_frame_at(sys, t):
    """The flat fixed frame of a system's paths at ``t``, as its grid holds
    it: the fixed-frame function at one time, which keeps nothing."""
    return next(frame_function(sys.A, sys.B, sys.order, fixed=True)((t,)))


def frame_pairs(sys, times):
    """The ``(t, frame)`` pairs of a system's fixed frames at ``times``, from
    one call, as :meth:`~daecont.kernel.March.mean_forcing` reads them."""
    return list(zip(times, frame_function(sys.A, sys.B, sys.order, fixed=True)(times)))


def frame_node(sys, t, xi, eta, xid=None, etad=None):
    """The frame at ``t`` as arrays and the original-coordinate node of a frame node.

    Returns ``((A, B[, dA, d(B^-1)]), (x, y, xdot, ydot))`` for a
    fixed-frame system, with the frame from :func:`fixed_frame_at`: ``x = A.T
    xi``, ``y = B^-1 eta`` and, when ``xid`` and ``etad`` are given,
    ``xdot = dA.T xi + A.T xid``, ``ydot = d(B^-1) eta + B^-1 etad``
    (None otherwise).  The numpy node map that the emitted pull-back
    replaced.
    """
    frame = _matrices(fixed_frame_at(sys, t), (sys.m, sys.s) * sys.order)
    a, b = frame[0], frame[1]
    x, y = a.T @ xi, solve_linear(b, eta)
    if xid is None:
        return frame, (x, y, None, None)
    xd = frame[2].T @ xi + a.T @ xid
    yd = frame[3] @ eta + solve_linear(b, etad)
    return frame, (x, y, xd, yd)


def forcing(sys, t, xi, eta, *velocities):
    """Frame-conjugated forcing ``A(t) f(t, x, y[, xdot, ydot])`` on numpy arrays.

    ``velocities`` are the frame velocities ``(u, v)`` for order 2.  The
    numpy forcing that the emitted one replaced; a non-finite ``f`` raises
    its :class:`NonfiniteResultError` before the product with ``A(t)``.
    """
    frame, node = frame_node(sys, t, xi, eta, *velocities)
    value = np.asarray(sys.f(t, *node[: 2 * sys.order]), dtype=float)
    if not all(map(math.isfinite, value.tolist())):
        raise NonfiniteResultError(
            f"forcing f at t = {t!r} is {value.tolist()}: a model value is not finite"
        )
    return frame[0] @ value


def averaged_map(sys, z, quad_n=64):
    """The averaged map ``(mean_t F(t, xi, eta), g(xi, eta))`` through :func:`forcing`."""
    z = np.asarray(z, dtype=float)
    xi, eta = z[: sys.m], z[sys.m :]
    velocities = () if sys.order == 1 else (np.zeros(sys.m), np.zeros(sys.s))
    first = quadrature_periodic(lambda t: forcing(sys, t, xi, eta, *velocities), sys.period, quad_n)
    return np.concatenate([np.atleast_1d(first), np.atleast_1d(sys.g(xi, eta))])


def frame_arrays(model, t):
    """``(A(t), B(t))``: a problem's path values, or a system's fixed frame."""
    if isinstance(model, TransformedSystem):
        return _matrices(fixed_frame_at(model, t), (model.m, model.s))
    return model.A(t), model.B(t)


def fixed_frame_march(sys, lam, state0, eta0, h, nsteps, sensitivity=False):
    """The half-explicit RK4 march of a fixed-frame system on numpy arrays.

    The numpy arithmetic that the library's float march replaced: the
    algebraic block re-solved per stage by :func:`solve_constraint`, the rate ``D0 xi (+ D1 xidot) + lam F`` and, with
    ``sensitivity``, the derivative rows of the state by ``lam`` and the
    start state (state rows ``[state0, 0, I]``).  Frames are evaluated from
    the paths.  Returns the nodes ``(t, x, y, xdot, ydot)`` in original
    coordinates and the end state (with its derivative rows).
    """
    m, order = sys.m, sys.order
    lam = float(lam)

    def frame(t):
        a, b = sys.A(t), sys.B(t)
        return a, b, sys.A(t, 1), -solve_linear(b, sys.B(t, 1)) @ np.linalg.inv(b)

    def resolve(state, eta):
        xi = state[:m]
        return solve_constraint(lambda q: sys.g(xi, q), lambda q: sys.g_jac2(xi, q), eta)

    def node(t, state, eta):
        a, b, da, dbinv = frame(t)
        xi, out = state[:m], [t, a.T @ state[:m], solve_linear(b, eta), None, None]
        if order == 2:
            xid = state[m:]
            g_q = np.atleast_2d(sys.g_jac2(xi, eta))
            etad = solve_linear(g_q, -(sys.g_jac1(xi, eta) @ xid))
            out[3:] = da.T @ xi + a.T @ xid, dbinv @ eta + solve_linear(b, etad)
        return out

    def stage(t, aug, eta):
        state, dstate = aug[0], aug[1:]
        xi, xid = state[:m], state[m:]
        eta = resolve(state, eta)
        g_p = np.atleast_2d(sys.g_jac1(xi, eta))
        g_q = np.atleast_2d(sys.g_jac2(xi, eta))
        _, x, y, xd, yd = node(t, state, eta)
        a, b, da, dbinv = frame(t)
        velocities = () if order == 1 else (xid, solve_linear(g_q, -(g_p @ xid)))
        force = a @ np.asarray(sys.f(t, x, y, *(() if order == 1 else (xd, yd))), dtype=float)
        out = np.empty_like(aug)
        if order == 1:
            out[0] = sys.D0 @ xi + lam * force
        else:
            out[0, :m], out[0, m:] = xid, sys.D0 @ xi + sys.D1 @ xid + lam * force
        if not sensitivity:
            return out, eta
        e = -solve_linear(g_q, g_p)  # d eta / d xi
        times_inverse = lambda c: solve_linear(b.T, c.T).T  # c @ inv(b)
        if order == 1:
            jac = np.asarray(sys.f_jac(t, x, y), dtype=float)
            f_xi = a @ jac[:, :m] @ a.T
            f_eta = a @ times_inverse(jac[:, m:])
            out[1:] = dstate @ (sys.D0 + lam * (f_xi + f_eta @ e)).T
            out[1] += force
            return out, eta
        s = sys.s
        jac = np.asarray(sys.f_jac(t, x, y, xd, yd), dtype=float)
        f_x, f_y, f_u, f_v = (jac[:, :m], jac[:, m : m + s], jac[:, m + s : 2 * m + s],
                              jac[:, 2 * m + s :])
        f_xi = a @ (f_x @ a.T + f_u @ da.T)
        f_eta = a @ (times_inverse(f_y) + f_v @ dbinv)
        f_xid = a @ f_u @ a.T
        f_etad = a @ times_inverse(f_v)
        gdot = np.atleast_2d(sys.gdot_jac(xi, eta, *velocities))
        w = -solve_linear(g_q, gdot[:, :m] + gdot[:, m:] @ e)  # d etad / d xi
        out[1:, :m] = dstate[:, m:]
        out[1:, m:] = (dstate[:, :m] @ (sys.D0 + lam * (f_xi + f_eta @ e + f_etad @ w)).T
                       + dstate[:, m:] @ (sys.D1 + lam * (f_xid + f_etad @ e)).T)
        out[1, m:] += force
        return out, eta

    n = np.size(state0)
    aug = np.atleast_2d(np.asarray(state0, dtype=float))
    if sensitivity:
        aug = np.vstack([aug, np.zeros(n), np.eye(n)])
    eta = np.atleast_1d(np.asarray(eta0, dtype=float))
    nodes, t = [node(0.0, aug[0], eta)], 0.0
    for _ in range(nsteps):
        mid, end = t + 0.5 * h, t + h
        k1, e1 = stage(t, aug, eta)
        k2, e2 = stage(mid, aug + 0.5 * h * k1, e1)
        k3, e3 = stage(mid, aug + 0.5 * h * k2, e2)
        k4, e4 = stage(end, aug + h * k3, e3)
        aug = aug + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        eta = resolve(aug[0], e4)
        nodes.append(node(end, aug[0], eta))
        t = end
    return nodes, aug


def node_records(stepper, nodes):
    """The records of a fixed-frame march's nodes, one tuple per node.

    ``(t, x, y, xdot, ydot, residual)``, velocities None for order 1: the
    flat columns of one :meth:`~daecont.kernel.March.records` call, cut at
    the nodes, as the per-node record of the float march gave them.
    """
    times, *columns, residuals = stepper.records(nodes)
    rows = [[None] * len(times) if col is None
            else list(map(tuple, np.reshape(col, (len(times), -1)).tolist())) for col in columns]
    return list(zip(times, *rows, residuals))


def shoot(runner, lam, state0):
    """The shooting residual ``state(T) - state0`` of one plain march on the runner's system.

    The plain-march reference that the runner's :meth:`linearize` gives as
    row 0 of its sensitivity march, bit for bit; the march reads, and
    fills, the runner's frame grid.
    """
    state0 = np.asarray(state0, dtype=float)
    return np.array(runner._run(March(runner.sys, lam), state0.tolist())[1]) - state0


def shooting_residual(prob, lam, xi0, nsteps=DEFAULT_STEPS):
    """Fixed-frame period-map mismatch ``state(T) - state(0)``, from one march.

    For order-1 problems the unknown is ``xi0``; order-2 problems take the
    stacked ``(xi0, xidot0)``.  The library's shooting runner evaluates it
    inside :func:`~daecont.periodic.find_tpair` and continuation.
    """
    return shoot(_ShootingRunner(prob, nsteps), lam, np.atleast_1d(np.asarray(xi0, dtype=float)))


def constraint_residual(traj, model):
    """Largest ``|g(A(t) x, B(t) y)|`` over a trajectory's nodes, on numpy arrays.

    The numpy residual that pair assembly replaced with the one the float
    march records with each node.  ``model`` is a problem or its
    fixed-frame system; a system reads ``A`` and ``B`` from its fixed
    frame.
    """
    worst = 0.0
    for k, t in enumerate(traj.times):
        a, b = frame_arrays(model, t)
        val = model.g(a @ traj.x[k], b @ traj.y[k])
        worst = max(worst, float(np.abs(np.atleast_1d(val)).max()))
    return worst


def raw_march(prob, lam, state0, y0, h, nsteps):
    """The half-explicit RK4 march of a problem in original coordinates, on numpy arrays.

    The numpy arithmetic that the library's float raw march replaced: the
    moving constraint ``g(A(t) x, B(t) y) = 0`` re-solved for ``y`` per
    stage by :func:`solve_constraint` (Jacobian ``g_q B``),
    the rate ``lam f + H x`` (order 2: ``lam f + H1 xdot + H2 x``, with
    ``ydot`` from the constraint differentiated in time).  Frames are
    evaluated from the paths.  Returns the nodes ``(t, x, y, xdot, ydot)``
    and the end state.
    """
    m, order = prob.m, prob.order
    lam = float(lam)

    def resolve(t, state, y):
        a, b = prob.A(t), prob.B(t)
        p = a @ state[:m]
        return solve_constraint(lambda y: prob.g(p, b @ y), lambda y: prob.g_jac2(p, b @ y) @ b, y)

    def node(t, state, y):
        x = state[:m]
        if order == 1:
            return t, x, y, None, None
        xd = state[m:]
        a, b, da, db = prob.A(t), prob.B(t), prob.A(t, 1), prob.B(t, 1)
        p, q = a @ x, b @ y
        j1, j2 = prob.g_jac1(p, q), prob.g_jac2(p, q)
        return t, x, y, xd, solve_linear(j2 @ b, -(j1 @ (da @ x + a @ xd) + j2 @ (db @ y)))

    def stage(t, state, y):
        y = resolve(t, state, y)
        _, x, _, xd, yd = node(t, state, y)
        rhs = lam * np.asarray(prob.f(t, x, y, *(() if order == 1 else (xd, yd))), dtype=float)
        if order == 1:
            return rhs if prob.H is None else rhs + prob.H @ x, y
        if prob.H1 is not None:
            rhs = rhs + prob.H1 @ xd
        if prob.H2 is not None:
            rhs = rhs + prob.H2 @ x
        return np.concatenate([xd, rhs]), y

    state = np.asarray(state0, dtype=float)
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    nodes, t = [node(0.0, state, y)], 0.0
    for _ in range(nsteps):
        mid, end = t + 0.5 * h, t + h
        k1, y1 = stage(t, state, y)
        k2, y2 = stage(mid, state + 0.5 * h * k1, y1)
        k3, y3 = stage(mid, state + 0.5 * h * k2, y2)
        k4, y4 = stage(end, state + h * k3, y3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = resolve(end, state, y4)
        nodes.append(node(end, state, y))
        t = end
    return nodes, state


def semilinear_reduction(dae, report, S, dS):
    """The reduction of a semi-linear DAE on numpy arrays, from its sampled paths.

    With ``P, sigma, Q`` and the rank ``r`` of ``report``, returns
    ``(A, B, f, df)``: ``A(t, order)`` and ``B(t, order)`` are the lower
    blocks ``F3``, ``F4`` of ``P.T F(t) Q`` (its time derivatives for
    ``order`` 1 and 2, since ``P`` and ``Q`` are constant); ``f(t, x, y)``
    is the forcing ``sigma_r^-1 C_top(t) Q.T S(Q z)`` with ``z = (x, y)``
    and ``C_top`` the upper ``r`` rows of ``P.T C(t) Q``, and ``df`` its
    Jacobian by ``z``.  ``S`` and ``dS`` are numpy functions of the original
    state, written out by the caller.
    """
    p, q, r = report.P, report.Q, report.rank
    inv_e1 = 1.0 / report.sigma[:r]

    def block(cols):
        return lambda t, order=0: (p.T @ dae.Fpath(t, order) @ q)[r:, cols]

    def c_top(t):
        return inv_e1[:, None] * (p.T @ dae.Cpath(t) @ q)[:r, :]

    def f(t, x, y):
        return c_top(t) @ (q.T @ S(q @ np.concatenate([x, y])))

    def df(t, x, y):
        return c_top(t) @ q.T @ dS(q @ np.concatenate([x, y])) @ q

    return block(slice(0, r)), block(slice(r, 2 * r)), f, df


# -- grid audits, node by node ------------------------------------------------
#
# The per-node loops that the stacked audits of daecont.paths and
# daecont.semilinear replaced: one norm_inf per node and quantity, the max
# taken by Python (so, unlike a stacked max, a NaN after the first node is
# dropped).  Finite inputs give the stacked audits' bits.


def audit_nodes(path, grid_size, order):
    """``(A, dA[, d2A])`` at each node of the audit grid, one tuple per node."""
    if grid_size < MIN_GRID:
        raise ValueError(f"audit grid must have at least {MIN_GRID} points")
    return [tuple(path(t, k) for k in range(order + 1)) for t in _grid_times(path, grid_size)]


def frame_audit_of_nodes(samples, tol):
    """The :class:`FrameAudit` of a list of ``(A, dA, ...)`` nodes."""
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


NODE_IDENTITIES = {
    "accel_symmetry": lambda a, da, dda, m2: dda @ a.T - a @ dda.T,
    "accel_velocity": lambda a, da, dda, m2: dda @ a.T + da @ da.T,
    "velocity_square": lambda a, da, dda, m2: da @ da.T + (a @ da.T) @ (a @ da.T),
    "accel_drift_square": lambda a, da, dda, m2: dda @ a.T - m2,
    "left_accel_velocity": lambda a, da, dda, m2: dda.T @ a + da.T @ da,
    "left_velocity_square": lambda a, da, dda, m2: da.T @ da + (a.T @ da) @ (a.T @ da),
    "left_accel_square": lambda a, da, dda, m2: dda.T @ a - (a.T @ da) @ (a.T @ da),
}


def lemma_audit_of_nodes(path, grid_size=64):
    """:func:`daecont.paths.lemma_audit`, node by node."""
    samples = audit_nodes(path, grid_size, 2)
    audit = frame_audit_of_nodes(samples, default_tol(path))
    m2 = audit.M @ audit.M
    return LemmaReport(
        residuals={
            name: max(norm_inf(formula(a, da, dda, m2)) for a, da, dda in samples)
            for name, formula in NODE_IDENTITIES.items()
        },
        constancy_pair=(audit.right_constancy, audit.left_constancy),
        second_mean=np.mean([a @ dda.T for a, _, dda in samples], axis=0),
        one_sided_gap=max(norm_inf(a.T @ da - a @ da.T) for a, da, _ in samples),
        grid_size=grid_size,
    )


def svd_of_matrix(e):
    """:func:`daecont.linalg.svd_small` of one square matrix, by its sign rule."""
    e = np.asarray(e, dtype=float)
    n = e.shape[0]
    p, sigma, qt = np.linalg.svd(e)
    q = qt.T
    cutoff = 1e-13 * max(sigma[0], 1e-300)
    rank = int(np.count_nonzero(sigma > cutoff))
    sigma[rank:] = 0.0
    cols = np.arange(n)
    q_sign = np.sign(q[np.argmax(np.abs(q), axis=0), cols])
    p_sign = np.sign(p[np.argmax(np.abs(p), axis=0), cols])
    p_sign[:rank] = q_sign[:rank]
    return p * p_sign + 0.0, sigma, q * q_sign + 0.0


def determinant_of_matrix(a):
    """:func:`daecont.linalg.determinant` of one matrix: 0.0 where singular."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    _, pivots, singular, _ = _eliminate(a[None], np.zeros((1, n)))
    return 0.0 if singular[0] else float(np.prod(pivots[0]))


def _numerical_rank(sigma):
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_REL * sigma[0]))


def _subspace_residual(u, v):
    if u.shape[1] != v.shape[1]:
        return 1.0
    return norm_inf(u @ u.T - v @ v.T)


def check_with_nodes(dae, p, sigma, q, r, grid):
    """:func:`daecont.semilinear._check_with`, node by node."""
    e_t = p.T @ dae.mass @ q
    e_res = max(norm_inf(e_t[:r, r:]), norm_inf(e_t[r:, :r]), norm_inf(e_t[r:, r:]))
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
        p_c, sigma_c, _ = svd_of_matrix(c_raw)
        p_f, sigma_f, _ = svd_of_matrix(f_raw)
        ker_c_res = max(ker_c_res, _subspace_residual(p_c[:, _numerical_rank(sigma_c):], ker_e))
        ker_f_res = max(ker_f_res, _subspace_residual(p_f[:, : _numerical_rank(sigma_f)], ker_e))
        det3 = min(det3, abs(determinant_of_matrix(f_t[r:, :r])))
        det4 = min(det4, abs(determinant_of_matrix(f_t[r:, r:])))
    return ReductionReport(
        P=p, Q=q, sigma=sigma, rank=r,
        e_block_residual=e_res, f_block_residual=f_res, c_block_residual=c_res,
        kernel_residual_c=ker_c_res, kernel_residual_f=ker_f_res,
        det_margin_f3=det3, det_margin_f4=det4, grid_size=grid,
    )


def report_bits(report):
    """A report's ``to_dict`` as ``name -> (type name, bytes)``: equal iff bit for bit."""
    return {k: (type(v).__name__, np.asarray(v).tobytes()) for k, v in report.to_dict().items()}


# -- the degree layer, point by point -----------------------------------------
#
# The survey, boundary margin and zero classification that the stacked
# degree layer replaced: the map called at each lattice node, each face
# node and each located zero, with its point Jacobian (``jac``, else
# forward differences).  Newton runs as in the library, on the map's
# stacked pair (its ``arrays``, else its point forms at each point).


def point_forms(fun):
    """``fun`` and its Jacobian at one point: its ``jac``, else forward differences."""
    point = lambda z: np.atleast_1d(np.asarray(fun(z), dtype=float))
    jac = getattr(fun, "jac", None)
    if jac is None:
        return point, lambda z: fd_jacobian(point, z)
    return point, lambda z: np.atleast_2d(np.asarray(jac(z), dtype=float))


def classify_point(fun, jac, x, box):
    """A converged Newton iterate -> its :class:`ZeroRecord`, or raise."""
    r, j = fun(x), jac(x)
    det = determinant(j)
    if box.boundary_distance(x) < degree.BOUNDARY_TOL:
        raise BoundaryZeroError(f"zero at {np.array2string(x, precision=6)} lies within "
                                f"{degree.BOUNDARY_TOL:g} of the boundary")
    if abs(det) < degree.DET_TOL:
        raise DegenerateZeroError(f"zero at {np.array2string(x, precision=6)} has |det J| = "
                                  f"{abs(det):.3e} < {degree.DET_TOL:g}")
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


def zeros_by_points(fun, jac, maps, box, grid, values=None):
    """Zeros of ``fun`` from every lattice node: the point forms ``fun``
    and ``jac`` survey and classify, ``maps`` is the pair Newton runs on."""
    lattice = box.lattice(grid)
    if values is None:
        values = np.array([fun(p) for p in lattice])
    batch = degree.NEWTON_BATCH
    runs = [newton_stacked(*maps, lattice[k : k + batch], values[k : k + batch], degree.ZERO_NEWTON)
            for k in range(0, len(lattice), batch)]
    points = np.concatenate([x for x, _ in runs])
    converged = np.array([error is None for _, errors in runs for error in errors])
    found = []
    left = points[converged & box.contains(points, slack=degree.BOUNDARY_TOL)]
    while len(left):
        found.append(left[0])
        left = left[np.abs(left - left[0]).max(axis=1) > degree.DEDUP_TOL]
    records = [classify_point(fun, jac, x, box) for x in found]
    degree._check_sign_coverage(box, grid, values, [rec.point for rec in records])
    return records


def stacked_pair(fun):
    """The pair Newton runs on: ``fun.arrays``, else the point forms at each point."""
    arrays = getattr(fun, "arrays", None)
    if arrays is None:
        return stacked_maps(fun, getattr(fun, "jac", None))
    return arrays[0], lambda x, r: arrays[1](x)


def degree_generic_points(fun, box, grid=degree.DEFAULT_GRID):
    """:func:`daecont.degree.degree_generic`, surveyed and classified point by point."""
    point, jac = point_forms(fun)
    values = np.array([point(p) for p in box.lattice(grid)])
    margin = degree._boundary_margin(values[box.face_mask(grid)])
    zeros = zeros_by_points(point, jac, stacked_pair(fun), box, grid, values)
    return DegreeCertificate(degree=int(sum(z.sign for z in zeros)), zeros=zeros,
                             boundary_margin=margin, method="generic")


def degree_reduced_points(fun, box, grid=degree.DEFAULT_GRID):
    """:func:`daecont.degree.degree_reduced` with the section and the margin point by point.

    The section ``q -> fun(0, q)[m:]`` takes the ``eta`` block of the
    map's ``jac`` (forward differences of the section without one), and
    of its ``arrays`` when it has them.
    """
    m_mat = fun.block
    m = m_mat.shape[0]
    det_m = determinant(m_mat)
    if det_m == 0.0:
        raise SingularMatrixError("reduction shortcut needs a nonsingular linear block")
    at_zero = lambda q: np.concatenate([np.zeros(q.shape[:-1] + (m,)), q], axis=-1)
    section = lambda q: np.atleast_1d(np.asarray(fun(at_zero(q))[m:], dtype=float))
    if fun.jac is None:
        section_jac = lambda q: fd_jacobian(section, q)
    else:
        section_jac = lambda q: fun.jac(at_zero(q))[m:, m:]
    if fun.arrays is None:
        maps = stacked_maps(section, None if fun.jac is None else section_jac)
    else:
        maps = (lambda q: fun.arrays[0](at_zero(q))[:, m:],
                lambda q, r: fun.arrays[1](at_zero(q))[:, m:, m:])
    zeros = zeros_by_points(section, section_jac, maps, Box(box.lower[m:], box.upper[m:]), grid)
    margin = degree._boundary_margin(
        np.array([fun(p) for p in box.lattice(grid)[box.face_mask(grid)]]))
    sign_m = 1 if det_m > 0 else -1
    full = [ZeroRecord(point=at_zero(z.point), sign=sign_m * z.sign, det=det_m * z.det,
                       residual=z.residual) for z in zeros]
    return DegreeCertificate(degree=int(sign_m * sum(z.sign for z in zeros)), zeros=full,
                             boundary_margin=margin, method="reduced")


def certificate_bits(cert):
    """A degree certificate as bytes: equal iff degree, margin and every zero's fields are."""
    return (cert.degree, cert.method, np.float64(cert.boundary_margin).tobytes(),
            [(z.point.tobytes(), z.sign, np.float64(z.det).tobytes(), np.float64(z.residual).tobytes())
             for z in cert.zeros])


def row_loop_float_array(a, indent, level):
    """A finite 1-D or 2-D float array as JSON text, one row at a time: the
    row loop that ``probfile._float_array`` keeps for arrays that may be
    inline, applied to every array."""
    n = a.shape[-1]
    fmt, inline = ", ".join(["%.17g"] * n), 72 + 2 * (n - 1)
    rendered = []
    for row in (a[None] if a.ndim == 1 else a).tolist():
        text = fmt % tuple(row)
        if len(text) <= inline:
            rendered.append("[" + text + "]")
        else:
            rendered.append(_bracket(text.split(", "), indent, level + a.ndim - 1))
    return rendered[0] if a.ndim == 1 else _bracket(rendered, indent, level)
