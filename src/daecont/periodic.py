"""Periodic solutions of moving-constraint DAEs: integration, shooting,
and pseudo-arclength continuation.

Integration is half-explicit: the differential variables advance with
classical RK4 while the algebraic ones are re-solved from the constraint
at every stage (warm-started Newton).  One stepper runs the scheme in
either coordinate system, which differ only in how the algebraic block
and its rate are solved and in how a node maps to original coordinates:

- raw: original coordinates, moving constraint ``g(A(t) x, B(t) y) = 0``;
- fixed: frame coordinates, autonomous constraint and constant drifts;
  the coordinate change both ways belongs to
  :class:`~daecont.transform.TransformedSystem`.

Both modes return original-coordinate trajectories.

Periodic orbits are zeros of the shooting residual
``xi(T; lam, xi0) - xi0`` posed in the fixed frame, where the constraint
is autonomous and the algebraic block is a local function of the state.
Branches in ``(lam, xi0)`` are traced by a pseudo-arclength
predictor-corrector seeded at the zeros of the seeding map (the
candidate map, or the averaged map when the drift vanishes).

Newton and the tangents use the exact Jacobian of the discrete RK4 map,
not finite differences: a sensitivity march carries the derivative of
the state with respect to ``(lam, xi0)`` through every stage of the same
march (internal differentiation), with ``d eta / d xi = -g_q^-1 g_p``
taken at each stage's converged algebraic block.  Its row 0 is the plain
march, bit for bit.  Newton accepts a point on the residual it evaluated
there, so the corrector's last march gives the residual, the Jacobian,
the tangent and the accepted pair's nodes: a pair costs no march of its own.

Every fixed-frame march reads the frame through its system's table (see
:mod:`daecont.transform`), so a march evaluates the frame paths only at
the ``2N + 1`` step and midpoint times it has not seen before.  A
shooting runner keeps one system, and with it one table, for all the
marches of a branch; ``integrate`` and the seeding map fill the table of
the system they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .degree import Box, ZeroRecord, locate_zeros, seeding_map
from .errors import (
    DaecontError,
    NoConvergenceError,
    NonfiniteResultError,
    SeedRejectedError,
    SingularJacobianError,
    SingularMatrixError,
    SingularMonodromyError,
)
from .linalg import PIVOT_REL, NewtonConfig, newton_solve, norm_inf, solve_linear
from .transform import fixed_frame

__all__ = [
    "Trajectory",
    "TPair",
    "Branch",
    "consistent_init",
    "integrate",
    "shooting_residual",
    "find_tpair",
    "continue_branch",
    "branch_seeds",
]

PERIODICITY_TOL = 1e-8
CONSTRAINT_TOL = 1e-10
TRIVIAL_TOL = 1e-9
SEED_TOL = 1e-8
DEFAULT_STEPS = 256
MAX_STEPS = 100_000  # per integration span; bounds the work, the nodes and the 2N + 1 frames
CONSTRAINT_SOLVE_TOL = 1e-12
CONSTRAINT_SOLVE_MAX_ITER = 40
LSQ_TOL = 1e-10
LSQ_MAX_ITER = 30
_FIRST_STEP = NewtonConfig(max_iters=25, tol_residual=1e-10)
_CORRECTOR = NewtonConfig(max_iters=15, tol_residual=1e-10)


@dataclass
class Trajectory:
    """Uniformly sampled trajectory in original coordinates."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xdot: Optional[np.ndarray] = None
    ydot: Optional[np.ndarray] = None

    def sup_norm_x(self) -> float:
        return norm_inf(self.x)

    def sup_norm_y(self) -> float:
        return norm_inf(self.y)

    def periodicity_residual(self) -> float:
        columns = (self.x, self.y, self.xdot, self.ydot)
        return max(norm_inf(c[-1] - c[0]) for c in columns if c is not None)

    def constraint_residual(self, model) -> float:
        """Largest ``|g(A(t) x, B(t) y)|`` over the nodes.

        ``model`` is a problem or its fixed-frame system; a system reads
        ``A`` and ``B`` through its frame table, so times it has seen cost
        no path evaluation.
        """
        worst = 0.0
        for k, t in enumerate(self.times):
            a, b = model.frame(t)
            val = model.g(a @ self.x[k], b @ self.y[k])
            worst = max(worst, norm_inf(np.atleast_1d(val)))
        return worst

    def to_dict(self) -> dict:
        out = {"times": self.times, "x": self.x, "y": self.y}
        if self.xdot is not None:
            out["xdot"] = self.xdot
            out["ydot"] = self.ydot
        return out


@dataclass
class TPair:
    """A parameter value with an accepted T-periodic trajectory."""

    lam: float
    trajectory: Trajectory
    xi0: np.ndarray
    periodicity_residual: float
    constraint_residual: float
    is_trivial: bool

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "xi0": self.xi0,
            "periodicity_residual": self.periodicity_residual,
            "constraint_residual": self.constraint_residual,
            "trivial": self.is_trivial,
            "trajectory": self.trajectory.to_dict(),
        }


@dataclass
class Branch:
    """Ordered continuation output: one TPair per accepted step."""

    pairs: List[TPair]
    seed: np.ndarray
    termination: str


def _solve_constraint(g, jac, q0):
    # Plain warm-started Newton; the algebraic block is locally unique, so
    # no globalization is needed once seeded on the right branch.  A warm
    # start inside the absolute tolerance still gets one polish iteration:
    # skipping it leaves an O(tol) error that unstable flows can amplify
    # far past the tolerance of the differential block.  A non-finite
    # residual (a model value overflowed or divided by zero) ends the solve
    # at once: Newton cannot recover from it.  A scalar block (s = 1)
    # iterates on Python floats, with the same rules and the same bits.
    if np.size(q0) == 1:
        return _scalar_newton(g, jac, q0)
    return _vector_newton(g, jac, q0)


def _vector_newton(g, jac, q0):
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


def _scalar_newton(g, jac, q0):
    # _vector_newton for s = 1: the step q - r / j and the 1x1 pivot test
    # of solve_linear, on floats.  The models still see a 1-vector, built
    # once per iterate and shared by g and jac.
    q = _one(q0)
    qa = np.array([q])
    r = _one(g(qa))
    rn = abs(r)
    for iteration in range(CONSTRAINT_SOLVE_MAX_ITER):
        if rn == 0.0 or (rn <= CONSTRAINT_SOLVE_TOL and iteration > 0):
            return qa
        if not rn < math.inf:
            raise NonfiniteResultError(f"constraint residual is {rn}: a model value is not finite")
        j = _one(jac(qa))
        if abs(j) < PIVOT_REL * max(abs(j), 1e-300) or j == 0.0:
            if rn <= CONSTRAINT_SOLVE_TOL:
                return qa
            raise SingularMatrixError("1x1 system is singular")
        q = q - r / j
        qa = np.array([q])
        r = _one(g(qa))
        rn = abs(r)
    if rn <= CONSTRAINT_SOLVE_TOL:
        return qa
    raise NoConvergenceError(
        f"constraint solve stalled at residual {rn:.3e} (tol {CONSTRAINT_SOLVE_TOL:.1e})"
    )


def _one(value) -> float:
    # The entry of a size-1 model value: an array of any shape, a list or a number.
    if type(value) is not np.ndarray:
        value = np.asarray(value, dtype=float)
    return value.item()


def consistent_init(prob, t0: float, x0: np.ndarray, y_guess: np.ndarray) -> np.ndarray:
    """Solve ``g(A(t0) x0, B(t0) y) = 0`` for y starting from ``y_guess``.

    The frame is ``prob.frame(t0)``: a problem's paths, or a transformed
    system's frame table.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    a, b = prob.frame(t0)
    p = a @ x0
    return _solve_constraint(
        lambda y: prob.g(p, b @ y),
        lambda y: prob.g_jac2(p, b @ y) @ b,
        y_guess,
    )


class _Stepper:
    """Half-explicit RK4 stages, shared by both coordinate systems.

    Positions are ``state[:m]``; order-2 states carry the velocities in
    ``state[m:]``.  ``sys.drive`` gives the differential right-hand side.
    A variant supplies ``solve`` (the algebraic block from the
    constraint), ``rate`` (its time derivative, order 2 only) and ``node``
    (a recorded node in original coordinates).
    """

    def __init__(self, sys, lam):
        self.sys = sys
        self.lam = lam
        self.m = sys.m
        self.order = sys.order

    def stage(self, t, state, y_warm):
        y = self.resolve(t, state, y_warm)
        x = state[: self.m]
        if self.order == 1:
            return self.sys.drive(t, x, y, self.lam), y
        xd = state[self.m :]
        acc = self.sys.drive(t, x, y, xd, self.rate(t, x, xd, y), self.lam)
        return np.concatenate([xd, acc]), y

    def resolve(self, t, state, y_warm):
        # The algebraic block at a stage state.  A non-finite residual at a
        # non-finite state blames the state, where an earlier model value
        # overflowed without raising, not the constraint.
        x = state[: self.m]
        try:
            return self.solve(t, x, y_warm)
        except NonfiniteResultError:
            if np.isfinite(x).all():
                raise
            raise NonfiniteResultError(
                f"state {x.tolist()} at t = {t!r} is not finite: a model value overflowed"
            ) from None

    def record(self, t, state, y):
        x = state[: self.m]
        if self.order == 1:
            return self.node(t, x, y)
        xd = state[self.m :]
        return self.node(t, x, y, xd, self.rate(t, x, xd, y))


class _RawStepper(_Stepper):
    # Original coordinates, moving constraint.
    def solve(self, t, x, y_guess):
        return consistent_init(self.sys, t, x, y_guess)

    def rate(self, t, x, xdot, y):
        # Differentiate g(A x, B y) = 0 in time and solve for dy/dt.
        prob = self.sys
        a, da = prob.A(t), prob.A(t, 1)
        b, db = prob.B(t), prob.B(t, 1)
        p, q = a @ x, b @ y
        j1 = prob.g_jac1(p, q)
        j2 = prob.g_jac2(p, q)
        rhs = -(j1 @ (da @ x + a @ xdot) + j2 @ (db @ y))
        return solve_linear(j2 @ b, rhs)

    def node(self, t, x, y, xdot=None, ydot=None):
        return x, y, xdot, ydot


class _FixedStepper(_Stepper):
    # Frame coordinates, autonomous constraint, constant drifts.
    def solve(self, t, xi, eta_guess):
        sys = self.sys
        return _solve_constraint(
            lambda eta: sys.g(xi, eta),
            lambda eta: sys.g_jac2(xi, eta),
            eta_guess,
        )

    def rate(self, t, xi, xid, eta):
        sys = self.sys
        return _eta_rate(sys.g_jac1(xi, eta), np.atleast_2d(sys.g_jac2(xi, eta)), xid)

    def node(self, t, xi, eta, xid=None, etad=None):
        return self.sys.pull_back(t, xi, eta, xid, etad)


def _eta_rate(g_p, g_q, xid):
    # d eta / dt from d/dt g(xi, eta) = g_p xid + g_q etad = 0
    return solve_linear(g_q, -(g_p @ xid))


class _SensitivityStepper(_FixedStepper):
    """Fixed-frame stages whose state carries its own sensitivity.

    The state is a matrix: row 0 is the march state and row ``1 + j`` its
    derivative with respect to parameter ``j`` (``lam``, then the start
    state).  :func:`_march` advances every row with the same RK4
    arithmetic, so row 0 keeps the bits of a plain march and the other
    rows are the derivative of the discrete map itself.  Each stage adds
    ``dk = K dstate + [F | 0]``: ``K`` is the Jacobian of the stage rate
    along the constraint, with ``d eta / d xi = -g_q^-1 g_p`` (and, for
    order 2, the derivative of ``etadot``) taken at the stage's converged
    ``eta``, and ``F``, the forcing, is the rate's derivative in ``lam``.
    """

    def resolve(self, t, aug, y_warm):
        return _FixedStepper.resolve(self, t, aug[0], y_warm)

    def record(self, t, aug, y):
        return _FixedStepper.record(self, t, aug[0], y)

    def stage(self, t, aug, y_warm):
        sys, m, lam = self.sys, self.m, self.lam
        state, dstate = aug[0], aug[1:]
        xi = state[:m]
        eta = _FixedStepper.resolve(self, t, state, y_warm)
        g_p = np.atleast_2d(sys.g_jac1(xi, eta))
        g_q = np.atleast_2d(sys.g_jac2(xi, eta))
        e = -solve_linear(g_q, g_p)  # d eta / d xi
        out = np.empty_like(aug)
        if self.order == 1:
            out[0], force, (f_xi, f_eta) = sys.linear_drive(t, xi, eta, lam)
            np.matmul(dstate, (sys.D0 + lam * (f_xi + f_eta @ e)).T, out=out[1:])
            out[1] += force
            return out, eta
        xid = state[m:]
        etad = _eta_rate(g_p, g_q, xid)
        acc, force, (f_xi, f_eta, f_xid, f_etad) = sys.linear_drive(t, xi, eta, xid, etad, lam)
        gdot = np.atleast_2d(sys.gdot_jac(xi, eta, xid, etad))
        w = -solve_linear(g_q, gdot[:, :m] + gdot[:, m:] @ e)  # d etad / d xi; by xid it is e
        out[0, :m], out[0, m:] = xid, acc
        out[1:, :m] = dstate[:, m:]
        out[1:, m:] = (dstate[:, :m] @ (sys.D0 + lam * (f_xi + f_eta @ e + f_etad @ w)).T
                       + dstate[:, m:] @ (sys.D1 + lam * (f_xid + f_etad @ e)).T)
        out[1, m:] += force
        return out, eta


def _step_times(t0, h, nsteps):
    # (start, midpoint, end) of each RK4 step of a march from t0: the exact
    # floats its stages see.
    t = t0
    for _ in range(nsteps):
        end = t + h
        yield t, t + 0.5 * h, end
        t = end


def _march(stepper, t0, state0, y0, h, nsteps):
    # RK4 over the differential block; algebraic block re-solved per stage
    # with warm starts.  A stage whose constraint Newton fails aborts the
    # whole integration (no silent continuation).  Returns the nodes
    # (t, state, y) of the march, start first: the last holds the end state.
    state = np.asarray(state0, dtype=float).copy()
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    nodes = [(t0, state, y)]
    for t, mid, end in _step_times(t0, h, nsteps):
        k1, y1 = stepper.stage(t, state, y)
        k2, y2 = stepper.stage(mid, state + 0.5 * h * k1, y1)
        k3, y3 = stepper.stage(mid, state + 0.5 * h * k2, y2)
        k4, y4 = stepper.stage(end, state + h * k3, y3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = stepper.resolve(end, state, y4)
        nodes.append((end, state, y))
    return nodes


def _steps_for(span_len, h):
    # ValueError unless h divides the span into 1..MAX_STEPS steps (the cap first: inf has no int)
    if not span_len / h < MAX_STEPS + 0.5:
        raise ValueError(f"step {h!r} gives more than {MAX_STEPS} steps over {span_len!r}")
    nsteps = int(round(span_len / h))
    if nsteps < 1 or abs(nsteps * h - span_len) > 1e-9 * max(1.0, span_len):
        raise ValueError(f"step {h!r} does not divide the span length {span_len!r}")
    return nsteps


def integrate(
    prob,
    lam: float,
    x0,
    y0=None,
    h: Optional[float] = None,
    *,
    mode: str = "raw",
) -> Trajectory:
    """Integrate a problem over one period at fixed ``lam``.

    Returns the node trajectory from ``t = 0``; order-2 problems start at
    rest (``xdot = 0``).  ``y0=None`` solves the constraint for the
    algebraic start from a zero guess.  ``mode='fixed'`` integrates the
    transformed system instead and pulls the result back, so both modes
    return original-coordinate trajectories and are directly comparable.
    """
    if mode not in ("raw", "fixed"):
        raise ValueError(f"unknown integration mode {mode!r}")
    h = prob.period / DEFAULT_STEPS if h is None else h
    nsteps = _steps_for(prob.period, h)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    # the fixed-frame march reads the start frame from its system's table
    sys = fixed_frame(prob) if mode == "fixed" else prob
    if y0 is None:
        y0 = consistent_init(sys, 0.0, x0, np.zeros(prob.s))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    a0, b0 = sys.frame(0.0)
    start_residual = norm_inf(np.atleast_1d(prob.g(a0 @ x0, b0 @ y0)))
    if start_residual > 1e-8:
        raise ValueError(
            f"initial state violates the constraint (residual {start_residual:.3e}); "
            "pass y0=None to solve for a consistent start"
        )
    xdot0 = None if prob.order == 1 else np.zeros(prob.m)

    if mode == "raw":
        stepper, start = _RawStepper(prob, lam), (x0, y0, xdot0)
    else:
        stepper, start = _FixedStepper(sys, lam), sys.push_forward(0.0, x0, y0, xdot0)
    pos0, alg0, vel0 = start
    state0 = pos0 if vel0 is None else np.concatenate([pos0, vel0])
    return _trajectory(stepper.record, _march(stepper, 0.0, state0, alg0, h, nsteps))


def _trajectory(record, nodes) -> Trajectory:
    # March nodes (t, state, y) through record to (x, y, xdot, ydot); None velocities for order 1.
    records = zip(*(record(*node) for node in nodes))
    columns = (None if col[0] is None else np.array(col) for col in records)
    return Trajectory(np.asarray([node[0] for node in nodes], dtype=float), *columns)


class _ShootingRunner:
    """Caches the transformed system and runs fixed-frame marches.

    The shooting unknown is the initial frame state (``xi0`` for order 1,
    ``(xi0, xidot0)`` for order 2); the algebraic block is recovered from
    the autonomous constraint, so periodicity of ``eta`` is checked a
    posteriori rather than solved for.

    Every march runs the same grid on the runner's one system, whose frame
    table fills on the first march and serves every later one.  The runner
    also keeps the nodes of one march, :meth:`linearize`'s last, for
    :meth:`make_tpair`.
    """

    def __init__(self, prob, nsteps: int = DEFAULT_STEPS):
        self.prob = prob
        self.nsteps = int(nsteps)
        self.h = prob.period / self.nsteps
        self.state_dim = prob.order * prob.m
        self.sys = fixed_frame(prob)
        self._last = (None,) * 5  # linearize's (key, residual, jacobian, record, nodes)

    def _run(self, stepper, start):
        # The nodes of one period of stepper from start.
        eta0 = stepper.resolve(0.0, start, np.zeros(self.prob.s))
        return _march(stepper, 0.0, start, eta0, self.h, self.nsteps)

    def shoot(self, lam, state0):
        state0 = np.asarray(state0, dtype=float)
        return self._run(_FixedStepper(self.sys, lam), state0)[-1][1] - state0

    def linearize(self, lam, state0):
        """Shooting residual and its Jacobian by ``(lam, state0)``.

        One sensitivity march gives both; the residual is :meth:`shoot`'s,
        bit for bit.  The result for the last point is kept, keyed by the
        exact bytes of ``(lam, state0)`` with its march's nodes: one Newton
        iterate's residual and Jacobian, and the tangent and pair at a
        converged point, share one march.  Do not modify the arrays.
        """
        state0 = np.asarray(state0, dtype=float)
        key = np.append(lam, state0).tobytes()
        if key != self._last[0]:
            n = self.state_dim
            stepper = _SensitivityStepper(self.sys, lam)
            nodes = self._run(stepper, np.vstack([state0, np.zeros(n), np.eye(n)]))
            end = nodes[-1][1]
            jacobian = end[1:].T - np.eye(n, n + 1, 1)
            self._last = (key, end[0] - state0, jacobian, stepper.record, nodes)
        return self._last[1], self._last[2]

    def newton_maps(self, lam=None):
        """Residual and Jacobian callables for :func:`newton_solve`.

        The unknown is the start state at a fixed ``lam``, or ``(lam,
        state0)`` when ``lam`` is None.  Both read :meth:`linearize`.
        """
        if lam is None:
            return (lambda z: self.linearize(z[0], z[1:])[0],
                    lambda z: self.linearize(z[0], z[1:])[1])
        return (lambda z: self.linearize(lam, z)[0],
                lambda z: self.linearize(lam, z)[1][:, 1:])

    def make_tpair(self, lam, state0) -> TPair:
        state0 = np.asarray(state0, dtype=float)
        self.linearize(lam, state0)  # no march right after the corrector that accepted the point
        pair = _tpair(self.sys, lam, _trajectory(*self._last[3:]), state0[: self.prob.m])
        for name, value, tol in (("periodicity", pair.periodicity_residual, PERIODICITY_TOL),
                                 ("constraint", pair.constraint_residual, CONSTRAINT_TOL)):
            if value > tol:
                raise NoConvergenceError(f"{name} residual {value:.3e} exceeds {tol:g}")
        return pair


def _tpair(sys, lam, traj: Trajectory, xi0) -> TPair:
    # The one TPair assembly: residuals, and triviality at lam = 0.
    dev = max(norm_inf(traj.x - traj.x[0]), norm_inf(traj.y - traj.y[0]))
    return TPair(
        lam=float(lam),
        trajectory=traj,
        xi0=np.asarray(xi0, dtype=float).copy(),
        periodicity_residual=traj.periodicity_residual(),
        constraint_residual=traj.constraint_residual(sys),
        is_trivial=bool(lam == 0.0 and dev <= TRIVIAL_TOL),
    )


def shooting_residual(prob, lam: float, xi0, nsteps: int = DEFAULT_STEPS) -> np.ndarray:
    """Fixed-frame period-map mismatch ``state(T) - state(0)``.

    For order-1 problems the unknown is ``xi0``; order-2 problems take the
    stacked ``(xi0, xidot0)``.
    """
    return _ShootingRunner(prob, nsteps).shoot(lam, np.atleast_1d(np.asarray(xi0, dtype=float)))


def find_tpair(prob, lam: float, xi0_guess, nsteps: int = DEFAULT_STEPS) -> TPair:
    """Newton on the shooting residual, returning an accepted TPair.

    At ``lam = 0`` the period map is often the identity (full-rotation
    frames), making the shooting Jacobian singular; the guess is then
    integrated once and accepted if already periodic, without Newton.
    """
    runner = _ShootingRunner(prob, nsteps)
    state0 = np.atleast_1d(np.asarray(xi0_guess, dtype=float))
    if lam == 0.0:
        res = runner.linearize(lam, state0)[0]
        if norm_inf(res) > PERIODICITY_TOL:
            raise SingularMonodromyError(
                "shooting at lam = 0 is degenerate and the guess is not periodic "
                f"(residual {norm_inf(res):.3e})"
            )
        return runner.make_tpair(lam, state0)
    cfg = NewtonConfig(max_iters=30, tol_residual=1e-10)
    try:
        sol = newton_solve(*runner.newton_maps(lam), state0, cfg)
    except SingularJacobianError as exc:
        raise SingularMonodromyError(str(exc)) from exc
    return runner.make_tpair(lam, sol)


def _trivial_tpair(runner: _ShootingRunner, seed: np.ndarray) -> TPair:
    # The seed is a seeding-map zero: the drift annihilates xi0 (or
    # vanishes, when the averaged map seeds) and the constraint holds, so
    # the constant frame state is a solution at lam=0.
    prob = runner.prob
    m = prob.m
    xi0, eta0 = seed[:m], seed[m:]
    vel = () if prob.order == 1 else (np.zeros(m), np.zeros(prob.s))
    # the node times of a march, bit for bit
    times = [0.0] + [end for _, _, end in _step_times(0.0, runner.h, runner.nsteps)]
    at_rest = lambda t, xi, eta: runner.sys.pull_back(t, xi, eta, *vel)
    return _tpair(runner.sys, 0.0, _trajectory(at_rest, [(t, xi0, eta0) for t in times]), xi0)


def _least_squares_newton(fun, jac, x0):
    # Gauss-Newton with a Tikhonov floor; corrector fallback for the
    # (expected) singular shooting Jacobian near lam = 0.
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(LSQ_MAX_ITER):
        r = np.atleast_1d(fun(x))
        if norm_inf(r) <= LSQ_TOL:
            return x
        j = jac(x)
        jtj = j.T @ j
        mu = 1e-12 * max(norm_inf(jtj), 1.0)
        x = x + solve_linear(jtj + mu * np.eye(x.size), -(j.T @ r))
    r = np.atleast_1d(fun(x))
    if norm_inf(r) <= LSQ_TOL:
        return x
    raise NoConvergenceError(f"least-squares corrector stalled at {norm_inf(r):.3e}")


def _branch_tangent(jac, z, t_prev):
    # Nullspace direction of the (m x m+1) residual Jacobian at z, bordered
    # with and oriented along the previous tangent.
    a = np.vstack([jac(z), t_prev])
    rhs = np.zeros(z.size)
    rhs[-1] = 1.0
    try:
        t = solve_linear(a, rhs)
    except SingularMatrixError:
        # residual Jacobian degenerate (identity monodromy); keep marching
        # in the previous direction
        return t_prev
    t = t / np.sqrt(t @ t)
    return t if float(t @ t_prev) >= 0.0 else -t


def _arclength_step(fun, jac, z, tangent, ds, box: Box):
    # Predictor along the tangent, then Newton on the shooting residual
    # plus the arclength condition, retried once at half the step (a second
    # failure propagates).  Returns the new point or a termination.
    for retry, step in enumerate((ds, 0.5 * ds)):
        z_pred = z + step * tangent
        if z_pred[0] < 0.0:
            return "lambda_boundary"
        aug = lambda w: np.concatenate([fun(w), [float(tangent @ (w - z_pred))]])
        aug_jac = lambda w: np.vstack([jac(w), tangent])
        try:
            w = newton_solve(aug, aug_jac, z_pred, _CORRECTOR)
        except (NoConvergenceError, SingularJacobianError):
            if retry:
                raise
            continue
        if w[0] < 0.0:
            return "lambda_boundary"
        return w if box.contains(w) else "left_box"


def continue_branch(
    prob,
    seed,
    ds: float,
    nsteps: int,
    box: Box,
    *,
    integration_steps: int = DEFAULT_STEPS,
) -> Branch:
    """Trace a branch of T-pairs from a seeding-map zero.

    ``seed`` lives in (xi, eta) space and must be a zero of the
    :func:`~daecont.degree.seeding_map`; the traced polyline lives in
    ``(lam, xi0)`` space, which is what ``box`` bounds.  The first
    corrected point is taken at ``lam = ds`` (not 0) with the trivial state
    as predictor, because the period map at ``lam = 0`` may be the
    identity.  ``lam`` is clamped to be nonnegative and the march
    direction starts toward increasing ``lam``.

    A bad seed, box or ``ds`` raises.  Once the trivial pair exists the
    branch always comes back with the pairs traced so far and its
    termination: ``budget`` (all ``nsteps`` steps taken), ``left_box``,
    ``lambda_boundary`` (a step would go below ``lam = 0``) or
    ``solver_failure`` (a :class:`DaecontError` of a later step, or a model's
    ``ArithmeticError``, ``ValueError`` or numpy ``LinAlgError``).
    """
    runner = _ShootingRunner(prob, integration_steps)
    seed = np.atleast_1d(np.asarray(seed, dtype=float))
    seed_residual = norm_inf(seeding_map(runner.sys)(seed))
    if seed_residual > SEED_TOL:
        raise SeedRejectedError(f"seed is not a seeding-map zero (residual {seed_residual:.3e})")
    if box.dim != 1 + runner.state_dim:
        raise ValueError(
            f"continuation box must live in (lam, state) space of dim {1 + runner.state_dim}"
        )
    if not ds > 0:
        raise ValueError(f"continuation step ds must be positive, got {ds!r}")
    ds = float(ds)
    pairs = [_trivial_tpair(runner, seed)]
    termination = "budget"
    try:
        # First step: fixed lam = ds, correct the state only.
        state_seed = np.concatenate([seed[: prob.m], np.zeros(runner.state_dim - prob.m)])
        first = runner.newton_maps(ds)
        try:
            state1 = newton_solve(*first, state_seed, _FIRST_STEP)
        except SingularJacobianError:
            state1 = _least_squares_newton(*first, state_seed)
        pairs.append(runner.make_tpair(ds, state1))
        z = np.concatenate([[ds], state1])
        chord = z - np.concatenate([[0.0], state_seed])
        tangent = chord / np.sqrt(chord @ chord)
        fun, jac = runner.newton_maps()
        for _ in range(nsteps - 1):
            tangent = _branch_tangent(jac, z, tangent)
            z = _arclength_step(fun, jac, z, tangent, ds, box)
            if isinstance(z, str):
                termination = z
                break
            pairs.append(runner.make_tpair(z[0], z[1:]))
    except (DaecontError, ArithmeticError, ValueError):  # numpy's LinAlgError is a ValueError
        termination = "solver_failure"
    return Branch(pairs=pairs, seed=seed, termination=termination)


def branch_seeds(prob, box: Box, grid: int = 5) -> List[ZeroRecord]:
    """Zeros of the :func:`~daecont.degree.seeding_map` inside ``box``, with
    local degree signs."""
    return locate_zeros(seeding_map(fixed_frame(prob)), box, grid)
