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
predictor-corrector seeded at the zeros of the candidate (or averaged)
map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .degree import Box, ZeroRecord, averaged_map_fn, candidate_map, locate_zeros
from .errors import (
    NoConvergenceError,
    SeedRejectedError,
    SingularJacobianError,
    SingularMatrixError,
    SingularMonodromyError,
)
from .linalg import NewtonConfig, fd_jacobian, newton_solve, norm_inf, solve_linear
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
CONSTRAINT_SOLVE_TOL = 1e-12


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
        res = max(norm_inf(self.x[-1] - self.x[0]), norm_inf(self.y[-1] - self.y[0]))
        if self.xdot is not None:
            res = max(res, norm_inf(self.xdot[-1] - self.xdot[0]))
        if self.ydot is not None:
            res = max(res, norm_inf(self.ydot[-1] - self.ydot[0]))
        return res

    def constraint_residual(self, prob) -> float:
        worst = 0.0
        for k, t in enumerate(self.times):
            val = prob.g(prob.A(t) @ self.x[k], prob.B(t) @ self.y[k])
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
    ds: float = 0.0
    state_dim: int = 0  # xi0 column count when pairs is empty


def _solve_constraint(g, jac, q0, tol=CONSTRAINT_SOLVE_TOL, max_iter=40):
    # Plain warm-started Newton; the algebraic block is locally unique, so
    # no globalization is needed once seeded on the right branch.  A warm
    # start inside the absolute tolerance still gets one polish iteration:
    # skipping it leaves an O(tol) error that unstable flows can amplify
    # far past the tolerance of the differential block.
    q = np.atleast_1d(np.asarray(q0, dtype=float)).copy()
    r = np.atleast_1d(g(q))
    rn = np.abs(r).max()
    for iteration in range(max_iter):
        if rn == 0.0 or (rn <= tol and iteration > 0):
            return q
        try:
            q = q - solve_linear(np.atleast_2d(jac(q)), r)
        except SingularMatrixError:
            if rn <= tol:
                return q
            raise
        r = np.atleast_1d(g(q))
        rn = np.abs(r).max()
    if rn <= tol:
        return q
    raise NoConvergenceError(
        f"constraint solve stalled at residual {rn:.3e} (tol {tol:.1e})"
    )


def consistent_init(prob, t0: float, x0: np.ndarray, y_guess: np.ndarray) -> np.ndarray:
    """Solve ``g(A(t0) x0, B(t0) y) = 0`` for y starting from ``y_guess``."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p = prob.A(t0) @ x0
    b = prob.B(t0)
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
        x = state[: self.m]
        y = self.solve(t, x, y_warm)
        if self.order == 1:
            return self.sys.drive(t, x, y, self.lam), y
        xd = state[self.m :]
        acc = self.sys.drive(t, x, y, xd, self.rate(t, x, xd, y), self.lam)
        return np.concatenate([xd, acc]), y

    def resolve(self, t, state, y_warm):
        return self.solve(t, state[: self.m], y_warm)

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
        j2 = sys.g_jac2(xi, eta)
        return solve_linear(np.atleast_2d(j2), -(sys.g_jac1(xi, eta) @ xid))

    def node(self, t, xi, eta, xid=None, etad=None):
        return self.sys.pull_back(t, xi, eta, xid, etad)


def _march(stepper, t0, state0, y0, h, nsteps, record_nodes):
    # RK4 over the differential block; algebraic block re-solved per stage
    # with warm starts.  A stage whose constraint Newton fails aborts the
    # whole integration (no silent continuation).
    t = t0
    state = np.asarray(state0, dtype=float).copy()
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    nodes = [stepper.record(t, state, y)] if record_nodes else None
    times = [t] if record_nodes else None
    for _ in range(nsteps):
        k1, y1 = stepper.stage(t, state, y)
        k2, y2 = stepper.stage(t + 0.5 * h, state + 0.5 * h * k1, y1)
        k3, y3 = stepper.stage(t + 0.5 * h, state + 0.5 * h * k2, y2)
        k4, y4 = stepper.stage(t + h, state + h * k3, y3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        y = stepper.resolve(t, state, y4)
        if record_nodes:
            nodes.append(stepper.record(t, state, y))
            times.append(t)
    return t, state, y, times, nodes


def _steps_for(span_len, h):
    nsteps = int(round(span_len / h))
    if nsteps < 1 or abs(nsteps * h - span_len) > 1e-9 * max(1.0, span_len):
        raise ValueError(f"step {h!r} does not divide the span length {span_len!r}")
    return nsteps


def integrate(
    prob,
    lam: float,
    x0,
    y0=None,
    span=None,
    h: Optional[float] = None,
    *,
    xdot0=None,
    mode: str = "raw",
) -> Trajectory:
    """Integrate a problem at fixed ``lam`` and return the node trajectory.

    ``y0=None`` solves the constraint for the algebraic start from a zero
    guess.  ``mode='fixed'`` integrates the transformed system instead and
    pulls the result back, so both modes return original-coordinate
    trajectories and are directly comparable.
    """
    if mode not in ("raw", "fixed"):
        raise ValueError(f"unknown integration mode {mode!r}")
    t0, t1 = (0.0, prob.period) if span is None else span
    h = prob.period / DEFAULT_STEPS if h is None else h
    nsteps = _steps_for(t1 - t0, h)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if y0 is None:
        y0 = consistent_init(prob, t0, x0, np.zeros(prob.s))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    start_residual = norm_inf(
        np.atleast_1d(prob.g(prob.A(t0) @ x0, prob.B(t0) @ y0))
    )
    if start_residual > 1e-8:
        raise ValueError(
            f"initial state violates the constraint (residual {start_residual:.3e}); "
            "pass y0=None to solve for a consistent start"
        )
    if prob.order == 1:
        xdot0 = None
    else:
        xdot0 = np.zeros(prob.m) if xdot0 is None else np.atleast_1d(np.asarray(xdot0, float))

    if mode == "raw":
        stepper, start = _RawStepper(prob, lam), (x0, y0, xdot0)
    else:
        sys = fixed_frame(prob)
        stepper, start = _FixedStepper(sys, lam), sys.push_forward(t0, x0, y0, xdot0)
    pos0, alg0, vel0 = start
    state0 = pos0 if vel0 is None else np.concatenate([pos0, vel0])
    _, _, _, times, nodes = _march(stepper, t0, state0, alg0, h, nsteps, True)
    return _nodes_to_trajectory(times, nodes)


def _nodes_to_trajectory(times, nodes) -> Trajectory:
    # Nodes are (x, y, xdot, ydot) in original coordinates, with None
    # velocities for order 1.
    columns = (None if col[0] is None else np.array(col) for col in zip(*nodes))
    return Trajectory(np.asarray(times, dtype=float), *columns)


class _ShootingRunner:
    """Caches the transformed system and runs fixed-frame flows.

    The shooting unknown is the initial frame state (``xi0`` for order 1,
    ``(xi0, xidot0)`` for order 2); the algebraic block is recovered from
    the autonomous constraint, so periodicity of ``eta`` is checked a
    posteriori rather than solved for.
    """

    def __init__(self, prob, nsteps: int = DEFAULT_STEPS):
        self.prob = prob
        self.sys = fixed_frame(prob)
        self.nsteps = int(nsteps)
        self.h = prob.period / self.nsteps
        self.state_dim = prob.order * prob.m

    def flow(self, lam, state0, record=False):
        # One period from a float state; returns
        # (eta0, end_state, eta_end, times, nodes).
        stepper = _FixedStepper(self.sys, lam)
        eta0 = stepper.solve(0.0, state0[: self.prob.m], np.zeros(self.prob.s))
        _, end, eta_end, times, nodes = _march(
            stepper, 0.0, state0, eta0, self.h, self.nsteps, record
        )
        return eta0, end, eta_end, times, nodes

    def shoot(self, lam, state0):
        state0 = np.asarray(state0, dtype=float)
        return self.flow(lam, state0)[1] - state0

    def make_tpair(self, lam, state0) -> TPair:
        _, _, _, times, nodes = self.flow(lam, np.asarray(state0, dtype=float), record=True)
        traj = _nodes_to_trajectory(times, nodes)
        periodicity = traj.periodicity_residual()
        constraint = traj.constraint_residual(self.prob)
        if periodicity > PERIODICITY_TOL:
            raise NoConvergenceError(
                f"periodicity residual {periodicity:.3e} exceeds {PERIODICITY_TOL:g}"
            )
        if constraint > CONSTRAINT_TOL:
            raise NoConvergenceError(
                f"constraint residual {constraint:.3e} exceeds {CONSTRAINT_TOL:g}"
            )
        xi0 = np.asarray(state0, dtype=float)[: self.prob.m].copy()
        dev = max(norm_inf(traj.x - traj.x[0]), norm_inf(traj.y - traj.y[0]))
        return TPair(
            lam=float(lam),
            trajectory=traj,
            xi0=xi0,
            periodicity_residual=periodicity,
            constraint_residual=constraint,
            is_trivial=bool(lam == 0.0 and dev <= TRIVIAL_TOL),
        )


def shooting_residual(prob, lam: float, xi0, nsteps: int = DEFAULT_STEPS,
                      *, return_eta_gap: bool = False):
    """Fixed-frame period-map mismatch ``state(T) - state(0)``.

    For order-1 problems the unknown is ``xi0``; order-2 problems take the
    stacked ``(xi0, xidot0)``.  With ``return_eta_gap=True`` the residual
    of the recovered algebraic block, ``||eta(T) - eta(0)||``, is returned
    alongside, from the same march.
    """
    state0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    eta0, end, eta_end, _, _ = _ShootingRunner(prob, nsteps).flow(lam, state0)
    res = end - state0
    return (res, norm_inf(eta_end - eta0)) if return_eta_gap else res


def find_tpair(prob, lam: float, xi0_guess, nsteps: int = DEFAULT_STEPS) -> TPair:
    """Newton on the shooting residual, returning an accepted TPair.

    At ``lam = 0`` the period map is often the identity (full-rotation
    frames), making the shooting Jacobian singular; the guess is then
    integrated once and accepted if already periodic, without Newton.
    """
    runner = _ShootingRunner(prob, nsteps)
    state0 = np.atleast_1d(np.asarray(xi0_guess, dtype=float))
    if lam == 0.0:
        res = runner.shoot(lam, state0)
        if norm_inf(res) > PERIODICITY_TOL:
            raise SingularMonodromyError(
                "shooting at lam = 0 is degenerate and the guess is not periodic "
                f"(residual {norm_inf(res):.3e})"
            )
        return runner.make_tpair(lam, state0)
    cfg = NewtonConfig(max_iters=30, tol_residual=1e-10)
    try:
        sol = newton_solve(lambda z: runner.shoot(lam, z), None, state0, cfg)
    except SingularJacobianError as exc:
        raise SingularMonodromyError(str(exc)) from exc
    return runner.make_tpair(lam, sol)


def _trivial_tpair(runner: _ShootingRunner, seed: np.ndarray) -> TPair:
    # The seed is a candidate-map zero: drift annihilates xi0 and the
    # constraint holds, so the constant frame state is a solution at lam=0.
    prob = runner.prob
    m = prob.m
    xi0, eta0 = seed[:m], seed[m:]
    vel = () if prob.order == 1 else (np.zeros(m), np.zeros(prob.s))
    times = np.arange(runner.nsteps + 1) * runner.h
    nodes = [runner.sys.pull_back(t, xi0, eta0, *vel) for t in times]
    traj = _nodes_to_trajectory(times, nodes)
    dev = max(norm_inf(traj.x - traj.x[0]), norm_inf(traj.y - traj.y[0]))
    return TPair(
        lam=0.0,
        trajectory=traj,
        xi0=np.asarray(xi0, dtype=float).copy(),
        periodicity_residual=traj.periodicity_residual(),
        constraint_residual=traj.constraint_residual(prob),
        is_trivial=bool(dev <= TRIVIAL_TOL),
    )


def _least_squares_newton(fun, x0, tol=1e-10, max_iter=30):
    # Gauss-Newton with a Tikhonov floor; corrector fallback for the
    # (expected) singular shooting Jacobian near lam = 0.
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        r = np.atleast_1d(fun(x))
        if norm_inf(r) <= tol:
            return x
        j = fd_jacobian(fun, x, f0=r)
        jtj = j.T @ j
        mu = 1e-12 * max(norm_inf(jtj), 1.0)
        x = x + solve_linear(jtj + mu * np.eye(x.size), -(j.T @ r))
    r = np.atleast_1d(fun(x))
    if norm_inf(r) <= tol:
        return x
    raise NoConvergenceError(f"least-squares corrector stalled at {norm_inf(r):.3e}")


def _branch_tangent(shoot_fn, z, t_prev):
    # Nullspace direction of the (m x m+1) residual Jacobian, computed by
    # central differences and oriented along the previous tangent.
    j = fd_jacobian(shoot_fn, z, central=True)
    a = np.vstack([j, t_prev])
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


def continue_branch(
    prob,
    seed,
    ds: float,
    nsteps: int,
    box: Box,
    *,
    integration_steps: int = DEFAULT_STEPS,
) -> Branch:
    """Trace a branch of T-pairs from a candidate-map zero.

    ``seed`` lives in (xi, eta) space and must be a zero of the candidate
    map; the traced polyline lives in ``(lam, xi0)`` space, which is what
    ``box`` bounds.  The first corrected point is taken at ``lam = ds``
    (not 0) with the trivial state as predictor, because the period map at
    ``lam = 0`` may be the identity.  ``lam`` is clamped to be nonnegative
    and the march direction starts toward increasing ``lam``.
    """
    runner = _ShootingRunner(prob, integration_steps)
    seed = np.atleast_1d(np.asarray(seed, dtype=float))
    cmap = candidate_map(runner.sys)
    if norm_inf(cmap(seed)) > SEED_TOL:
        raise SeedRejectedError(
            f"seed is not a candidate-map zero (residual {norm_inf(cmap(seed)):.3e})"
        )
    if box.dim != 1 + runner.state_dim:
        raise ValueError(
            f"continuation box must live in (lam, state) space of dim {1 + runner.state_dim}"
        )
    pairs = [_trivial_tpair(runner, seed)]
    m = prob.m
    state_seed = np.concatenate([seed[:m], np.zeros(runner.state_dim - m)])
    ds = float(ds)

    # First step: fixed lam = ds, correct the state only.
    cfg = NewtonConfig(max_iters=25, tol_residual=1e-10)
    first_res = lambda st: runner.shoot(ds, st)
    try:
        state1 = newton_solve(first_res, None, state_seed, cfg)
    except SingularJacobianError:
        try:
            state1 = _least_squares_newton(first_res, state_seed)
        except NoConvergenceError:
            return Branch(pairs=pairs, seed=seed, termination="solver_failure", ds=ds, state_dim=prob.m)
    except NoConvergenceError:
        return Branch(pairs=pairs, seed=seed, termination="solver_failure", ds=ds, state_dim=prob.m)
    pairs.append(runner.make_tpair(ds, state1))

    z_prev = np.concatenate([[0.0], state_seed])
    z = np.concatenate([[ds], state1])
    chord = z - z_prev
    tangent = chord / np.sqrt(chord @ chord) if norm_inf(chord) > 0 else np.eye(z.size)[0]
    shoot_fn = lambda w: runner.shoot(w[0], w[1:])
    termination = "budget"
    for _ in range(nsteps - 1):
        tangent = _branch_tangent(shoot_fn, z, tangent)
        accepted = None
        step = ds
        for _ in range(2):  # one halved retry on corrector failure
            z_pred = z + step * tangent
            if z_pred[0] < 0.0:
                accepted = "lambda_boundary"
                break
            aug = lambda w: np.concatenate(
                [shoot_fn(w), [float(tangent @ (w - z_pred))]]
            )
            try:
                w = newton_solve(aug, None, z_pred, NewtonConfig(max_iters=15, tol_residual=1e-10))
                accepted = w
                break
            except (NoConvergenceError, SingularJacobianError):
                step *= 0.5
        if accepted is None:
            termination = "solver_failure"
            break
        if isinstance(accepted, str):
            termination = accepted
            break
        w = accepted
        if w[0] < 0.0:
            termination = "lambda_boundary"
            break
        if not box.contains(w):
            termination = "left_box"
            break
        try:
            pairs.append(runner.make_tpair(w[0], w[1:]))
        except NoConvergenceError:
            termination = "solver_failure"
            break
        z_prev, z = z, w
    return Branch(pairs=pairs, seed=seed, termination=termination, ds=ds, state_dim=prob.m)


def branch_seeds(prob, box: Box, grid: int = 5, quad_n: int = 64) -> List[ZeroRecord]:
    """Zeros of the seeding map inside ``box``, with local degree signs.

    The candidate map seeds branches when the constant drift of the
    transformed system is nonzero; when the drift vanishes (no frame
    product, no commuting drift) its first block would be identically
    zero, and the averaged map takes its place.
    """
    sys = fixed_frame(prob)
    if norm_inf(sys.D0) <= 1e-8:
        fun = averaged_map_fn(prob, quad_n, warn=False)
    else:
        fun = candidate_map(sys)
    return locate_zeros(fun, box, grid)
