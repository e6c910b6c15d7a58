"""Periodic solutions of moving-constraint DAEs: integration, shooting,
and pseudo-arclength continuation.

Integration is half-explicit: the differential variables advance with
classical RK4 while the algebraic ones are re-solved from the constraint
at every stage (warm-started Newton).  One stepper runs the scheme in
either coordinate system, which differ only in how the algebraic block
and its rate are solved and in how a node maps to original coordinates:

- raw: original coordinates, moving constraint ``g(A(t) x, B(t) y) = 0``;
- fixed: frame coordinates, autonomous constraint and constant drifts;
  the start is pushed into the frame by
  :class:`~daecont.transform.TransformedSystem` and the nodes are pulled
  back by the march's records.

Both modes return original-coordinate trajectories.  Each solves the
algebraic start with its own stepper (:meth:`~daecont.kernel.March.resolve`,
the one constraint Newton of the package): raw for ``y``, in the frame
for ``eta`` at the pushed-forward start.

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
the tangent and the accepted pair's nodes: a pair costs no march of its
own, and its constraint residual comes with the nodes' records.  That
march is most often a plain one: a point within ``JACOBIAN_REUSE * (1 +
|z|_inf)`` of the runner's last sensitivity march (a corrector's last
step is a few 1e-6 long) gets a plain march and that march's Jacobian,
the Jacobian reuse of Newton-like correctors (Allgower and Georg).
Residuals and pairs keep their bits; a Newton step or a tangent there
reads a Jacobian up to the radius away.

Every march, raw or fixed-frame, plain or sensitivity, runs on Python
floats in code emitted per problem (:mod:`daecont.kernel`), and the
model it is given picks the coordinates.  A march reads the frames of
its ``2N + 1`` step and midpoint times from one iterator that its caller
passes (see :class:`~daecont.kernel.March`).  A shooting runner fills
its one grid at first use for every march of a branch and the trivial
pair, and each fixed-frame node carries its frame to the records.  A
raw ``integrate`` passes the frame function's generator, so the march
reads each frame as it steps and keeps nothing, after a test of ``B`` on
the audit grid; a fixed-frame one fills its frames first, as the first
pushes the start forward.  Both check a given algebraic start on the
raw frame at 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .degree import Box, ZeroRecord, locate_zeros, seeding_map
from .errors import (
    DaecontError,
    NoConvergenceError,
    SeedRejectedError,
    SingularJacobianError,
    SingularMatrixError,
    SingularMonodromyError,
)
from .kernel import March, frame_function, march_times, model_errors
from .linalg import NewtonConfig, newton_solve, norm_inf, solve_linear
from .transform import _check_invertible, _frame_samples, _matrices, fixed_frame

__all__ = [
    "Trajectory",
    "TPair",
    "Branch",
    "consistent_init",
    "integrate",
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
LSQ_TOL = 1e-10
LSQ_MAX_ITER = 30
_FIRST_STEP = NewtonConfig(max_iters=25, tol_residual=1e-10)
_CORRECTOR = NewtonConfig(max_iters=15, tol_residual=1e-10)
JACOBIAN_REUSE = 1e-5  # relative max-norm radius of a Jacobian's reuse (see linearize)


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
        """Largest ``|last node - first node|`` entry of ``x``, ``y`` and the
        velocities; NaN if any is."""
        columns = (self.x, self.y, self.xdot, self.ydot)
        return _max([norm_inf(c[-1] - c[0]) for c in columns if c is not None])

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


def consistent_init(prob, t0: float, x0: np.ndarray, y_guess: np.ndarray) -> np.ndarray:
    """Solve ``g(A(t0) x0, B(t0) y) = 0`` for y starting from ``y_guess``.

    The raw march's constraint Newton (:meth:`~daecont.kernel.March.resolve`)
    on the frame of the problem, or of a transformed system's problem.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).tolist()
    y_guess = np.atleast_1d(np.asarray(y_guess, dtype=float)).tolist()
    return np.array(March(getattr(prob, "problem", prob), 0.0).resolve(float(t0), x0, y_guess))


def _steps_for(span_len, h):
    # ValueError unless h is positive and divides the span into 1..MAX_STEPS
    # steps (the cap before the rounding: inf has no int)
    if not h > 0:
        raise ValueError(f"step {h!r} is not positive")
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
    sys = fixed_frame(prob) if mode == "fixed" else prob
    stepper = March(sys, lam)
    frames = frame_function(prob.A, prob.B, prob.order)  # the raw frame
    if mode == "raw":
        # the transform's test of B, which names the time of a singular B;
        # an A that fails the frame audit still marches
        times, _, b = _frame_samples(prob, frames=frames)[:3]
        _check_invertible(b, times)
    if y0 is not None:
        y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        a0, b0 = _matrices(next(frames((0.0,))), (prob.m, prob.s))
        # a model error here leaves as the march's would
        start_residual = norm_inf(np.atleast_1d(model_errors(prob.g)(a0 @ x0, b0 @ y0)))
        if start_residual > 1e-8:
            raise ValueError(
                f"initial state violates the constraint (residual {start_residual:.3e}); "
                "pass y0=None to solve for a consistent start"
            )
    xdot0 = None if prob.order == 1 else np.zeros(prob.m)
    grid = stepper.frames(march_times(h, nsteps))  # raw, read as the march steps
    if mode == "fixed":  # filled first: the start is pushed forward on its first frame
        grid = list(grid)
        x0, y0, xdot0 = sys.push_forward(grid[0], x0, y0, xdot0)
    state0 = (x0 if xdot0 is None else np.concatenate([x0, xdot0])).tolist()
    y0 = stepper.resolve(0.0, state0, [0.0] * prob.s) if y0 is None else y0.tolist()
    nodes, _ = stepper.march(state0, y0, h, grid)
    return _trajectory(stepper, nodes)[0]


def _trajectory(stepper, nodes):
    # The Trajectory of the nodes of stepper's march, None velocities for
    # order 1, and the largest constraint residual of a fixed-frame march's
    # records (NaN if any is; None raw).  Raw nodes are their own records,
    # (t, x, y, xdot, ydot); the frame's come from one records call.
    if stepper.raw:
        times, *columns = zip(*nodes)
        arrays = (None if col[0] is None else np.array(col) for col in columns)
        return Trajectory(np.array(times, dtype=float), *arrays), None
    times, *columns, residuals = stepper.records(nodes)
    arrays = (None if col is None else np.array(col).reshape(len(times), -1) for col in columns)
    return Trajectory(np.array(times, dtype=float), *arrays), _max(residuals)


def _max(values) -> float:
    # the largest of values, NaN if any is (Python's max keeps a NaN only first)
    return float(np.max(values))


class _ShootingRunner:
    """Keeps the fixed-frame system of ``prob`` and runs its marches.

    The shooting unknown is the initial frame state (``xi0`` for order 1,
    ``(xi0, xidot0)`` for order 2); the algebraic block is recovered from
    the autonomous constraint, so periodicity of ``eta`` is checked a
    posteriori rather than solved for.

    Every march runs the runner's one :attr:`grid` on its one system
    (``prob`` may be that system already).  The runner also keeps the
    nodes of one march, :meth:`linearize`'s last, for :meth:`make_tpair`,
    and the point of its last sensitivity march for Jacobian reuse.
    """

    def __init__(self, prob, nsteps: int = DEFAULT_STEPS):
        self.prob = prob
        self.nsteps = int(nsteps)
        self.h = prob.period / self.nsteps
        self.state_dim = prob.order * prob.m
        self.sys = fixed_frame(prob)
        self._last = (None,) * 5  # linearize's (key, residual, jacobian, stepper, nodes)
        self._fresh = None  # the point of the last sensitivity march

    @functools.cached_property
    def grid(self):
        """The ``2N + 1`` :func:`~daecont.kernel.march_times` and the system's
        fixed frames at them, filled at first use by one frame-function call."""
        times = list(march_times(self.h, self.nsteps))
        return times, list(frame_function(self.sys.A, self.sys.B, self.sys.order, fixed=True)(times))

    def _run(self, stepper, start):
        # (nodes, end) of one period of stepper from start, a list of floats.
        eta0 = stepper.resolve(0.0, start, [0.0] * self.prob.s)
        return stepper.march(start, eta0, self.h, self.grid[1])

    def linearize(self, lam, state0):
        """Shooting residual and its Jacobian by ``(lam, state0)``.

        A sensitivity march gives both; the residual is its row 0, the
        plain march's arithmetic, bit for bit.  A point ``z = (lam,
        state0)`` within ``JACOBIAN_REUSE * (1 + |z|_inf)`` (max-norm) of
        the point of the runner's last sensitivity march gets a plain march
        instead, with that march's Jacobian: the Jacobian returned may be
        that of a point within the radius.  The result for the last point
        is kept, keyed by the exact bytes of ``z`` with its march's nodes:
        one Newton iterate's residual and Jacobian, and the tangent and pair
        at a converged point, share one march.  Do not modify the arrays.
        """
        state0 = np.asarray(state0, dtype=float)
        z = np.append(lam, state0)
        if z.tobytes() == self._last[0]:
            return self._last[1], self._last[2]
        if self._fresh is not None and norm_inf(z - self._fresh) < JACOBIAN_REUSE * (1.0 + norm_inf(z)):
            stepper = March(self.sys, lam)
            nodes, end = self._run(stepper, state0.tolist())
            residual, jacobian = np.array(end) - state0, self._last[2]
        else:
            n = self.state_dim
            stepper = March(self.sys, lam, sensitivity=True)
            start = state0.tolist() + [0.0] * n + np.eye(n).ravel().tolist()
            nodes, end = self._run(stepper, start)
            end = np.array(end).reshape(n + 2, n)
            residual, jacobian = end[0] - state0, end[1:].T - np.eye(n, n + 1, 1)
            self._fresh = z
        self._last = (z.tobytes(), residual, jacobian, stepper, nodes)
        return residual, jacobian

    def newton_maps(self, lam=None):
        """Residual and Jacobian callables for :func:`newton_solve`.

        The unknown is the start state at a fixed ``lam``, or ``(lam,
        state0)`` when ``lam`` is None.  Both read :meth:`linearize`, so the
        residual at a point within the reuse radius of the last sensitivity
        march costs a plain march, and the Jacobian there is that march's.
        """
        if lam is None:
            return (lambda z: self.linearize(z[0], z[1:])[0],
                    lambda z: self.linearize(z[0], z[1:])[1])
        return (lambda z: self.linearize(lam, z)[0],
                lambda z: self.linearize(lam, z)[1][:, 1:])

    def make_tpair(self, lam, state0) -> TPair:
        state0 = np.asarray(state0, dtype=float)
        self.linearize(lam, state0)  # no march right after the corrector that accepted the point
        pair = _tpair(lam, *_trajectory(*self._last[3:]), state0[: self.prob.m])
        for name, value, tol in (("periodicity", pair.periodicity_residual, PERIODICITY_TOL),
                                 ("constraint", pair.constraint_residual, CONSTRAINT_TOL)):
            if not value <= tol:  # a NaN residual fails too
                raise NoConvergenceError(f"{name} residual {value:.3e} exceeds {tol:g}")
        return pair


def _tpair(lam, traj: Trajectory, constraint_residual, xi0) -> TPair:
    # The one TPair assembly: residuals, and triviality at lam = 0.
    dev = max(norm_inf(traj.x - traj.x[0]), norm_inf(traj.y - traj.y[0]))
    return TPair(
        lam=float(lam),
        trajectory=traj,
        xi0=np.asarray(xi0, dtype=float).copy(),
        periodicity_residual=traj.periodicity_residual(),
        constraint_residual=constraint_residual,
        is_trivial=bool(lam == 0.0 and dev <= TRIVIAL_TOL),
    )


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
    # the constant frame state is a solution at lam=0.  Its nodes, at the
    # node times of the grid that the branch's marches read (every second
    # time), are recorded as a march's are, on their frames.
    times, frames = runner.grid
    m = runner.prob.m
    xi0, eta0 = seed[:m], seed[m:].tolist()
    state = xi0.tolist() + [0.0] * (runner.state_dim - m)
    nodes = [(t, state, eta0, fr) for t, fr in zip(times[::2], frames[::2])]
    return _tpair(0.0, *_trajectory(March(runner.sys, 0.0), nodes), xi0)


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

    ``prob`` is a problem or its fixed-frame system.  ``seed`` lives in
    (xi, eta) space and must be a zero of the
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
    local degree signs.  ``prob`` is a problem or its fixed-frame system."""
    return locate_zeros(seeding_map(fixed_frame(prob)), box, grid)
