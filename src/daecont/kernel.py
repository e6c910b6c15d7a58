"""The half-explicit RK4 march on Python floats, in either coordinate system.

A march spends its time in small-array arithmetic: 2x2 mat-vecs, 1x1
and 2x2 solves and a scalar constraint Newton per stage.  On numpy
arrays each of those is a dispatch that costs far more than the few
flops it does, so the march runs on Python floats instead, in
straight-line code emitted per problem: every vector and matrix is
unrolled into local names, so the code has no loops over ``m`` or ``s``
(loops over them in plain Python were measured slower than numpy), and
the model's expression trees are inlined at every place the march needs
a model value (``f``, ``df``, ``g``, ``d1g``, ``d2g``, ``dgdot``), with the
stage's own locals as their variables.

The march makes no call per stage.  Each RK step is one loop over its
four stages that runs the one stage body inline: stage 1's inputs and
the first term of the RK sum ``((k1 + 2 k2) + 2 k3) + k4`` are assigned,
later stages add theirs, and the constraint re-solve that ends a step
(and, raw, the node's record) is inline too.

Each value a stage sets has a level: *march* when it reads no stage
input, *time* when it reads the stage time or the frame, and *node*
otherwise (the constraint Newton, and its Jacobian, raw its ``g_q``,
unless that is march-level, see :func:`_newton`).  An inlined model
takes the level of the arguments its trees read (none: march, ``t``
alone: time), a model called through the adapter is node-level, and any
other value takes the highest level of the values it reads.  On the
reduced ``semilinear_4x4``, the Newton's Jacobian (raw: ``g_q``),
``g_p``, ``g_q`` and ``e = -g_q^-1 g_p`` are march-level, ``J = df`` and
the sensitivity matrix ``K`` time-level.  March-level lines run once, at
the start of the function that reads them: a march runs them after it
reads its start frame and before its start node and first step, a start
solve before its Newton, so one that fails raises before any step.  Time-level lines run, in their
place among the node's lines, only when the stage time is not the
previous stage's (under ``if fresh:``: a step has two new stage times,
since stage 1 has the time of the step before's stage 4 and stages 2
and 3 share the midpoint).  The bits are those of a stage that does all
its work.  A solve is split into factor lines (the pivot test, and the
2x2 determinant) and apply lines, and a stage factors each matrix once:
a later solve with it or its transpose reads its determinant.

The type of the model picks the coordinates (see :class:`March`).  A
fixed-frame system solves the autonomous constraint for ``eta``, drifts
by ``D0``/``D1`` and pulls its nodes back; a problem marches raw: it
solves ``g(A(t) x, B(t) y) = 0`` for ``y`` (Jacobian ``g_q B``), drifts
by ``H`` (order 2: ``H2``/``H1``) and does not conjugate ``f``.  The
Newton, the solves and the order-2 rate are one emitter, and the
coordinate change is the fixed frame's alone, so raw against fixed checks
it.  The emitted code keeps these rules:

- the constraint Newton (:func:`_newton`, with its polish iteration,
  stops, typed errors and messages) is the package's only one: the
  stages and every start solve (:meth:`March.resolve`) run it;
- 1x1 and 2x2 solves are :func:`~daecont.linalg.solve_linear`'s closed
  forms with their pivot tests, and larger ones call it;
- a non-finite constraint residual at a non-finite state blames the
  state, and in the frame a non-finite forcing value is named at the
  model call, before ``A(t) f`` would turn an inf into a NaN (raw, it
  enters the rate, as it did in the numpy raw march).

The fixed-frame forcing ``F = A(t) f`` of a node has one emitter too: the
stage's lines, and the plain build's ``forcing``, one loop over pairs of
a time and its frame at a constant frame node (frame velocities zero)
that sums each component of ``F`` in order and divides by the count: the
mean that the averaged map of :mod:`daecont.degree` reads, one call per
map value.  A fixed-frame build's ``records`` pulls the nodes of a march
back in one loop too, with a record's lines per node (for order 2 the
``etadot`` solve, the pull-back and the constraint residual of the
pulled-back floats), so a trajectory costs one call and comes back as
flat lists of floats.

Sums of products are plain float sums, where numpy's BLAS may fuse a
multiply-add: a value can differ from a numpy march in the last bit (the
test suite holds both coordinate systems to numpy marches, and the
averaged map to a numpy forcing, within 1e-13).

A model compiled from expression trees carries their fragment target
(see :class:`~daecont.expressions.Fragments`), whose statements the
kernel inlines: they evaluate the entries in the order the compiled
function does and raise its :class:`NonfiniteResultError` on a failed
evaluation, so inlined and called models give the same bits and errors.
Any other model (a Python callable, or a derivative that the problem
forms by differences) is called through an adapter that passes numpy
arrays and returns a flat list.  A march reads the frames (one flat
tuple of floats per time) of its ``2N + 1`` times (:func:`march_times`)
from one iterator that its caller fills by the frame function of the
march's coordinates (:attr:`March.frames`); in the frame each node
carries its frame to the records.  :func:`frame_function` is emitted
here too: one loop over the times of straight-line code over the
fragments of the paths' value and derivative functions, with their
finiteness test and, for the fixed frame's ``d(B^-1)``, the march's
solves (paths without fragments keep their numpy values).  A sensitivity
march (fixed frame only) carries the derivative of the state with
respect to ``(lam, state0)`` in the rows after row 0, which is the plain
march's arithmetic, bit for bit (see :mod:`daecont.periodic`).

A kernel is emitted and compiled at the first march, start solve or
averaged map that needs it, never at set-up, and kept in a bounded cache
keyed by what its source is emitted from: the problem's shape, the march
kind and the fragments, so that every parse of one problem shares one
kernel.  Its source is 166 to 413 lines on the fixtures.  One entry
keeps the compiled code of its build function, 8 to 23 KB on the
fixtures (measured with tracemalloc as what compiling and running the
build source leaves allocated: 14 KB for the sensitivity kernel of
``rotating_surface``, 23 KB for that of ``rotating_surface_2nd``), and
the fragments of its key with their trees, a few KB more; compiling one
peaks at 1.6 MB.  Frame functions (0.7 to 2.8 KB of source each) are
emitted at their first use and cached the same way.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np

from .errors import EvaluationError, NoConvergenceError, NonfiniteResultError, SingularMatrixError
from .expressions import Fragments, _define
from .linalg import PIVOT_REL, solve_linear
from .paths import inverse_derivative
from .transform import TransformedSystem

__all__ = ["March", "frame_function", "march_times", "model_errors", "CONSTRAINT_SOLVE_TOL", "CONSTRAINT_SOLVE_MAX_ITER"]

CONSTRAINT_SOLVE_TOL = 1e-12
CONSTRAINT_SOLVE_MAX_ITER = 40

# The names the emitted code reads.  solve_linear's 1x1 pivot test,
# |a| < PIVOT_REL * max(|a|, 1e-300) or a == 0, is |a| < _TINY.
_GLOBALS = {
    "np": np, "solve_linear": solve_linear, "isfinite": math.isfinite,
    "EvaluationError": EvaluationError, "NoConvergenceError": NoConvergenceError,
    "NonfiniteResultError": NonfiniteResultError, "SingularMatrixError": SingularMatrixError,
    "_TOL": CONSTRAINT_SOLVE_TOL, "_MAX_ITER": CONSTRAINT_SOLVE_MAX_ITER,
    "_PIVOT_REL": PIVOT_REL, "_TINY": PIVOT_REL * 1e-300, "_INF": math.inf, "_NAN": math.nan,
    **Fragments.GLOBALS,
}

# the model values a march reads, in the order the build function takes them
_MODELS = ("f", "df", "g", "d1g", "d2g", "dgdot")


def model_errors(method):
    """``method`` inside the error boundary of a march and its start solve:
    a model's ``ValueError`` or ``ArithmeticError`` (a Python callable's,
    numpy's) leaves as :class:`EvaluationError` naming its class and
    message, chained to it."""
    @functools.wraps(method)
    def guarded(*args):
        try:
            return method(*args)
        except (ValueError, ArithmeticError) as exc:
            raise EvaluationError(f"model raised {type(exc).__name__}: {exc}") from exc

    return guarded


class March:
    """One stepper of the half-explicit RK4 march of ``model`` at ``lam``.

    A :class:`~daecont.transform.TransformedSystem` marches in its frame,
    a problem in original coordinates (raw).  States are flat sequences of
    floats: positions first, then (order 2) velocities; with
    ``sensitivity`` (fixed frame only) the ``n + 2`` rows of the state and
    its derivatives by ``lam`` and by the start state follow one another
    (``n = order * m``).  The algebraic block is a sequence of ``s``
    floats, ``eta`` in the frame and ``y`` raw.

    ``frames`` is :func:`frame_function` of the model's paths at its order
    in the march's coordinates (in the frame, the one with ``d(B^-1)``),
    by which the caller fills the frames of :meth:`march` and
    :meth:`mean_forcing`; fixed-frame nodes carry theirs to :meth:`records`.

    A ``ValueError`` or ``ArithmeticError`` that a model raises in
    :meth:`resolve`, :meth:`march` or :meth:`records` (a Python callable's
    own, or numpy's) becomes :class:`EvaluationError` naming its class and
    message, chained with ``from``.
    """

    def __init__(self, model, lam, sensitivity: bool = False):
        self.raw = not isinstance(model, TransformedSystem)
        functions, inlined = _models(model)
        build = _build(model.order, model.m, model.s, bool(sensitivity), self.raw, inlined)
        if not self.raw:
            drifts = (model.D0, model.D1)
        else:
            drifts = (model.H, None) if model.order == 1 else (model.H2, model.H1)
        # an absent drift is zero (D1 is read for order 2 only)
        drifts = [np.zeros(model.m**2).tolist() if d is None
                  else np.asarray(d, dtype=float).ravel().tolist() for d in drifts]
        self.m = model.m
        self.frames = frame_function(model.A, model.B, model.order, fixed=not self.raw)
        self._resolve, self._march, self._records, self._forcing = build(*functions, *drifts, float(lam))

    @model_errors
    def resolve(self, t, state, eta_guess) -> tuple:
        """The algebraic block at ``state``'s positions, from ``eta_guess``.

        In the frame it solves ``g(xi, eta) = 0`` for ``eta``; raw it solves
        ``g(A(t) x, B(t) y) = 0`` for ``y`` on the frame at ``t``.  The
        Newton's rules and errors are the march's (see :func:`_newton`).
        """
        frame = (next(self.frames((t,))),) if self.raw else ()
        return self._resolve(t, *frame, *state[: self.m], *eta_guess)

    def mean_forcing(self, pairs, xi, eta) -> tuple:
        """The mean over ``pairs`` of ``F(t, xi, eta) = A(t) f(t, x, y[, xdot, ydot])``.

        Plain fixed-frame march only: the stage's forcing at the constant
        frame node ``(xi, eta)``, pulled back with frame velocities zero for
        order 2 (so the original velocities are those of the moving frame),
        for each ``(t, frame)`` of ``pairs`` (``frame`` the fixed frame at
        ``t``), in one call that loops over them.  Each component is the
        float sum of its values in the order of ``pairs`` divided by their
        count, the bits of :func:`~daecont.linalg.quadrature_periodic` at
        its nodes.  A non-finite ``f`` raises :class:`NonfiniteResultError`
        naming ``t`` and the value.
        """
        return self._forcing(pairs, *xi, *eta)

    @model_errors
    def march(self, state, eta, h, frames):
        """``(nodes, end)`` of the steps of size ``h`` from ``(state, eta)`` at 0.

        ``nodes`` holds every node, start first: ``(t, state, eta, frame)``
        in the frame (the state's row 0, and the node's fixed frame), and
        ``(t, x, y, xdot, ydot)`` raw.  ``end`` is the whole end state.  A
        stage whose constraint solve fails ends the march with its error.
        ``frames`` are those of :func:`march_times`, by :attr:`frames`: the
        start's, then each step's midpoint and end, which the step reads when
        it starts, ``N`` steps for ``2N + 1`` frames (an iterator is read no
        further than the step that fails).
        """
        return self._march(0.0, float(h), frames, *state, *eta)

    @model_errors
    def records(self, nodes) -> tuple:
        """``(times, x, y, xdot, ydot, residuals)`` of frame nodes in original coordinates.

        Fixed frame only (a raw march's nodes are their records): one call
        pulls back every node ``(t, state, eta, frame)`` (the state's row 0)
        on its own frame, for order 2 after its ``etadot`` is solved from the
        constraint.  Each column is one flat list, node after node: the
        times, the entries of ``x``, ``y`` and, for order 2, ``xdot`` and
        ``ydot`` (None for order 1), and the constraint residual
        ``max|g(A(t) x, B(t) y)|`` of each node's pulled-back floats.  The
        first node that fails raises.
        """
        return self._records(nodes)


def _models(model):
    # The functions the build is given and the fragments its source
    # inlines, for the _MODELS of a system or a problem.  A model compiled
    # from trees is inlined, and its slot gets None; any other one is called
    # on numpy arrays through an adapter that returns a flat list (a matrix
    # row by row).  dgdot is None for order 1.
    functions = (model.f, model.f_jac, model.g, model.g_jac1, model.g_jac2,
                 getattr(model, "gdot_jac", None))
    inlined = tuple(getattr(getattr(model, name, None), "fragments", None) for name in _MODELS)
    return [None if fn is None or own is not None else _adapter(fn)
            for fn, own in zip(functions, inlined)], inlined


def _adapter(model):
    # model called on numpy arrays, its value returned as a flat list
    def adapter(*args):
        args = [np.array(a) if type(a) is list else a for a in args]
        return np.asarray(model(*args), dtype=float).ravel().tolist()

    return adapter


@functools.lru_cache(maxsize=128)  # a certify pass uses about 75 kernels
def _build(order, m, s, sensitivity, raw, inlined):
    # The build function of one kernel, emitted and compiled once.
    return _define(_emit(_Models(inlined), order, m, s, sensitivity, raw), _GLOBALS, "build")


def frame_function(a_path, b_path, order: int, fixed: bool = False):
    """``frames(times)``: a generator of the frames of the paths at ``times``.

    A frame is one flat tuple of floats: the entries of ``A(t)`` and
    ``B(t)`` and, for order 2, of ``dA(t)`` and of ``dB(t)``, or with
    ``fixed`` of the derivative ``-B^-1 dB B^-1`` of ``B(t)^-1``, each
    matrix row by row, as a raw march and the transform's audit (``fixed``
    false) or a fixed-frame march reads it.  Each time is read when
    its frame is asked for, so the first failing time raises its error and
    no later one is read; one time's frame is ``next(frames((t,)))``.  Paths
    compiled from trees get one emitted loop over the times, cached by their
    fragments, in which each distinct call on the time alone (``cos(t)``)
    runs once per time.  It gives the bits of the paths' numpy values and of
    :func:`~daecont.paths.inverse_derivative` (by the march's closed-form
    solves), and their errors: a failed evaluation raises the compiled
    function's :class:`NonfiniteResultError`, a non-finite entry
    :class:`EvaluationError` naming the path, and with ``fixed`` a singular
    ``B`` :class:`SingularMatrixError`.  Other paths (Python callables,
    differenced derivatives) are called as arrays, time by time.
    """
    fixed = bool(fixed) and order == 2
    fragments = _frame_fragments(a_path, b_path, order)
    if fragments is None:
        return _numpy_frames(a_path, b_path, order, fixed)
    build = _frame_build(a_path.dim, b_path.dim, fixed, fragments)
    return build(a_path.name or "<anonymous>", b_path.name or "<anonymous>")


def march_times(h, nsteps):
    """A march's ``2 nsteps + 1`` times: 0, then each step's midpoint and end, summed as it steps."""
    t, hh = 0.0, 0.5 * h
    yield t
    for _ in range(nsteps):
        yield t + hh
        t = t + h
        yield t


def _frame_fragments(a_path, b_path, order):
    # the fragments of A and B and, for order 2, of dA and dB; None unless all have them
    fragments = tuple(path.fragments(k) for k in range(order) for path in (a_path, b_path))
    return None if any(f is None for f in fragments) else fragments


def _numpy_frames(a_path, b_path, order, fixed):
    # the frames of paths without fragments, from their arrays
    def frames(times):
        for t in times:
            mats = (a_path(t), b_path(t))
            if order == 2:
                da, db = a_path(t, 1), b_path(t, 1)
                mats += (da, inverse_derivative(mats[1], db) if fixed else db)
            yield tuple(np.concatenate([x.ravel() for x in mats]).tolist())

    return frames


@functools.lru_cache(maxsize=128)
def _frame_build(m, s, fixed, fragments):
    # build(a_name, b_name) -> frames(t) of one frame function, emitted and
    # compiled once
    return _define(_emit_frames(m, s, fixed, fragments), _GLOBALS, "build")


def _emit_frames(m, s, fixed, fragments):
    # The source of a frame function's build, one loop over the times: each
    # matrix (A, B, dA, dB) by its fragments, then MatrixPath's finiteness
    # test of it, in the order the numpy route evaluates them; d(B^-1) as
    # inverse_derivative solves it, X = solve(B, dB), -solve(B.T, X.T).T.
    mats = [_mat(name, dim, dim) for name, dim in zip(("A", "B", "dA", "dB"), (m, s, m, s))]
    mats = mats[: len(fragments)]
    body = ["t = float(t)"]
    for rows, fragment, label in zip(mats, fragments, ("a_name", "b_name") * 2):
        flat = sum(rows, [])
        finite = " + ".join(f"{v}*0.0" for v in flat)
        body += fragment.statements(flat, "t")
        body += [f"if not {finite} == 0.0:",
                 f"    raise EvaluationError(f'path {{{label}}} returned non-finite entries')"]
    if fixed:
        b, db = mats[1], mats[3]
        factor, apply, x = _solve(b, _t(db), "bx")
        body += factor + apply
        factor, apply, y = _solve(_t(b), _t(x), "by")
        body += factor + apply
        mats[3] = [[f"(-{v})" for v in row] for row in y]
    body, entries = _once_per_time(body), f"({_unrolled(sum(sum(mats, []), []))})"
    return "\n".join(["def build(a_name, b_name):", "    def frames(times):",
                      "        for t in times:",
                      *(f"            {line}" for line in body),
                      f"            yield {entries}",
                      "    return frames", ""])


_TIME_CALL = re.compile(r"\bmath\.\w+\(t\)")  # a call on the time alone


def _once_per_time(lines):
    # Each distinct call on the time alone evaluated once: at its first
    # place in the lines, where an assignment expression names it, and read
    # by that name after.  The statements run in order, left to right, so
    # the bits, and the first call that raises, stay where they were.
    names = {}

    def once(match):
        call = match.group()
        if call in names:
            return names[call]
        names[call] = f"tc{len(names)}"
        return f"({names[call]} := {call})"

    return [_TIME_CALL.sub(once, line) for line in lines]


# -- emitted source ------------------------------------------------------------
#
# Vectors are lists of names or parenthesized expressions, matrices lists of
# rows; the helpers return source fragments or lines of statements.

# The levels of the values a stage sets (see _at_levels): a march-level
# value reads no stage input, a time-level one reads the stage time or the
# frame, a node-level one the stage's node.
MARCH, TIME, NODE = 0, 1, 2
_NAME = re.compile(r"\b[A-Za-z_]\w*")
_FIELD = re.compile(r"\{(\w+)")  # the argument of a field of a Fragments template


class _Models:
    """The march's model values as lines: a model with fragments is inlined,
    any other is called."""

    def __init__(self, inlined):
        self.fragments = dict(zip(_MODELS, inlined))

    def __call__(self, name, targets, *args):
        """The lines that set ``targets`` to the flat value of model ``name``
        at ``args`` (each a list of local names, or one name)."""
        if self.fragments[name] is not None:
            return self.fragments[name].statements(targets, *args)
        listed = ", ".join(a if isinstance(a, str) else "[" + ", ".join(a) + "]" for a in args)
        return [f"{_unrolled(targets)} = {name}({listed})"]

    def read(self, name, args):
        """The local names of the ones of ``args`` that model ``name`` reads:
        those a template of its fragments has a field of, or all of a called
        model."""
        fragments = self.fragments[name]
        if fragments is not None:
            fields = {field for template in fragments.templates for field in _FIELD.findall(template)}
            args = [arg for arg, bound in zip(args, fragments.args) if bound in fields]
        return [v for arg in args for v in ([arg] if isinstance(arg, str) else arg)]


class _Lines:
    """The lines of one emitted body, each with its level, and the level of
    every name they set.

    A value takes the highest level of the names it reads, and a model value
    that of the arguments it reads (see :meth:`_Models.read`): a name that
    no line here has set is node-level (the stage's inputs, and what the
    constraint Newton sets), but for the stage time ``t`` (time) and the
    march's constants ``lam``, ``D0_`` and ``D1_`` (march).  A matrix is
    factored once (see :meth:`solve`).
    """

    def __init__(self, models, m):
        self.models = models
        self.lines = []  # (level, line)
        constants = sum(_mat("D0_", m, m) + _mat("D1_", m, m), ["lam"])
        self.levels = {"t": TIME, **dict.fromkeys(constants, MARCH)}
        self.dets = {}  # a matrix factored here, and its transpose -> its determinant's name

    @property
    def text(self):
        return [line for _, line in self.lines]

    def level(self, *exprs):
        return max((self.levels.get(name, NODE) for e in exprs for name in _NAME.findall(e)),
                   default=MARCH)

    def add(self, level, lines, names=()):
        self.lines += [(level, line) for line in lines]
        self.levels.update(dict.fromkeys(names, level))

    def set(self, names, exprs):
        # name = expr for each pair, at the level of all of exprs
        self.add(self.level(*exprs), [f"{n} = {e}" for n, e in zip(names, exprs)], names)
        return names

    def let(self, name, rows):
        # set every entry of a matrix to name<i>_<j>: its names
        names = _mat(name, len(rows), len(rows[0]))
        self.set(sum(names, []), sum(rows, []))
        return names

    def model(self, name, targets, *args):
        # a march-level value is set once: the raw Newton's march-level
        # g_q is the order-2 rate's
        level = self.level(*self.models.read(name, args))
        if level > MARCH or any(self.levels.get(v) != MARCH for v in targets):
            self.add(level, self.models(name, targets, *args), targets)

    def solve(self, a, cols, name):
        """The rows of the solution of ``a x = c`` for each column ``c`` of
        ``cols`` (see :func:`_solve`).

        The factor lines come with the first solve of ``a`` or ``a.T`` here,
        at ``a``'s level, and later ones read its determinant (the 2x2
        determinant of ``a.T`` is that of ``a``, bit for bit); the apply
        lines take the level of ``a`` and ``cols``.
        """
        key = min(tuple(map(tuple, a)), tuple(map(tuple, _t(a))))
        det = self.dets.get(key)
        factor, apply, sol = _solve(a, cols, name, det=det)
        level = self.level(*sum(a, []))
        if det is None:
            self.dets[key] = f"{name}_det"
            self.add(level, factor)
        self.add(max(level, self.level(*sum(cols, []))), apply, sum(sol, []))
        return sol


def _vec(name, n):
    return [f"{name}{i}" for i in range(n)]


def _mat(name, rows, cols):
    return [[f"{name}{i}_{j}" for j in range(cols)] for i in range(rows)]


def _unrolled(values):
    # ``a, b, c`` of a list of names; a trailing comma for one
    return ", ".join(values) + ("," if len(values) == 1 else "")


def _dot(u, v):
    terms = [f"{a}*{b}" for a, b in zip(u, v)]
    return terms[0] if len(terms) == 1 else "(" + " + ".join(terms) + ")"


def _matvec(rows, v):
    return [_dot(row, v) for row in rows]


def _t(rows):
    return [list(col) for col in zip(*rows)]


def _matmul(a, b):
    return [[_dot(row, col) for col in _t(b)] for row in a]


def _add(*mats):
    # entry-wise left-to-right sum of equally shaped matrices
    return [["(" + " + ".join(entries) + ")" for entries in zip(*rows)] for rows in zip(*mats)]


def _solve(a, cols, name, on_singular=(), det=None):
    """The factor lines, the apply lines and the solution columns' names
    ``<name><column>_<entry>`` of ``a x = c`` for each column ``c`` of ``cols``.

    The closed forms and pivot tests of :func:`~daecont.linalg.solve_linear`
    for 1x1 and 2x2, a call to it otherwise (all apply lines).  The factor
    lines read ``a`` alone: the pivot test, and the 2x2 determinant, named
    ``det`` (default ``<name>_det``).  ``on_singular`` runs before a
    singular system raises.
    """
    n = len(a)
    det = det or f"{name}_det"
    names = [[f"{name}{c}_{i}" for i in range(n)] for c in range(len(cols))]
    guard = [f"    {line}" for line in on_singular]
    lines, test = _pivot_test(a, det)
    factor = lines + ([f"if {test}:", *guard, f"    {_singular(n)}"] if test else [])
    if n == 1:
        return factor, [f"{x[0]} = {c[0]} / {a[0][0]}" for x, c in zip(names, cols)], names
    if n == 2:
        (a00, a01), (a10, a11) = a
        apply = []
        for x, (c0, c1) in zip(names, cols):
            apply += [f"{x[0]} = ({a11}*{c0} - {a01}*{c1}) / {det}",
                      f"{x[1]} = ({a00}*{c1} - {a10}*{c0}) / {det}"]
        return factor, apply, names
    matrix = "[" + ", ".join("[" + ", ".join(row) + "]" for row in a) + "]"
    rhs = "[" + ", ".join("[" + ", ".join(c[i] for c in cols) + "]" for i in range(n)) + "]"
    apply = ["try:", f"    {name} = solve_linear(np.array({matrix}), np.array({rhs})).tolist()",
             "except SingularMatrixError:", *guard, "    raise"]
    apply += [f"{x[i]} = {name}[{i}][{c}]" for c, x in enumerate(names) for i in range(n)]
    return factor, apply, names


def _pivot_test(a, det):
    # The lines that factor a (the 2x2 determinant, named det) and
    # solve_linear's pivot test on them, a condition that holds when a is
    # singular; no test for 3x3 and larger, which solve_linear makes.  The
    # 2x2 bound squares by a product, as numpy's ** 2 does: a float power
    # raises OverflowError where the product is inf
    n = len(a)
    if n == 1:
        return [], f"abs({a[0][0]}) < _TINY"
    if n == 2:
        (a00, a01), (a10, a11) = a
        bound = f"({det}_b := _PIVOT_REL * max(abs({a00}), abs({a01}), abs({a10}), abs({a11}), 1e-300))"
        return [f"{det} = {a00}*{a11} - {a01}*{a10}"], f"abs({det}) < {bound} * {det}_b or {det} == 0.0"
    return [], None


def _singular(n):
    return f"raise SingularMatrixError('{n}x{n} system is singular')"


def _norm(r):
    # lines for rn, numpy's max of |r| (NaN if any entry is)
    if len(r) == 1:
        return [f"rn = abs({r[0]})"]
    nan = " or ".join(f"{v} != {v}" for v in r)
    return ["rn = max(" + ", ".join(f"abs({v})" for v in r) + ")", f"if {nan}:", "    rn = _NAN"]


def _newton(call, xi, s, frame=None):
    """``(once, lines)``: lines that solve ``g(xi, q) = 0`` for ``q0..`` from
    their warm start, and the march-level lines they read.

    Raw (``frame`` the names of ``A`` and ``B``) they solve ``g(A xi, B q)
    = 0`` with the Jacobian ``g_q B``, and name ``A xi`` ``p0..`` and ``B
    q`` ``w0..``.  A plain Newton: the algebraic block is locally unique,
    so a warm start on the right branch needs no globalization.  The
    rules: a warm start inside the tolerance still gets one polish
    iteration (skipping it leaves an O(tol) error that unstable flows can
    amplify far past the tolerance of the differential block), the
    residual norm is numpy's max (NaN if any entry is), a non-finite
    residual ends the solve (Newton cannot recover from a model value that
    overflowed; at a non-finite state the error blames the state, where an
    earlier value overflowed without raising), and a singular ``dg/dq``
    inside the tolerance keeps the iterate.

    A march-level ``d2g`` (see :func:`_constant_jacobian`) is ``once``,
    which the caller runs at the start of its march or start solve, and the
    loop reads it.  In the frame, where it is the Jacobian, ``once`` holds
    its lines, its 2x2 determinant and its pivot test as ``dq_singular``;
    raw, it holds the lines of ``g_q``, and each iteration sets ``g_q B``.
    Otherwise ``once`` is empty and each iteration sets the Jacobian.
    """
    q, r = _vec("q", s), _vec("r", s)
    p, arg, at_p, at_q = xi, q, [], []
    if frame is not None:
        p, arg = _vec("p", len(xi)), _vec("w", s)
        at_p = [f"{v} = {e}" for v, e in zip(p, _matvec(frame[0], xi))]
        at_q = [f"{w} = {e}" for w, e in zip(arg, _matvec(frame[1], q))]
    jac, constant = _mat("j", s, s), _constant_jacobian(call)
    once, jac_lines = [], call("d2g", sum(jac, []), p, arg)
    if frame is not None:
        gq = _mat("gq", s, s)
        d2g = call("d2g", sum(gq, []), p, arg)
        once, jac_lines = (d2g, []) if constant else ([], d2g)
        jac_lines += [f"{v} = {e}" for v, e in zip(sum(jac, []), sum(_matmul(gq, frame[1]), []))]
    on_singular = ["if rn <= _TOL:", "    break"]
    factor, apply, (step,) = _solve(jac, [r], "dq", on_singular)
    if constant and frame is None:
        lines, test = _pivot_test(jac, "dq_det")
        once, jac_lines = jac_lines + lines + ([f"dq_singular = {test}"] if test else []), []
        factor = ["if dq_singular:", *(f"    {line}" for line in on_singular), f"    {_singular(s)}"] if test else []
    residual = call("g", r, p, arg) + _norm(r)
    body = [
        "if rn == 0.0 or (rn <= _TOL and it > 0):",
        "    break",
        "if not rn < _INF:",
        "    raise NonfiniteResultError(f'constraint residual is {rn}: a model value is not finite')",
        *jac_lines,
        *factor,
        *apply,
        *(f"{qi} = {qi} - {d}" for qi, d in zip(q, step)),
        *at_q,
        *residual,
    ]
    solve = [
        *at_p,
        *at_q,
        *residual,
        "for it in range(_MAX_ITER):",
        *(f"    {line}" for line in body),
        "else:",
        "    if not rn <= _TOL:",
        "        raise NoConvergenceError(",
        "            f'constraint solve stalled at residual {rn:.3e} (tol {_TOL:.1e})')",
    ]
    state = "[" + ", ".join(xi) + "]"
    return once, ["try:", *(f"    {line}" for line in solve),
                  "except NonfiniteResultError:",
                  f"    if {' and '.join(f'isfinite({v})' for v in xi)}:",
                  "        raise",
                  "    raise NonfiniteResultError(",
                  f"        f'state {{{state}}} at t = {{t!r}} is not finite: a model value overflowed'",
                  "    ) from None"]


def _constant_jacobian(models):
    # whether the constraint Newton's d2g is march-level: it reads neither
    # of its arguments (in the frame it is the Jacobian, raw g_q of g_q B)
    return not models.read("d2g", ("p", "q"))


def _frame_names(order, m, s, raw=False):
    # the unpacking line of a frame tuple, its names, and the names of A, B
    # and, for order 2, dA and d(B^-1) (raw: dB)
    a, b = _mat("A", m, m), _mat("B", s, s)
    da, dbi = (_mat("dA", m, m), _mat("dB" if raw else "dBi", s, s)) if order == 2 else (None, None)
    flat = sum(a + b + (da + dbi if order == 2 else []), [])
    return f"{_unrolled(flat)} = fr", flat, a, b, da, dbi


def _rate(body, order, m, s, frame=None):
    """Set ``g_p``, ``g_q`` and, for order 2, the algebraic block's rate
    (names ``ed*``) at the resolved node in ``body``; return ``g_p, g_q``.

    In the frame ``etadot = solve(g_q, -(g_p @ u))``.  Raw (``frame`` the
    names of ``A``, ``B``, ``dA`` and ``dB``, with ``p = A x`` and ``w = B
    y`` named), ``ydot = solve(g_q B, -(g_p (dA x + A u) + g_q dB y))``; the
    raw Newton sets ``g_q`` too, at its iterates, or once where it is
    march-level, and the rate then reads the Newton's.
    """
    p, at = (_vec("xi", m), _vec("q", s)) if frame is None else (_vec("p", m), _vec("w", s))
    gp, gq = _mat("gp", s, m), _mat("gq", s, s)
    body.model("d1g", sum(gp, []), p, at)
    body.model("d2g", sum(gq, []), p, at)
    if order == 1:
        return gp, gq
    u, c, matrix = _vec("u", m), _vec("c", s), gq
    if frame is None:
        body.set(c, [f"-{e}" for e in _matvec(gp, u)])
    else:
        a, b, da, db = frame
        pd = [f"({e} + {f})" for e, f in zip(_matvec(da, _vec("xi", m)), _matvec(a, u))]
        bd = [f"({e})" for e in _matvec(db, _vec("q", s))]
        body.set(c, [f"-({e} + {f})" for e, f in zip(_matvec(gp, pd), _matvec(gq, bd))])
        matrix = body.let("jb", _matmul(gq, b))
    (ed,) = body.solve(matrix, [c], "ed")
    body.set(_vec("ed", s), ed)
    return gp, gq


def _pull_back(body, order, m, s, a, b, da, dbi):
    """Set the original-coordinate node ``x, y[, xd, yd]`` of the frame node
    ``xi, q[, u, ed]`` in ``body``: ``x = A.T xi``, ``y = B^-1 q``, and for
    order 2 ``xd = dA.T xi + A.T u``, ``yd = dB^-1 q + B^-1 ed``."""
    # numpy's matmul sums from +0.0, so a sum of -0.0 products is 0.0
    # there; adding 0.0 changes only that sign, and nodes print as before
    matvec = lambda rows, v: [f"({e} + 0.0)" for e in _matvec(rows, v)]
    xi, q = _vec("xi", m), _vec("q", s)
    sol = body.solve(b, [q] if order == 1 else [q, _vec("ed", s)], "bs")
    body.set(_vec("x", m), matvec(_t(a), xi))
    body.set(_vec("y", s), sol[0])
    if order == 2:
        body.set(_vec("xd", m), [f"{e} + {f}" for e, f in zip(matvec(_t(da), xi), matvec(_t(a), _vec("u", m)))])
        body.set(_vec("yd", s), [f"{e} + {v}" for e, v in zip(matvec(dbi, q), sol[1])])


def _node_args(order, m, s, raw=False):
    # the forcing's vector arguments: a raw stage's node is its state, q and rate
    x, y, xd, yd = ("xi", "q", "u", "ed") if raw else ("x", "y", "xd", "yd")
    return [_vec(x, m), _vec(y, s)] + ([_vec(xd, m), _vec(yd, s)] if order == 2 else [])


def _forcing(body, order, m, s, a, b, da, dbi):
    """Set the frame forcing ``F0..`` of the frame node ``xi, q[, u, ed]`` in
    ``body``: the node pulled back, ``v = f(t, x, y[, xd, yd])``, and ``F =
    A v``.  A non-finite ``v`` raises before ``A v``, whose zero entries
    would turn an inf into a NaN."""
    v = _vec("v", m)
    finite = " + ".join(f"{x}*0.0" for x in v)
    _pull_back(body, order, m, s, a, b, da, dbi)
    body.model("f", v, "t", *_node_args(order, m, s))
    body.add(body.level(*v), [
        f"if not {finite} == 0.0:",
        f"    raise NonfiniteResultError(f'forcing f at t = {{t!r}} is {{[{', '.join(v)}]}}: "
        "a model value is not finite')"])
    body.set(_vec("F", m), _matvec(a, v))


def _stage(models, order, m, s, sensitivity, raw=False):
    """The lines of one stage at ``t`` from the inputs ``xi, u`` (row 0),
    ``z<r>_`` (rows ``r >= 1``) and the warm start ``q``, with their levels
    (a :class:`_Lines`): the rates ``k<r>_<i>`` of every state entry, and
    ``q`` resolved.

    The frame's unpacking from ``fr`` is time-level.  A raw stage is the
    fixed one without the coordinate change: it solves the moving
    constraint, its node is its state, and ``f`` enters the rate
    unconjugated and unchecked (a non-finite value makes the next state
    non-finite, which the next solve blames).
    """
    body = _Lines(models, m)
    xi, u = _vec("xi", m), _vec("u", m)
    unpack, flat, a, b, da, dbi = _frame_names(order, m, s, raw)
    once, solve = _newton(models, xi, s, (a, b) if raw else None)
    body.add(MARCH, once, sum(_mat("gq", s, s), []) if raw and once else ())
    if raw:
        body.add(TIME, [unpack], flat)
        body.add(NODE, solve)
        if order == 2:
            _rate(body, order, m, s, (a, b, da, dbi))
        force = _vec("v", m)
        body.model("f", force, "t", *_node_args(order, m, s, raw))
    else:
        body.add(NODE, solve)
        gp, gq = _rate(body, order, m, s) if (order == 2 or sensitivity) else (None, None)
        body.add(TIME, [unpack], flat)
        _forcing(body, order, m, s, a, b, da, dbi)
        force = _vec("F", m)
    d0, d1 = _mat("D0_", m, m), _mat("D1_", m, m)
    drift = _matvec(d0, xi)
    if order == 2:
        drift = [f"({e} + {g})" for e, g in zip(drift, _matvec(d1, u))]
    out = (u if order == 2 else []) + [f"{e} + lam*{f}" for e, f in zip(drift, force)]
    body.set(_vec("k0_", len(out)), out)
    if sensitivity:
        _sensitivity(body, order, m, s, a, b, da, dbi, gp, gq)
    return body


def _sensitivity(body, order, m, s, a, b, da, dbi, gp, gq):
    """Set the rates ``k<r>_<i>`` of the sensitivity rows ``r >= 1`` from
    their inputs ``z<r>_<i>`` in ``body``.

    ``dk = K dstate + [F | 0]``: ``K`` is the Jacobian of the stage rate
    along the constraint, with ``e = d eta / d xi = -g_q^-1 g_p`` (and, for
    order 2, ``w = d etadot / d xi``) at the resolved node; the forcing
    ``F`` enters row 1, the derivative by ``lam``.  Products are taken left
    to right, as numpy's are.
    """
    n = order * m
    negated = lambda rows: [[f"(-{v})" for v in row] for row in rows]
    jac = _mat("J", m, n + order * s)  # df by (x, y[, xd, yd])
    body.model("df", sum(jac, []), "t", *_node_args(order, m, s))
    f_x, f_y = [row[:m] for row in jac], [row[m : m + s] for row in jac]
    e = body.let("e", negated(_t(body.solve(gq, _t(gp), "ge"))))
    fy_b = body.solve(_t(b), f_y, "fyb")  # f_y B^-1: B.T solved for the rows of f_y
    if order == 1:
        f_xi = body.let("fxi", _matmul(body.let("af", _matmul(a, f_x)), _t(a)))
        f_eta = body.let("feta", _matmul(a, fy_b))
        k0 = _add(f_xi, _matmul(f_eta, e))
    else:
        f_u, f_v = [row[m + s : 2 * m + s] for row in jac], [row[2 * m + s :] for row in jac]
        fv_b = body.solve(_t(b), f_v, "fvb")
        gdot = _mat("gd", s, m + s)
        body.model("dgdot", sum(gdot, []), _vec("xi", m), _vec("q", s), _vec("u", m), _vec("ed", s))
        rhs = body.let("wr", _add([row[:m] for row in gdot], _matmul([row[m:] for row in gdot], e)))
        w = body.let("w", negated(_t(body.solve(gq, _t(rhs), "gw"))))
        inner = _add(body.let("fxa", _matmul(f_x, _t(a))), body.let("fua", _matmul(f_u, _t(da))))
        f_xi = body.let("fxi", _matmul(a, inner))
        f_eta = body.let("feta", _matmul(a, _add(fy_b, body.let("fvd", _matmul(f_v, dbi)))))
        f_xid = body.let("fxid", _matmul(body.let("af", _matmul(a, f_u)), _t(a)))
        f_etad = body.let("fetad", _matmul(a, fv_b))
        k0 = _add(_add(f_xi, _matmul(f_eta, e)), _matmul(f_etad, w))
        k1 = body.let("L", [[f"D1_{i}_{j} + lam*{v}" for j, v in enumerate(row)]
                            for i, row in enumerate(_add(f_xid, _matmul(f_etad, e)))])
    k0 = body.let("K", [[f"D0_{i}_{j} + lam*{v}" for j, v in enumerate(row)] for i, row in enumerate(k0)])
    for r in range(1, n + 2):
        d = _vec(f"z{r}_", n)
        force = [f" + F{i}" if r == 1 else "" for i in range(m)]
        if order == 1:
            body.set(_vec(f"k{r}_", m), [f"{v}{force[i]}" for i, v in enumerate(_matvec(k0, d))])
            continue
        acc = [f"{v} + {w}" for v, w in zip(_matvec(k0, d[:m]), _matvec(k1, d[m:]))]
        body.set(_vec(f"k{r}_", n), d[m:] + [f"{v}{force[i]}" for i, v in enumerate(acc)])


def _at_levels(lines):
    """``(once, lines)``: the march-level lines of a stage, and its other
    lines with each run of time-level ones under ``if fresh:``.

    ``fresh`` holds when the stage time ``t`` is not the time of the stage
    before (``t_seen``), so time-level work runs once per stage time, in
    its place among the node's lines; the march runs ``once`` before its
    first step.
    """
    once = [line for level, line in lines if level == MARCH]
    out = ["fresh = t is not t_seen", "t_seen = t"]
    rest = (line for line in lines if line[0] != MARCH)
    for level, run in itertools.groupby(rest, key=lambda line: line[0]):
        run = [line for _, line in run]
        out += run if level == NODE else ["if fresh:", *(f"    {line}" for line in run)]
    return once, out


def _emit(models, order, m, s, sensitivity, raw):
    # The source of the build function: the march's model values through
    # models (see _Models)
    n = order * m
    rows = n + 2 if sensitivity else 1
    q = _vec("q", s)
    state = [f"s{r}_{i}" for r in range(rows) for i in range(n)]
    # a stage's inputs: row 0 is xi, u; row r >= 1 is z<r>_
    inputs = _vec("xi", m) + _vec("u", n - m) + [f"z{r}_{i}" for r in range(1, rows) for i in range(n)]
    rates = [f"k{r}_{i}" for r in range(rows) for i in range(n)]
    sums = [f"ks{r}_{i}" for r in range(rows) for i in range(n)]
    d0 = _unrolled(sum(_mat("D0_", m, m), []))
    d1 = _unrolled(sum(_mat("D1_", m, m), []))
    src = ["def build(f, df, g, d1g, d2g, dgdot, D0, D1, lam):",
           f"    {d0} = D0"]
    if order == 2:
        src.append(f"    {d1} = D1")
    unpack, _, a, b, da, dbi = _frame_names(order, m, s, raw)
    tup = lambda names: "(" + _unrolled(names) + ")"
    xis = _vec("xi", m)
    once, solve = _newton(models, xis, s, (a, b) if raw else None)
    # a raw solve reads the frame of its time, which the march passes
    src += [f"    def resolve(t, {'fr, ' * raw}{', '.join(xis + q)}):",
            *([f"        {unpack}"] if raw else []),
            *(f"        {line}" for line in once + solve),
            f"        return {_unrolled(q)}", ""]
    if not raw:
        # records: row 0 and q of each node, on its frame, to its time, x,
        # y[, xd, yd] and the constraint residual max|g(A x, B y)| of the
        # pulled-back floats, one loop over the nodes; columns are flat lists
        rec = _Lines(models, m)
        rec.add(NODE, [unpack])
        if order == 2:
            _rate(rec, order, m, s)
        _pull_back(rec, order, m, s, a, b, da, dbi)
        ax, by, r = _vec("ax", m), _vec("by", s), _vec("r", s)
        rec.set(ax, _matvec(a, _vec("x", m)))
        rec.set(by, _matvec(b, _vec("y", s)))
        rec.add(NODE, models("g", r, ax, by) + _norm(r))
        columns = dict(zip(("xs", "ys", "xds", "yds"), _node_args(order, m, s)))
        src += ["    def records(nodes):",
                f"        times, rns, {', '.join(columns)} = {', '.join(['[]'] * (len(columns) + 2))}",
                f"        for t, ({_unrolled(inputs[:n])}), ({_unrolled(q)}), fr in nodes:",
                *(f"            {line}" for line in rec.text),
                "            times.append(t)",
                *(f"            {col} += ({_unrolled(v)})" for col, v in columns.items()),
                "            rns.append(rn)",
                f"        return times, {', '.join(columns)}{', None, None' if order == 1 else ''}, rns", ""]
    forcing = not raw and not sensitivity
    if forcing:
        # forcing: the mean of F at a constant frame node over (t, fr)
        # pairs, frame velocities zero (a plain build's alone: the averaged
        # map builds no sensitivity kernel); each component is summed in
        # order from -0.0, the identity of float addition, then divided by
        # the count
        force = _Lines(models, m)
        force.add(NODE, [unpack])
        _forcing(force, order, m, s, a, b, da, dbi)
        means = _vec("Fm", m)
        zero = _vec("u", m) + _vec("ed", s) if order == 2 else []
        src += [f"    def forcing(pairs, {', '.join(xis + q)}):",
                *(f"        {v} = 0.0" for v in zero),
                f"        {' = '.join(means)} = -0.0",
                "        for t, fr in pairs:",
                *(f"            {line}" for line in force.text),
                *(f"            {v} = {v} + {f}" for v, f in zip(means, _vec("F", m))),
                f"        return {tup([f'{v} / len(pairs)' for v in means])}", ""]
    # march: a step loops over its stages, each advancing the RK sum and
    # the next stage's inputs (stage 4: the new state, which is the next
    # stage 1's), then re-solves q; a raw node's rate reads the frame the
    # solve read, and sets the stage's time-level names to the values they
    # hold (the node has stage 4's time, which the next stage 1 keeps): its
    # march-level ones are the stage's, which the march sets at its start
    node_rate = []
    if raw and order == 2:
        rate = _Lines(models, m)
        rate.set(_vec("p", m), _matvec(a, xis))
        rate.set(_vec("w", s), _matvec(b, q))
        _rate(rate, order, m, s, (a, b, da, dbi))
        node_rate = [line for level, line in rate.lines if level > MARCH]
    velocities = (f"{tup(_vec('u', m))}, {tup(_vec('ed', s))}" if order == 2 else "None, None")
    node = f"(t, {tup(xis)}, {tup(q)}, {velocities})" if raw else f"(t, {tup(inputs[:n])}, {tup(q)}, fr)"
    entries = list(zip(state, inputs, rates, sums))
    # fr_mid and fr_end, a step's frames, come from the march's one iterator
    advance = ["if stage == 4:",
               *(f"    {v} = {x} = {v} + h6*({acc} + {k})" for v, x, k, acc in entries),
               "    break",
               "if stage == 1:", *(f"    {acc} = {k}" for _, _, k, acc in entries),
               "    t = mid",
               "    fr = fr_mid",
               "else:", *(f"    {acc} = {acc} + 2.0*{k}" for _, _, k, acc in entries),
               "    if stage == 3:",
               "        t = end",
               "        fr = fr_end",
               *(f"{x} = {v} + c*{k}" for v, x, k, _ in entries)]
    once, stage = _at_levels(_stage(models, order, m, s, sensitivity, raw).lines)
    src += [f"    def march(t, h, frames, {', '.join(state + q)}):",
            "        hh = 0.5 * h",
            "        h6 = h / 6.0",
            "        stages = ((1, hh), (2, hh), (3, h), (4, None))",
            "        frames = iter(frames)",
            "        fr = next(frames)",
            *(f"        {line}" for line in once),
            *(f"        {line}" for line in
              [f"{_unrolled(inputs)} = {_unrolled(state)}"] + ([unpack] if node_rate else []) + node_rate),
            f"        nodes = [{node}]",
            "        append = nodes.append",
            "        t_seen = None",
            "        for fr_mid, fr_end in zip(frames, frames):",
            "            mid = t + hh",
            "            end = t + h",
            "            for stage, c in stages:",
            *(f"                {line}" for line in stage + advance),
            *(f"            {line}" for line in solve + node_rate),
            f"            append({node})",
            f"        return nodes, {tup(state)}", ""]
    src += [f"    return resolve, march, {'None' if raw else 'records'}, {'forcing' if forcing else 'None'}", ""]
    return "\n".join(src)
