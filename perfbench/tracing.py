"""Per-layer counters and timers attached to daecont from outside.

Only public names are wrapped: the functions each layer exports (patched
at every ``daecont`` module attribute that binds them, since consumer
modules import them by name), ``MatrixPath.__call__`` at class level, and
the model callables ``f``, ``g``, ``d1g`` and ``d2g`` of every problem that
``build_problem`` or ``reduce_semilinear`` returns.  Callables handed to
``newton_solve`` and ``fd_jacobian`` are wrapped too, so a march run as a
shooting residual gets its own span and does not count as Newton time.

Each wrapped call is a span.  Its self time is its duration minus the time
of the spans it encloses.  A group's time (``degree.s``, ``transform.s``,
...) counts only the outermost span of that group, so nested calls are not
counted twice.  Counts do not depend on timing, so two traced runs of one
seed give identical counts.

Regions tell callers apart: model calls made inside ``continue_branch`` are
in region ``periodic``, inside ``integrate`` in region ``integrate`` (one
forcing call per RK4 stage in both), and inside the degree layer
(``degree_*``, ``locate_zeros``, and so ``branch_seeds``) in region
``degree``.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

STAGES_PER_STEP = 4  # classical RK4
INTEGRATION_STEPS = 256  # default grid of every march the workloads run


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)  # (name, region) -> calls
        self.selfs = defaultdict(float)  # name -> self seconds
        self.group_s = defaultdict(float)  # group -> outermost seconds
        self.extra = defaultdict(float)  # free counters (iterations, columns, ...)
        self.region = None
        self.spans = []  # outermost group spans: [name, start, end, parent]
        self._child = [0.0]  # child time of each open span, root sentinel
        self._names = [None]  # names of open layer spans
        self._depth = defaultdict(int)
        self._open = [None]  # index in self.spans of the enclosing logged span
        self._patches = []
        self.t0 = time.perf_counter()

    # -- wrappers -------------------------------------------------------

    def hot(self, name, fn):
        """Counting and self-timing wrapper for calls made per stage."""
        if getattr(fn, "_traced", False):
            return fn
        child, counts, selfs = self._child, self.counts, self.selfs
        clock = time.perf_counter
        tracer = self

        def wrapped(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = child.pop()
                child[-1] += dur
                counts[name, tracer.region] += 1
                selfs[name] += dur - inner

        wrapped._traced = True
        return wrapped

    def layer(self, name, fn, group, *, region=None, hook=None, post=None):
        """Wrapper for a layer entry point: span, group time, failures."""
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            outer = self._depth[group] == 0
            self._depth[group] += 1
            prev_region = self.region
            if region is not None:
                self.region = region
            logged = outer and not group.startswith("linalg")
            if logged:
                index = len(self.spans)
                self.spans.append([name, clock() - self.t0, None, self._open[-1]])
                self._open.append(index)
            self._child.append(0.0)
            self._names.append(name)
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                if post is not None:
                    post(result)
                return result
            finally:
                dur = clock() - start
                inner = self._child.pop()
                self._names.pop()
                self._child[-1] += dur
                self.region = prev_region
                self.counts[name, prev_region] += 1
                if failed:
                    self.counts[name + ".failed", prev_region] += 1
                self.selfs[name] += dur - inner
                self._depth[group] -= 1
                if outer:
                    self.group_s[group] += dur
                if logged:
                    self.spans[self._open.pop()][2] = clock() - self.t0

        wrapped._traced = True
        return wrapped

    @contextlib.contextmanager
    def op(self, label):
        """Record one benchmark operation as a span."""
        self.spans.append([label, time.perf_counter() - self.t0, None, None])
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open.pop()][2] = time.perf_counter() - self.t0

    # -- hooks ------------------------------------------------------------

    def _wrap_model(self, prob):
        # Model callables of DaeProblem1/2 (SemiLinearDae has none; its
        # reduction returns a DaeProblem1 that is wrapped in turn).
        for attr, name in (("f", "expressions.f"), ("g", "expressions.g"),
                           ("d1g", "expressions.gjac"), ("d2g", "expressions.gjac")):
            fn = getattr(prob, attr, None)
            if callable(fn):
                setattr(prob, attr, self.hot(name, fn))

    def _newton_args(self, args, kwargs):
        args = list(args)
        residual_name = f"{self.region}.residual"
        if args:
            args[0] = self.hot(residual_name, args[0])
        if len(args) > 1 and args[1] is not None:
            args[1] = self.layer("linalg.jacobian", args[1], "linalg.jacobian",
                                 hook=self._count_iteration)
        return tuple(args), kwargs

    def _count_iteration(self, args, kwargs):
        if self._names[-1] == "linalg.newton":
            self.extra["linalg.newton_iters"] += 1
        return args, kwargs

    def _fdjac_args(self, args, kwargs):
        self._count_iteration(args, kwargs)
        x = args[1] if len(args) > 1 else kwargs["x"]
        self.extra["linalg.fdjac_cols"] += np.asarray(x).size
        args = (self.hot(f"{self.region}.residual", args[0]),) + tuple(args[1:])
        return args, kwargs

    def _count_zeros(self, result):
        zeros = result if isinstance(result, list) else result.zeros
        self.extra["degree.zeros"] += len(zeros)

    def _count_svd(self, args, kwargs):
        if self._depth["semilinear.svd"] == 0:
            self.extra["semilinear.svd_calls"] += 1
        return args, kwargs

    # -- patching -----------------------------------------------------------

    def _rebind(self, target, wrapper):
        # Replace every daecont module attribute bound to ``target``.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "daecont" or modname.startswith("daecont.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        import daecont.degree as degree
        import daecont.linalg as linalg
        import daecont.paths as paths
        import daecont.periodic as periodic
        import daecont.probfile as probfile
        import daecont.semilinear as semilinear
        import daecont.transform as transform

        def rebind(module, attr, make):
            target = getattr(module, attr, None)
            if target is not None:
                self._rebind(target, make(target))

        layer = self.layer
        rebind(linalg, "newton_solve",
               lambda fn: layer("linalg.newton", fn, "linalg.newton", hook=self._newton_args))
        rebind(linalg, "fd_jacobian",
               lambda fn: layer("linalg.fdjac", fn, "linalg.fdjac", hook=self._fdjac_args))
        rebind(linalg, "solve_linear", lambda fn: self.hot("linalg.solve", fn))
        for attr in ("fixed_frame_first", "fixed_frame_second"):
            rebind(transform, attr, lambda fn: layer("transform", fn, "transform"))
        rebind(periodic, "continue_branch",
               lambda fn: layer("periodic.continue", fn, "periodic.continue", region="periodic"))
        rebind(periodic, "integrate",
               lambda fn: layer("periodic.integrate", fn, "periodic.integrate", region="integrate"))
        rebind(periodic, "branch_seeds",
               lambda fn: layer("periodic.seed", fn, "periodic.seed", region="degree"))
        for attr in ("degree_generic", "degree_reduced", "locate_zeros"):
            rebind(degree, attr,
                   lambda fn: layer("degree", fn, "degree", region="degree", post=self._count_zeros))
        rebind(probfile, "parse_problem", lambda fn: layer("probfile.parse", fn, "probfile.parse"))
        rebind(probfile, "build_problem",
               lambda fn: layer("probfile.build", fn, "probfile.build", post=self._wrap_model))
        for attr in ("serialize", "to_json", "branch_to_csv", "problem_to_text"):
            rebind(probfile, attr, lambda fn: layer("probfile.emit", fn, "probfile.emit"))
        rebind(semilinear, "check_conditions", lambda fn: layer("semilinear", fn, "semilinear"))
        rebind(semilinear, "reduce_semilinear",
               lambda fn: layer("semilinear", fn, "semilinear", post=self._wrap_model))
        # The SVD the reduction uses: the hand-written one while it exists,
        # else numpy's, counted only inside the semilinear layer.
        rebind(linalg, "svd_small",
               lambda fn: layer("semilinear.svd", fn, "semilinear.svd", hook=self._count_svd))
        numpy_svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            if self._depth["semilinear"] and not self._depth["semilinear.svd"]:
                self.extra["semilinear.svd_calls"] += 1
            return numpy_svd(*args, **kwargs)

        self._patches.append((np.linalg, "svd", numpy_svd))
        np.linalg.svd = counted_svd
        self._rebind(numpy_svd, counted_svd)
        call = paths.MatrixPath.__call__
        self._patches.append((paths.MatrixPath, "__call__", call))
        paths.MatrixPath.__call__ = self.hot("paths", call)
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- report -------------------------------------------------------------

    def calls(self, name, region=any):
        return sum(n for (key, reg), n in self.counts.items()
                   if key == name and (region is any or reg == region))

    def metrics(self, nontrivial_pairs: int, emit_bytes: int) -> dict:
        c, s, g, x = self.calls, self.selfs, self.group_s, self.extra
        march_stages = STAGES_PER_STEP * INTEGRATION_STEPS
        stages = c("expressions.f", "periodic") + c("expressions.f", "integrate")
        branch_marches = c("expressions.f", "periodic") / march_stages
        starts = c("linalg.newton", "degree")
        converged = starts - c("linalg.newton.failed", "degree")
        return {
            "linalg.newton_calls": (c("linalg.newton"), "count"),
            "linalg.newton_iters": (int(x["linalg.newton_iters"]), "count"),
            "linalg.newton_failed": (c("linalg.newton.failed"), "count"),
            "linalg.fdjac_calls": (c("linalg.fdjac"), "count"),
            "linalg.fdjac_cols": (int(x["linalg.fdjac_cols"]), "count"),
            "linalg.newton_self_s": (s["linalg.newton"], "s"),
            "linalg.solve_calls": (c("linalg.solve"), "count"),
            "linalg.solve_self_s": (s["linalg.solve"], "s"),
            "periodic.stages": (stages, "count"),
            "periodic.marches": (stages / march_stages, "count"),
            "periodic.marches_per_pair": (branch_marches / max(nontrivial_pairs, 1), "ratio"),
            "periodic.march_self_s": (s["periodic.residual"], "s"),
            "periodic.continue_s": (g["periodic.continue"], "s"),
            "periodic.seed_s": (g["periodic.seed"], "s"),
            "periodic.integrate_s": (g["periodic.integrate"], "s"),
            "expressions.f_calls": (c("expressions.f"), "count"),
            "expressions.g_calls": (c("expressions.g"), "count"),
            "expressions.gjac_calls": (c("expressions.gjac"), "count"),
            "expressions.self_s": (sum(s[k] for k in ("expressions.f", "expressions.g",
                                                      "expressions.gjac")), "s"),
            "paths.calls": (c("paths"), "count"),
            "paths.self_s": (s["paths"], "s"),
            "transform.calls": (c("transform"), "count"),
            "transform.s": (g["transform"], "s"),
            "degree.starts": (starts, "count"),
            "degree.converged_ratio": (converged / starts if starts else 0.0, "ratio"),
            "degree.map_calls": (c("expressions.g", "degree"), "count"),
            "degree.zeros": (int(x["degree.zeros"]), "count"),
            "degree.s": (g["degree"], "s"),
            "probfile.parse_s": (g["probfile.parse"], "s"),
            "probfile.build_s": (g["probfile.build"], "s"),
            "probfile.emit_s": (g["probfile.emit"], "s"),
            "probfile.emit_bytes": (emit_bytes, "bytes"),
            "semilinear.s": (g["semilinear"], "s"),
            "semilinear.svd_calls": (int(x["semilinear.svd_calls"]), "count"),
        }
