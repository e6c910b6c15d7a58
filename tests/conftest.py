import os

# One BLAS/OpenMP thread, set before numpy is first imported: the small
# matrix products, eigendecompositions and reference scipy factorizations
# of the suite gain nothing from threads, and threaded OpenBLAS stalls
# when other processes compete for the cores.  The fresh interpreters of
# test_imports.py inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import collections

import pytest

from daecont import degree, expressions, kernel, periodic
from daecont.paths import MatrixPath


def _count_frames(monkeypatch, record):
    # record(path, t) at every evaluation of a path on any route: each call
    # of one of its functions at one time (a MatrixPath call, each
    # differenced sample of it) or at each node of a stack, each node of an
    # exponential frame's stack (one exponential for all its orders), or
    # each matrix that an emitted frame function evaluates (A and B, for
    # order 2 their rates too) at each time it reads.
    at, gather, stack = MatrixPath._at, MatrixPath._gather, MatrixPath.stack
    make = kernel.frame_function

    def counted_at(self, fn, t):
        record(self, t)
        return at(self, fn, t)

    def counted_gather(self, fn, times):
        for t in times:
            record(self, t)
        return gather(self, fn, times)

    def counted_stack(self, times, order=0):
        if self._closed is not None:
            for t in times:
                record(self, t)
        return stack(self, times, order)

    def counted_function(a_path, b_path, order, fixed=False):
        frames = make(a_path, b_path, order, fixed)
        if kernel._frame_fragments(a_path, b_path, order) is None:
            return frames  # the numpy route, which calls the paths
        paths = (a_path, b_path) * order

        def recorded(times):
            # each time as the frame function reads it, before its frame
            for t in times:
                for path in paths:
                    record(path, t)
                yield t

        return lambda times: frames(recorded(times))

    monkeypatch.setattr(MatrixPath, "_at", counted_at)
    monkeypatch.setattr(MatrixPath, "_gather", counted_gather)
    monkeypatch.setattr(MatrixPath, "stack", counted_stack)
    for module in (kernel, degree, periodic):  # each module that makes frame functions
        monkeypatch.setattr(module, "frame_function", counted_function)


@pytest.fixture
def path_calls(monkeypatch):
    """Every path evaluation from here on, as the list of paths evaluated."""
    calls = []
    _count_frames(monkeypatch, lambda path, t: calls.append(path))
    return calls


@pytest.fixture
def path_times(monkeypatch):
    """Every path evaluation from here on, as the list of times evaluated."""
    times = []
    _count_frames(monkeypatch, lambda path, t: times.append(t))
    return times


@pytest.fixture
def exec_calls(monkeypatch):
    """The number of expression functions compiled from here on, as a one-item list."""
    calls, run = [0], expressions._exec

    def counted(lines):
        calls[0] += 1
        return run(lines)

    monkeypatch.setattr(expressions, "_exec", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call of an emitted kernel function (``resolve``, ``march``,
    ``records`` or ``forcing``) from here on, counted by name."""
    calls, build = collections.Counter(), kernel._build

    def counted(fn):
        def call(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return call

    def counted_build(*key):
        made = build(*key)
        return lambda *args: tuple(fn and counted(fn) for fn in made(*args))

    monkeypatch.setattr(kernel, "_build", counted_build)
    return calls
