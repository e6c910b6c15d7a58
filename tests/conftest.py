import os

# One BLAS/OpenMP thread, set before numpy is first imported: the small
# expm and LU calls of the suite gain nothing from threads, and threaded
# OpenBLAS stalls when other processes compete for the cores.  The fresh
# interpreters of test_imports.py inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from daecont.paths import MatrixPath


@pytest.fixture
def path_calls(monkeypatch):
    """Every MatrixPath evaluation from here on, as the list of paths called."""
    calls = []
    call = MatrixPath.__call__

    def counted(self, t, order=0):
        calls.append(self)
        return call(self, t, order)

    monkeypatch.setattr(MatrixPath, "__call__", counted)
    return calls
