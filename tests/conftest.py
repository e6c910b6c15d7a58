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
