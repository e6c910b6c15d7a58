"""The README's library example runs against the current API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "1"  # the degree
    assert np.allclose(scope["seed_map"](scope["seeds"][0].point), 0.0, atol=1e-10)
    assert scope["branch"].termination == "budget" and len(scope["branch"].pairs) == 5
