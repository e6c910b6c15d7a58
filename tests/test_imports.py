"""scipy is imported at the first LU of size 3 or more or the first expm.

The suite's own process has scipy loaded already, so each test runs its
script in a fresh interpreter and reads back what it printed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daecont
from daecont.cli import main
from daecont.errors import SingularMatrixError
from daecont.linalg import solve_linear

SRC = str(Path(daecont.__file__).resolve().parent.parent)

# zero pivot in the middle column: the first LU of the fresh process fails
SINGULAR_3X3 = [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 1.0, 3.0]]
CONTINUE = ["continue", "rotating_surface", "--ds", "0.05", "--steps", "2"]
LEMMAS = ["lemmas", "--count", "2", "--seed", "0"]

SETUP_SCRIPT = """
import contextlib, io, json, sys
from daecont import cli, fixtures
from daecont.probfile import build_problem, parse_problem
from daecont.semilinear import SemiLinearDae, reduce_semilinear
from daecont.transform import fixed_frame

codes = {}
for name in fixtures.PROBLEMS:
    problem = build_problem(parse_problem(fixtures.problem_text(name)))
    if isinstance(problem, SemiLinearDae):
        problem = reduce_semilinear(problem)
    fixed_frame(problem)
    for argv in (["check", name], ["reduce", name],
                 ["integrate", "--raw", name], ["integrate", "--fixed-frame", name]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        codes[" ".join(argv)] = code
with contextlib.redirect_stdout(io.StringIO()):
    codes["check rot2"] = cli.main(["check", "rot2"])
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""

# the LU of sys.argv[1] as the process's first: its solution or its error
LU_SCRIPT = """
import json, sys
import numpy as np
from daecont.errors import SingularMatrixError
from daecont.linalg import solve_linear

out = {"scipy_before": "scipy" in sys.modules}
try:
    out["x"] = solve_linear(np.array(json.loads(sys.argv[1])), np.arange(3.0)).tolist()
except SingularMatrixError as exc:
    out["singular"] = str(exc)
out["scipy_after"] = "scipy" in sys.modules
print(json.dumps(out))
"""

# each command in its own process: its first LU (continue) or expm (lemmas)
# is the one that imports scipy
CLI_SCRIPT = """
import contextlib, io, json, sys
from daecont import cli

with contextlib.redirect_stdout(io.StringIO()) as buf:
    code = cli.main(sys.argv[1:])
print(json.dumps([code, buf.getvalue()]))
"""


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_setup_paths_never_load_scipy():
    out = run_fresh(SETUP_SCRIPT)
    assert not out["scipy"]
    # reduce takes only the semi-linear fixture; every other run succeeds
    assert {argv: code for argv, code in out["codes"].items() if code} == {
        f"reduce {name}": 2
        for name in ("rotating_surface", "rotating_surface_2nd", "commuting_h", "scalar_linear")
    }


def test_first_use_after_the_deferred_import_behaves_as_before(capsys):
    out = run_fresh(LU_SCRIPT, json.dumps(SINGULAR_3X3))
    assert not out["scipy_before"] and out["scipy_after"]
    with pytest.raises(SingularMatrixError, match=r"^pivot .* below threshold .* at column 1$") as exc:
        solve_linear(np.array(SINGULAR_3X3), np.arange(3.0))
    assert out["singular"] == str(exc.value)
    a = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
    assert run_fresh(LU_SCRIPT, json.dumps(a))["x"] == solve_linear(np.array(a), np.arange(3.0)).tolist()
    for argv in (CONTINUE, LEMMAS):
        code = main(argv)
        assert run_fresh(CLI_SCRIPT, *argv) == [code, capsys.readouterr().out]
