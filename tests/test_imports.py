"""Imports: every exported name resolves, and numpy is the only runtime
dependency: no command needs scipy.

The suite's own process has scipy loaded already (the oracles use it), so
the commands run again in a fresh interpreter whose import system refuses
scipy, and print what they printed there for the suite to compare.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import daecont
from daecont import fixtures
from daecont.cli import main

SRC = str(Path(daecont.__file__).resolve().parent.parent)

COMMANDS = [
    argv
    for name in fixtures.PROBLEMS
    for argv in (["check", name], ["reduce", name], ["integrate", "--raw", name],
                 ["integrate", "--fixed-frame", name], ["degree", name, "--method", "both"],
                 ["continue", name, "--ds", "0.05", "--steps", "2"])
] + [["check", "rot2"], ["lemmas", "--count", "2", "--seed", "0"], ["fixtures"]]

# sys.argv[1]: the commands as JSON.  Prints the set-up codes, each
# command's (code, stdout, stderr) and whether scipy got loaded.
SCRIPT = """
import contextlib, importlib.abc, io, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())

from daecont import cli, fixtures
from daecont.probfile import build_problem, parse_problem
from daecont.semilinear import SemiLinearDae, reduce_semilinear
from daecont.transform import fixed_frame

for name in fixtures.PROBLEMS:
    problem = build_problem(parse_problem(fixtures.problem_text(name)))
    if isinstance(problem, SemiLinearDae):
        problem = reduce_semilinear(problem)
    fixed_frame(problem)
runs = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs[" ".join(argv)] = [code, out.getvalue(), err.getvalue()]
print(json.dumps({"runs": runs, "scipy": "scipy" in sys.modules}))
"""


@pytest.fixture(scope="module")
def fresh():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_setup_paths_never_load_scipy(fresh):
    # parse, build, reduce and transform every fixture, then every command
    assert not fresh["scipy"]
    # reduce takes only the semi-linear fixture, and scalar_linear's linear
    # block rules out the reduced degree; every other run succeeds
    assert {argv: code for argv, (code, _, _) in fresh["runs"].items() if code} == {
        **{f"reduce {name}": 2
           for name in ("rotating_surface", "rotating_surface_2nd", "commuting_h", "scalar_linear")},
        "degree scalar_linear --method both": 1,
    }


def test_no_command_needs_scipy(fresh, capsys):
    for argv in COMMANDS:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert fresh["runs"][" ".join(argv)] == [code, out, err], argv


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(daecont.__path__)))
def test_every_exported_name_resolves(module):
    module = importlib.import_module(f"daecont.{module}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_benchmark_setup_probe_runs():
    # perfbench's set-up probe imports the transform's entry points by name
    # (fixed_frame_first, fixed_frame_second, reduce_semilinear, ...): a
    # renamed or dropped one fails here, not only in a benchmark run
    probe = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"
    done = subprocess.run([sys.executable, str(probe), SRC, "rotating_surface",
                           "rotating_surface_2nd", "semilinear_4x4"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
