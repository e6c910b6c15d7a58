"""Record the outputs of a fixed set of CLI operations, and compare two records.

    python3 tools/outputs.py record OUT.json
    python3 tools/outputs.py compare A.json B.json

``record`` runs every operation in this one process through
``daecont.cli.main``, with daecont imported from this checkout's ``src/``,
and writes, for each, its exit code, the sha256 of its standard output,
its standard error and any exception that escaped ``main``, and for a
``continue`` its standard output too, the branch CSV.  The
operations are the four benchmark workloads at seeds 0-3 (from
``perfbench/workloads.py``, which this only reads), then the longer and
failing branches and the fixtures' ``integrate``, ``degree`` and ``check``
runs listed in ``EXTRA``.  Generated problem files are written to a
temporary directory and named relative to it, so that two checkouts give
comparable records.

``compare`` lists every operation whose record differs and exits 1 if any
does, 0 otherwise.  For a differing ``continue`` recorded with both CSVs
it prints how far the branch moved: the largest change of each numeric
column between rows of the same step, and the largest distance of a
row's ``xi0`` from the other branch at its ``lambda`` (a cubic spline in
``lambda``, as perfbench checks a branch), both ways.  A refactoring that
claims to keep the program's outputs byte for byte records both commits
and compares them; a change that moves branches on purpose shows by how
much.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench/run.py pins them, before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)
FIXTURES = ("rotating_surface", "rotating_surface_2nd", "commuting_h", "semilinear_4x4", "scalar_linear")
EXTRA = [
    # acceptance criterion 8, four longer branches, and a branch whose first step fails
    ["continue", "rotating_surface", "--ds", "0.05", "--steps", "40"],
    ["continue", "rotating_surface_2nd", "--steps", "20"],
    ["continue", "commuting_h", "--steps", "40"],
    ["continue", "semilinear_4x4", "--steps", "40"],
    ["continue", "scalar_linear", "--steps", "40"],
    ["continue", "rotating_surface_2nd", "--ds", "1", "--steps", "3"],
    ["degree", "scalar_linear", "--method", "generic"],
    ["check", "semilinear_4x4"],
] + [["integrate", fixture, "--lambda", lam, mode]
     for fixture in FIXTURES for lam in ("0.5", "2") for mode in ("--raw", "--fixed-frame")]


def operations(workdir):
    """The argv of every operation, in order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from problems import variant_of
    from workloads import WORKLOADS, operations as workload_operations

    ops = [op.argv for seed in SEEDS for workload in WORKLOADS
           for op in workload_operations(workload, variant_of(seed), workdir)]
    return ops + EXTRA


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaping exception is part of the record
        error = f"{type(exc).__name__}: {exc}"
    result = {"op": " ".join(argv), "exit": code, "error": error,
              "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "stderr": err.getvalue()}
    if argv[0] == "continue":
        result["csv"] = out.getvalue()
    return result


def record(path):
    sys.path.insert(0, str(ROOT / "src"))
    import daecont
    from daecont.cli import main

    if not Path(daecont.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"outputs: imported daecont from {daecont.__file__}, not from {ROOT / 'src'}")
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            records = [run(main, argv) for argv in operations(Path("."))]
        finally:
            os.chdir(here)
    Path(path).write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} operations recorded in {path}")


def branch_table(text):
    # the header and the float rows of a branch CSV
    header, *rows = [line.split(",") for line in text.splitlines()]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def off_branch(rows, other, lam, xi0):
    # the largest distance of the xi0 of rows from the branch other at
    # their lambda, or None unless other has two rows or more, increasing
    # in lambda
    from scipy.interpolate import CubicSpline

    if len(other) < 2 or not np.all(np.diff(other[:, lam]) > 0.0) or not len(rows):
        return None
    return float(np.max(np.abs(CubicSpline(other[:, lam], other[:, xi0])(rows[:, lam]) - rows[:, xi0])))


def branch_moves(a_csv, b_csv):
    """The lines of how far branch b moved from branch a: the largest change
    of each numeric column over the rows of both, and the largest distance of
    a row's xi0 from the other branch at its lambda."""
    (header, a), (b_header, b) = branch_table(a_csv), branch_table(b_csv)
    if header != b_header:
        return ["    the branch headers differ"]
    rows = min(len(a), len(b))
    change = np.max(np.abs(a[:rows] - b[:rows]), axis=0, initial=0.0)
    lines = [f"    {len(a)} against {len(b)} rows; largest change by column: "
             + ", ".join(f"{name} {value:.2g}" for name, value in zip(header, change)
                         if name not in ("step", "trivial_flag"))]
    lam, xi0 = header.index("lambda"), [k for k, name in enumerate(header) if name.startswith("xi0_")]
    gaps = [off_branch(a, b, lam, xi0), off_branch(b, a, lam, xi0)]
    if None in gaps:
        return lines + ["    no distance at matched lambda: a branch has fewer than two rows or is not "
                        "increasing in lambda"]
    return lines + [f"    largest xi0 distance from the other branch at matched lambda: {max(gaps):.2g}"]


def compare(a, b):
    first, second = (json.loads(Path(p).read_text()) for p in (a, b))
    differ = [(k, x, y) for k, (x, y) in enumerate(zip(first, second)) if x != y]
    for k, x, y in differ:
        fields = [key for key in x if x[key] != y.get(key)]
        print(f"{k}: {x['op']}: {', '.join(fields)} differ")
        if "csv" in fields and x["csv"] and y.get("csv"):
            print("\n".join(branch_moves(x["csv"], y["csv"])))
    if len(first) != len(second):
        print(f"{len(first)} operations against {len(second)}")
    print(f"{len(differ)} of {min(len(first), len(second))} operations differ")
    return 1 if differ or len(first) != len(second) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record").add_argument("out")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
