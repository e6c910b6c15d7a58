"""daecont benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a daecont checkout; daecont is imported from its
``src/`` directory, never from an installed copy.  Operations call
``daecont.cli.main`` in this one process, with BLAS/OpenMP threads pinned
to 1.  With ``--trace 0`` the run first times ``SETUP_PROBES`` fresh-process
set-ups, then repeats the workload's operation list while another pass fits
in ``--seconds``, and reports the end-to-end metrics, with every time taken
at reference machine speed (see speed.py).  With ``--trace 1`` it runs the
list once untraced and once traced (see tracing.py), checks that both gave
the same output, and reports the per-layer metrics.

The last line of standard output is the result object; the line before it
records the environment and details of the run.  See NOTES.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in set-up probes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class OpResult:
    def __init__(self, rc, stdout, stderr, error, seconds):
        self.rc, self.stdout, self.stderr = rc, stdout, stderr
        self.error = error  # exception escaping daecont.cli.main, if any
        self.seconds = seconds
        self.scale = 1.0  # to reference machine speed, see speed.py
        self.failure = None
        self.byte_identical = None
        self.notes = []
        self.lam = None  # lambda column of a branch operation's output


def run_op(cli, op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaping exception is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return OpResult(rc, out.getvalue(), err.getvalue(), error, seconds)


def run_pass(cli, ops, reference, speed, tracer=None, keep_output=False) -> list:
    """Run ``ops`` once and check each output.  Unless ``keep_output``, a
    checked result keeps only what the metrics need, so that memory held
    by the harness does not grow with the number of passes."""
    from workloads import check_op, parse_branch

    def call(op):
        if tracer is None:
            return run_op(cli, op)
        with tracer.op(op.label):
            return run_op(cli, op)

    context = {}
    results = []
    for op in ops:
        res, res.scale = speed.timed(call, op)
        try:
            res.failure = check_op(op, res, reference, context)
            if op.kind == "branch" and res.rc == 0:
                res.lam = parse_branch(res.stdout, res.stderr)[2]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            res.failure = f"unreadable output: {type(exc).__name__}: {exc}"
        if res.failure is not None:
            print(f"perfbench: FAILED {op.label}: {res.failure}", file=sys.stderr)
        if not keep_output:
            res.stdout = res.stderr = None
        results.append(res)
    return results


def branch_rows(results):
    return (res.lam for res in results if res.lam is not None)


def setup_probe(sources) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *sources]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return seconds


def git_commit():
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None  # no git
    return proc.stdout.strip() if proc.returncode == 0 else None  # None: not a git checkout


def environment(args, variant, ops) -> dict:
    import numpy as np
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "daecont").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    inputs = hashlib.sha256()
    for source in sorted({op.argv[1] for op in ops if Path(op.argv[1]).is_file()}):
        inputs.update(Path(source).read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "inputs_sha256": inputs.hexdigest(),
    }


def failures(results) -> list:
    return [res.failure for res in results if res.failure is not None]


def measure(cli, ops, reference, seconds) -> tuple:
    """Untraced run: set-up probes, then passes while another one fits."""
    from speed import Speedometer

    speed = Speedometer()
    deadline = time.perf_counter() + seconds
    from workloads import PATH_FIXTURES

    sources = sorted({op.argv[1] for op in ops
                      if op.kind not in ("lemmas", "integrate_fixed")
                      and op.argv[1] not in PATH_FIXTURES})
    attempted, failed, messages = 0, 0, []
    probes, raw_probes = [], []
    for _ in range(SETUP_PROBES):
        attempted += 1
        try:
            probe_s, scale = speed.timed(setup_probe, sources)
            probes.append(probe_s * scale)
            raw_probes.append(probe_s)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            failed += 1
            messages.append(str(exc))
            print(f"perfbench: FAILED set-up probe: {exc}", file=sys.stderr)
    passes = []
    while True:
        passes.append(run_pass(cli, ops, reference, speed))
        raw_pass_s = [sum(r.seconds for r in results) for results in passes]
        if time.perf_counter() + statistics.median(raw_pass_s) > deadline:
            break
    pass_s = [sum(r.seconds * r.scale for r in results) for results in passes]
    # An operation's latency is the median over the passes of its time at
    # reference speed; on the one-operation branch lists this makes
    # op_ms_p50 = op_ms_p90 = 1000 * run_s.
    op_s = [statistics.median(r.seconds * r.scale for r in samples) for samples in zip(*passes)]
    all_results = [res for results in passes for res in results]
    attempted += len(all_results)
    failed += sum(res.failure is not None for res in all_results)
    messages += failures(all_results)
    latencies_ms = [s * 1e3 for s in op_s]
    # quantiles() needs two values; a branch list is one operation.
    deciles = statistics.quantiles(latencies_ms, n=10) if len(latencies_ms) > 1 else latencies_ms * 9
    pairs = [sum(len(lam) for lam in branch_rows(results)) for results in passes]
    reach = max((float(lam.max()) for results in passes
                 for lam in branch_rows(results) if lam.size), default=0.0)
    metrics = {
        "setup_s": (statistics.median(probes) if probes else 0.0, "s"),
        "run_s": (sum(op_s), "s"),
        "op_ms_p50": (deciles[4], "ms"),
        "op_ms_p90": (deciles[8], "ms"),
        "pairs": (statistics.median(pairs), "count"),
        "lam_reach": (reach, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    branch_results = [res for res in all_results if res.byte_identical is not None]
    detail = {
        "passes": len(passes),
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "ops": len(latencies_ms),
        "setup_probe_s": probes,
        "raw_setup_probe_s": raw_probes,
        "kernel_ms": [1e3 * min(speed.samples), 1e3 * statistics.median(speed.samples),
                      1e3 * max(speed.samples), len(speed.samples)],
        "csv_byte_identical": f"{sum(r.byte_identical for r in branch_results)}/{len(branch_results)}",
        "notes": sorted({note for res in all_results for note in res.notes}),
        "failures": messages[:10],
    }
    return metrics, attempted, failed, detail


def trace(cli, ops, reference, args) -> tuple:
    """Traced run: one pass untraced, one traced; counts come from the latter."""
    from speed import Speedometer
    from tracing import Tracer

    speed = Speedometer()
    plain = run_pass(cli, ops, reference, speed, keep_output=True)
    tracer = Tracer().install()
    try:
        traced = run_pass(cli, ops, reference, speed, tracer, keep_output=True)
    finally:
        tracer.uninstall()
    mismatched = [op.label for op, a, b in zip(ops, plain, traced)
                  if (a.rc, a.stdout, a.stderr, a.error) != (b.rc, b.stdout, b.stderr, b.error)]
    plain_s = sum(r.seconds * r.scale for r in plain)
    traced_s = sum(r.seconds * r.scale for r in traced)
    nontrivial = sum(len(lam) - 1 for lam in branch_rows(traced))
    emit_bytes = sum(len(res.stdout.encode()) for res in traced)
    metrics = tracer.metrics(nontrivial, emit_bytes)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    all_results = plain + traced
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    detail = {
        "untraced_run_s": plain_s,
        "traced_run_s": traced_s,
        "outputs_match": not mismatched,
        "mismatched": mismatched[:10],
        "counts_sha256": hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest(),
        "failures": failures(all_results)[:10],
    }
    WORKDIR.joinpath(f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"spans": tracer.spans, "metrics": metrics}, indent=1))
    failed = sum(res.failure is not None for res in all_results) + len(mismatched)
    return metrics, len(all_results), failed, detail


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "daecont" / "__init__.py").is_file():
        die(f"no daecont sources at {SRC}; run from the root of a daecont checkout")
    reference_path = HERE / "reference.json"
    if not reference_path.is_file():
        die(f"missing {reference_path}")
    sys.path.insert(0, str(SRC))
    import daecont
    from daecont import cli

    if not Path(daecont.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"imported daecont from {daecont.__file__}, not from {SRC}")

    from problems import variant_of
    from workloads import operations

    reference = json.loads(reference_path.read_text())
    WORKDIR.mkdir(exist_ok=True)
    variant = variant_of(args.seed)
    ops = operations(args.workload, variant, WORKDIR)
    if args.trace:
        metrics, attempted, failed, detail = trace(cli, ops, reference, args)
    else:
        metrics, attempted, failed, detail = measure(cli, ops, reference, args.seconds)
    print(json.dumps({"env": environment(args, variant, ops), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
