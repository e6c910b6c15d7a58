"""Counters of the ROADMAP headline branch, for comparison with its baseline.

    python3 perfbench/headline.py

Runs ``continue rotating_surface --ds 0.05 --steps 40`` (acceptance
criterion 8) once untraced and once traced, checks that both
print the same CSV, and prints one JSON line with the wall times and the
per-layer metrics of the traced run.  Takes about two minutes.
"""

import json
import sys

import run  # pins threads before numpy is imported
from tracing import Tracer
from workloads import Op

STEPS = 40


def main():
    sys.path.insert(0, str(run.SRC))
    from daecont import cli

    op = Op(["continue", "rotating_surface", "--ds", "0.05", "--steps", str(STEPS)], "branch", "")
    plain = run.run_op(cli, op)
    tracer = Tracer().install()
    try:
        traced = run.run_op(cli, op)
    finally:
        tracer.uninstall()
    if plain.rc != 0 or (plain.stdout, plain.stderr) != (traced.stdout, traced.stderr):
        print("perfbench: traced and untraced outputs differ", file=sys.stderr)
        return 1
    pairs = plain.stdout.count("\n") - 1  # CSV rows minus the header
    metrics = tracer.metrics(pairs - 1, len(traced.stdout.encode()))
    print(json.dumps({
        "steps": STEPS,
        "pairs": pairs,
        "termination": plain.stderr.strip(),
        "untraced_s": plain.seconds,
        "traced_s": traced.seconds,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
