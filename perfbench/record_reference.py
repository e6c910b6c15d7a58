"""Record reference.json: branch rows and degrees of every benchmark input.

    python3 perfbench/record_reference.py

Runs each workload's branch and degree operations for every variant at the
checked-out commit, with branches ``REFERENCE_STEPS`` long, and writes a
fresh reference.json.  The benchmark then requires later commits to stay
on these branches and give these degrees.  Re-record only when an input of
the benchmark changes.
"""

import json
import sys

import run  # pins threads before numpy is imported
from problems import NVARIANTS
from workloads import WORKLOADS, operations, parse_branch


def record(cli, variant, reference):
    for workload in WORKLOADS:
        for op in operations(workload, variant, run.WORKDIR, reference_run=True):
            if op.kind not in ("branch", "degree"):
                continue
            if op.key in reference[op.kind]:
                continue  # fixture ops recur in every variant's certify list
            res = run.run_op(cli, op)
            if res.error is not None or res.rc != 0:
                raise SystemExit(f"{op.label}: {res.error or res.stderr}")
            if op.kind == "degree":
                out = json.loads(res.stdout)
                if not out["agree"]:
                    raise SystemExit(f"{op.label}: degree methods disagree")
                reference["degree"][op.key] = out["generic"]["degree"]
                continue
            rows, termination, lam, _ = parse_branch(res.stdout, res.stderr)
            if termination != "budget" or not (lam[1:] > lam[:-1]).all():
                raise SystemExit(f"{op.label}: termination {termination}, lambda not increasing")
            reference["branch"][op.key] = {"csv": res.stdout}
            print(f"{op.key}: {len(rows)} rows, lambda up to {lam[-1]:.6f}", file=sys.stderr)


def main():
    sys.path.insert(0, str(run.SRC))
    from daecont import cli

    run.WORKDIR.mkdir(exist_ok=True)
    reference = {"branch": {}, "degree": {}, "commit": run.git_commit()}
    for variant in range(NVARIANTS):
        record(cli, variant, reference)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
