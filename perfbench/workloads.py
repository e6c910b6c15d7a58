"""Operation lists of the benchmark workloads and the checks on their output.

Every operation is one ``daecont`` command line, run in-process through
``daecont.cli.main``.  A check returns ``None`` when the output is correct
and a one-line reason otherwise; a failed check counts the operation as
failed, it does not stop the run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from problems import problem_source

DS = "0.05"
# Continuation steps of one branch operation per workload, and the number
# of steps the reference was recorded with (more, so that a change that
# reaches farther along the branch is still checked against it).
BRANCH_STEPS = {"branch_rs": 4, "branch_2nd": 2, "branch_s2": 4, "certify": 2}
REFERENCE_STEPS = {"branch_rs": 12, "branch_2nd": 4, "branch_s2": 12, "certify": 6}
BRANCH_FIXTURE = {"branch_rs": "rotating_surface", "branch_2nd": "rotating_surface_2nd",
                  "branch_s2": "semilinear_4x4", "certify": "commuting_h"}
WORKLOADS = ("branch_rs", "branch_2nd", "branch_s2", "certify")

PROBLEM_FIXTURES = ("rotating_surface", "rotating_surface_2nd", "commuting_h",
                    "semilinear_4x4", "scalar_linear")
PATH_FIXTURES = ("rot2", "rot2cw", "counterexample4")
# Fixtures whose candidate map has a nonsingular linear block, so that
# ``degree --method both`` is defined (scalar_linear has M = 0).
DEGREE_FIXTURES = ("rotating_surface", "rotating_surface_2nd", "commuting_h", "semilinear_4x4")
VARIANT_DEGREE_FIXTURES = ("rotating_surface", "commuting_h")
CERTIFY_VARIANTS = 4  # perturbed copies of every problem fixture per certify pass
INTEGRATE_LAMBDA = "0.5"

PERIODICITY_TOL = 1e-8
CONSTRAINT_TOL = 1e-10
# A branch row matches the reference when its xi0 lies within this distance
# of the reference branch interpolated (cubic spline in lambda) at its lambda.
BRANCH_TOL = 1e-6
# Raw and fixed-frame integration of one problem must agree this closely.
FRAME_TOL = 1e-6


@dataclass
class Op:
    argv: list
    kind: str  # branch | degree | integrate_raw | integrate_fixed | check | reduce | lemmas
    key: str  # reference key (and pairing key of raw/fixed integrations)
    steps: int = 0

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def branch_op(fixture, variant, slot, steps, workdir) -> Op:
    src = problem_source(fixture, variant, slot, workdir)
    return Op(["continue", src, "--ds", DS, "--steps", str(steps)], "branch",
              f"continue {fixture} v{variant}.{slot} ds{DS}", steps)


def operations(workload: str, variant: int, workdir, *, reference_run=False) -> list:
    """The operation list of one pass of ``workload`` for ``variant``."""
    steps = (REFERENCE_STEPS if reference_run else BRANCH_STEPS)[workload]
    if workload != "certify":
        return [branch_op(BRANCH_FIXTURE[workload], variant, 0, steps, workdir)]
    ops = []
    sources = [(fx, 0, 0) for fx in PROBLEM_FIXTURES]
    sources += [(fx, variant, k) for k in range(1, CERTIFY_VARIANTS + 1) for fx in PROBLEM_FIXTURES]
    for fixture in PATH_FIXTURES:
        ops.append(Op(["check", fixture], "check", fixture))
    for fixture, v, k in sources:
        src = problem_source(fixture, v, k, workdir)
        key = f"{fixture} v{v}.{k}"
        ops.append(Op(["check", src], "check", key))
        for mode in ("--raw", "--fixed-frame"):
            kind = "integrate_raw" if mode == "--raw" else "integrate_fixed"
            ops.append(Op(["integrate", src, "--lambda", INTEGRATE_LAMBDA, mode], kind, key))
        # Every fixture gets a degree certificate; of the variants, only the
        # cheaper first-order ones (the 9^4-start semilinear lattice takes
        # ~2 s, the second-order one ~0.7 s).
        if fixture in DEGREE_FIXTURES and (k == 0 or fixture in VARIANT_DEGREE_FIXTURES):
            ops.append(Op(["degree", src, "--method", "both"], "degree", key))
        if fixture == "semilinear_4x4":
            ops.append(Op(["reduce", src], "reduce", key))
    for k in range(CERTIFY_VARIANTS + 1):
        seed = str(variant * (CERTIFY_VARIANTS + 1) + k)
        ops.append(Op(["lemmas", "--count", "10", "--seed", seed], "lemmas", "lemmas"))
    ops.append(branch_op("commuting_h", variant, 1, steps, workdir))
    return ops


# -- checks -------------------------------------------------------------------


def parse_branch(stdout: str, stderr: str):
    rows = list(csv.DictReader(io.StringIO(stdout)))
    termination = None
    for line in stderr.splitlines():
        if line.startswith("branch:") and "termination:" in line:
            termination = line.rsplit("termination:", 1)[1].strip()
    lam = np.array([float(r["lambda"]) for r in rows])
    xi_cols = sorted((c for c in rows[0] if c.startswith("xi0_")), key=lambda c: int(c[4:])) if rows else []
    xi0 = np.array([[float(r[c]) for c in xi_cols] for r in rows])
    return rows, termination, lam, xi0


def check_branch(op: Op, res, reference) -> Optional[str]:
    rows, termination, lam, xi0 = parse_branch(res.stdout, res.stderr)
    if termination != "budget":
        return f"termination {termination!r}, expected 'budget'"
    if len(rows) != op.steps + 1:
        return f"{len(rows)} pairs, expected {op.steps + 1}"
    for r in rows:
        if float(r["periodicity_residual"]) > PERIODICITY_TOL:
            return f"step {r['step']}: periodicity residual {r['periodicity_residual']}"
        if float(r["constraint_residual"]) > CONSTRAINT_TOL:
            return f"step {r['step']}: constraint residual {r['constraint_residual']}"
    ref = reference["branch"].get(op.key)
    if ref is None:
        return f"no reference for {op.key!r}"
    from scipy.interpolate import CubicSpline

    _, _, ref_lam, ref_xi0 = parse_branch(ref["csv"], "")
    inside = lam <= ref_lam[-1]
    if not inside.all():
        res.notes.append(f"{int((~inside).sum())} rows beyond the reference lambda range")
    gap = np.abs(CubicSpline(ref_lam, ref_xi0, axis=0)(lam[inside]) - xi0[inside])
    if gap.size and gap.max() > BRANCH_TOL:
        return f"xi0 off the reference branch by {gap.max():.3e} (tol {BRANCH_TOL:g})"
    res.byte_identical = ref["csv"][: len(res.stdout)] == res.stdout
    return None


def check_op(op: Op, res, reference, context: dict) -> Optional[str]:
    """Check one operation's output; ``context`` pairs raw/fixed integrations."""
    if res.error is not None:
        return res.error
    if res.rc != 0:
        return f"exit code {res.rc}: {res.stderr.strip()[-200:]}"
    if op.kind == "branch":
        return check_branch(op, res, reference)
    if op.kind == "reduce":
        text = res.stdout
        if not text.startswith("[problem]") or "{" not in text:
            return "reduce output is not a problem file followed by a report"
        if not json.loads(text[text.index("{"):])["conditions_hold"]:
            return "reduction conditions do not hold"
        return None
    out = json.loads(res.stdout)
    if op.kind == "check":
        if "reduction" in out and not out["reduction"]["conditions_hold"]:
            return "reduction conditions do not hold"
        return None
    if op.kind == "lemmas":
        return None if out["all_identities_hold"] else "identity audit failed"
    if op.kind == "degree":
        expected = reference["degree"].get(op.key)
        if expected is None:
            return f"no reference degree for {op.key!r}"
        got = (out["reduced"]["degree"], out["generic"]["degree"])
        if not out["agree"] or got != (expected, expected):
            return f"degrees {got}, agree={out['agree']}, expected {expected}"
        return None
    if op.kind == "integrate_raw":
        context[op.key] = out
        return None
    if op.kind == "integrate_fixed":
        raw = context.pop(op.key, None)
        if raw is None:
            return "raw integration missing or failed"
        gap = max(float(np.max(np.abs(np.asarray(raw[k]) - np.asarray(out[k]))))
                  for k in ("times", "x", "y"))
        if gap > FRAME_TOL:
            return f"raw and fixed-frame integrations differ by {gap:.3e} (tol {FRAME_TOL:g})"
        return None
    raise ValueError(f"unknown operation kind {op.kind!r}")
