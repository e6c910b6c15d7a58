"""Command-line interface.

Subcommands wire problem files (or built-in fixtures, by name) into the
analysis pipeline:

- ``check``      frame audit (problems, paths) or reduction audit (semi-linear)
- ``lemmas``     identity audits over built-in and randomized frame paths
- ``degree``     degree certificate(s) for the map that seeds branches
- ``reduce``     semi-linear reduction: problem file + JSON report
- ``integrate``  one integration, trajectory as JSON
- ``continue``   branch continuation, CSV
- ``fixtures``   list shipped fixtures

Exit codes: 0 success, 1 hypothesis/solver failure, 2 usage error (also
for sizes above ``MAX_GRID``, ``MAX_ZERO_STARTS``, ``MAX_LEMMA_PATHS``,
``MAX_LEMMA_NODES``, ``MAX_BRANCH_STEPS`` or ``periodic.MAX_STEPS``).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import fixtures
from .degree import (
    Box,
    averaged_map_audit,
    candidate_map,
    degree_generic,
    degree_reduced,
    seeding_map,
)
from .errors import DaecontError
from .paths import DEFAULT_GRID, MIN_GRID, MatrixPath, frame_audit, lemma_audit
from .periodic import DEFAULT_STEPS, _steps_for, branch_seeds, continue_branch, integrate
from .probfile import (
    branch_to_csv,
    build_problem,
    parse_problem,
    problem_to_text,
    reduced_spec,
    serialize,
    to_json,
)
from .semilinear import COND_TOL, SemiLinearDae, check_conditions, reduce_semilinear
from .transform import fixed_frame, fixed_frame_first

MAX_GRID = 10_000  # audit grid points
MAX_ZERO_STARTS = 100_000  # multistart lattice points of the degree zero search
MAX_LEMMA_PATHS = 5_000  # random paths of `lemmas --count`
LEMMA_FIXTURES = ("rot2", "rot2cw", "counterexample4")  # audited before the random paths
# path nodes of one `lemmas` run: its whole --count cap at the default grid
MAX_LEMMA_NODES = (MAX_LEMMA_PATHS + len(LEMMA_FIXTURES)) * DEFAULT_GRID
MAX_BRANCH_STEPS = 1_000  # continuation steps of `continue --steps`


def _positive(name, allow_inf=False):
    def convert(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a float: {text!r}")
        if not value > 0:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {text!r}")
        if value == math.inf and not allow_inf:
            raise argparse.ArgumentTypeError(f"{name} must be finite, got {text!r}")
        return value

    return convert


def _int_in(minimum, maximum, name):
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an int: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be at least {minimum}, got {text!r}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{name} must be at most {maximum}, got {text!r}")
        return value

    return convert


def _nonnegative(text):
    value = float(text)
    if not 0 <= value < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"lambda must be nonnegative and finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daecont",
        description=(
            "Periodic solutions of semi-explicit index-1 DAEs with moving "
            "constraints: frame audits, degree certificates, semi-linear "
            "reduction, integration and branch continuation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_common(p, problem=True, tol=False, seed=False):
        # --tol and --seed only where a command reads them
        if problem:
            p.add_argument("problem", help="problem file path or fixture name")
        p.add_argument("--grid", type=_int_in(MIN_GRID, MAX_GRID, "grid"), default=64,
                       help="audit grid size (default 64)")
        if tol:
            p.add_argument("--tol", type=_positive("tol"), default=None,
                           help="audit tolerance (default per derivative mode)")
        p.add_argument("--out", type=Path, default=None,
                       help="write output here instead of stdout")
        if seed:
            p.add_argument("--seed", type=_int_in(0, math.inf, "seed"), default=0,
                           help="seed for randomized paths (default 0)")

    p_check = sub.add_parser("check", help="audit frame hypotheses / reduction conditions")
    add_common(p_check, tol=True)
    p_check.set_defaults(func=cmd_check)

    p_lem = sub.add_parser("lemmas", help="identity audits on built-in and random paths")
    add_common(p_lem, problem=False, seed=True)
    p_lem.add_argument("--count", type=_int_in(0, MAX_LEMMA_PATHS, "count"), default=10,
                       help="number of random exponential-frame paths (default 10)")
    p_lem.set_defaults(func=cmd_lemmas)

    p_deg = sub.add_parser("degree", help="degree certificate of the seeding map")
    add_common(p_deg)
    p_deg.add_argument("--method", choices=("reduced", "generic", "both"), default="both")
    p_deg.add_argument("--radius", type=_positive("radius"), default=2.0,
                       help="box half-width (default 2)")
    p_deg.add_argument("--zero-grid", type=_int_in(2, math.inf, "zero-grid"), default=9,
                       help="multistart seeds per axis (default 9)")
    p_deg.set_defaults(func=cmd_degree)

    p_red = sub.add_parser("reduce", help="reduce a semi-linear problem")
    add_common(p_red)
    p_red.set_defaults(func=cmd_reduce)

    p_int = sub.add_parser("integrate", help="integrate at fixed lambda over one period")
    add_common(p_int)
    p_int.add_argument("--lambda", dest="lam", type=_nonnegative, default=1.0,
                       help="parameter value (default 1)")
    p_int.add_argument("--h", type=_positive("h"), default=None,
                       help="step size (default period/256)")
    p_int.add_argument("--x0", type=str, default=None,
                       help="comma-separated initial differential state (default zeros)")
    mode = p_int.add_mutually_exclusive_group()
    mode.add_argument("--raw", dest="mode", action="store_const", const="raw",
                      help="integrate the moving-constraint form (default)")
    mode.add_argument("--fixed-frame", dest="mode", action="store_const", const="fixed",
                      help="integrate the fixed-frame form and pull back")
    p_int.set_defaults(mode="raw", func=cmd_integrate)

    p_cont = sub.add_parser("continue", help="trace a branch of periodic pairs")
    add_common(p_cont)
    p_cont.add_argument("--ds", type=_positive("ds"), default=0.05,
                        help="pseudo-arclength step (default 0.05)")
    p_cont.add_argument("--steps", type=_int_in(1, MAX_BRANCH_STEPS, "steps"), default=40,
                        help="continuation step budget (default 40)")
    p_cont.add_argument("--radius", type=_positive("radius"), default=2.0,
                        help="state box half-width (default 2)")
    p_cont.add_argument("--lam-max", type=_positive("lam-max", allow_inf=True),
                        default=10.0,
                        help="upper lambda bound of the continuation box (default 10)")
    p_cont.add_argument("--h", type=_positive("h"), default=None,
                        help="integration step (default period/256)")
    p_cont.add_argument("--seed-index", type=int, default=0,
                        help="which located seed to continue (default 0)")
    p_cont.add_argument("--dump", type=Path, default=None,
                        help="also write per-node trajectories of every pair as JSON")
    p_cont.set_defaults(func=cmd_continue)

    p_fix = sub.add_parser("fixtures", help="list shipped fixtures")
    p_fix.set_defaults(func=cmd_fixtures)

    return parser


def _usage(message: str) -> "SystemExit":
    print(f"daecont: {message}", file=sys.stderr)
    return SystemExit(2)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _resolve(source: str):
    """Return ('problem', spec) or ('path', MatrixPath) for a CLI source."""
    path = Path(source)
    if path.exists():
        return "problem", parse_problem(path.read_text())
    if source in fixtures.PROBLEMS:
        return "problem", parse_problem(fixtures.PROBLEMS[source])
    if source in fixtures.PATHS:
        return "path", fixtures.path_fixture(source)
    raise _usage(
        f"unknown problem source {source!r} "
        "(not a file, problem fixture, or path fixture)"
    )


def _first_order(obj, grid=64):
    return reduce_semilinear(obj, grid) if isinstance(obj, SemiLinearDae) else obj


def cmd_check(args) -> int:
    kind, payload = _resolve(args.problem)
    if kind == "path":
        audit = frame_audit(payload, args.grid, args.tol)
        _emit(serialize(audit), args.out)
        return 0 if audit.suitable else 1
    if payload.kind == "semilinear" and args.tol is not None:
        raise _usage("--tol does not apply to a semilinear problem: "
                     f"its reduction audit has the fixed tolerance {COND_TOL:g}")
    problem = build_problem(payload)
    if isinstance(problem, SemiLinearDae):
        report = check_conditions(problem, args.grid)
        out = {"reduction": report.to_dict()}
        ok = report.conditions_hold
        if ok:
            reduced = reduce_semilinear(problem, args.grid, report=report)
            probes = [np.resize(probe, 2 * report.rank)
                      for probe in ([0.7, -0.3, 0.2, 0.5], [1.0, 1.0, 1.0, 0.0], [0.0])]
            reference = fixtures.AVERAGED_MAP_REFERENCES.get(payload.name)
            # the reduced frame may fail the audit; the map is reported anyway
            sys_t = fixed_frame_first(reduced, validate=False)
            out["averaged_map_audit"] = averaged_map_audit(sys_t, probes, reference)
            out["frame_suitable"] = frame_audit(reduced.A, args.grid).suitable
        _emit(to_json(out), args.out)
        return 0 if ok else 1
    audit = frame_audit(problem.A, args.grid, args.tol)
    _emit(serialize(audit), args.out)
    return 0 if audit.suitable else 1


def _random_skew(rng, dim):
    raw = rng.normal(size=(dim, dim))
    return 0.5 * (raw - raw.T)


def random_exp_frame(rng, dim):
    """Random exponential-frame path: skew generator, orthogonal offset."""
    from scipy.linalg import expm

    s = _random_skew(rng, dim)
    a0 = expm(_random_skew(rng, dim))
    return MatrixPath.exp_frame(s, a0)


def cmd_lemmas(args) -> int:
    if (args.count + len(LEMMA_FIXTURES)) * args.grid > MAX_LEMMA_NODES:
        raise _usage(f"--count {args.count} with --grid {args.grid} audits more than "
                     f"{MAX_LEMMA_NODES} path nodes")
    rng = np.random.default_rng(args.seed)

    def paths():
        for name in LEMMA_FIXTURES:
            yield {"name": name}, fixtures.path_fixture(name)
        for k in range(args.count):
            dim = int(rng.integers(2, 7))
            yield {"name": f"exp_frame_{k}", "dim": dim}, random_exp_frame(rng, dim)

    entries = []
    ok = True
    for entry, path in paths():
        report = lemma_audit(path, args.grid)
        entries.append({**entry, "report": report.to_dict()})
        ok = ok and max(report.residuals.values()) <= 1e-8
    _emit(to_json({"paths": entries, "all_identities_hold": ok}), args.out)
    return 0 if ok else 1


def cmd_degree(args) -> int:
    kind, payload = _resolve(args.problem)
    if kind != "problem":
        raise _usage("degree needs a problem, not a path fixture")
    problem = _first_order(build_problem(payload), args.grid)
    dim = problem.m + problem.s
    if args.zero_grid**dim > MAX_ZERO_STARTS:
        raise _usage(f"--zero-grid {args.zero_grid} gives more than {MAX_ZERO_STARTS} seed points")
    sys_t = fixed_frame(problem)
    box = Box.cube(args.radius, dim)
    certify = {
        "reduced": lambda: degree_reduced(candidate_map(sys_t), box, args.zero_grid),
        "generic": lambda: degree_generic(seeding_map(sys_t), box, args.zero_grid),
    }
    if args.method != "both":
        _emit(to_json({args.method: certify[args.method]().to_dict()}), args.out)
        return 0
    # One method's failure goes into its slot and does not hide the other.
    out, failures = {}, []
    for method, run in certify.items():
        try:
            out[method] = run().to_dict()
        except DaecontError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            out[method] = {"error": failures[-1]}
    out["agree"] = not failures and out["reduced"]["degree"] == out["generic"]["degree"]
    _emit(to_json(out), args.out)
    for failure in failures:
        print(f"daecont: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_reduce(args) -> int:
    kind, payload = _resolve(args.problem)
    if kind != "problem" or payload.kind != "semilinear":
        raise _usage("reduce needs a semilinear problem")
    dae = build_problem(payload)
    report = check_conditions(dae, args.grid)
    reduced = reduce_semilinear(dae, args.grid, report=report)
    spec_out = reduced_spec(payload, report.P, report.sigma, report.Q)
    problem_text = problem_to_text(spec_out)
    report_dict = report.to_dict()
    report_dict["frame_suitable"] = frame_audit(reduced.A, args.grid).suitable
    report_json = to_json(report_dict)
    if args.out is None:
        sys.stdout.write(problem_text)
        sys.stdout.write(report_json)
    else:
        args.out.write_text(problem_text)
        Path(str(args.out) + ".report.json").write_text(report_json)
    return 0


def _integration_steps(problem, h) -> int:
    # A --h that does not divide T into 1..MAX_STEPS steps is a usage error.
    try:
        return DEFAULT_STEPS if h is None else _steps_for(problem.period, h)
    except ValueError as exc:
        raise _usage(str(exc))


def cmd_integrate(args) -> int:
    kind, payload = _resolve(args.problem)
    if kind != "problem":
        raise _usage("integrate needs a problem, not a path fixture")
    problem = _first_order(build_problem(payload), args.grid)
    try:
        x0 = (np.zeros(problem.m) if args.x0 is None
              else np.array([float(v) for v in args.x0.split(",")]))
    except ValueError:
        raise _usage(f"--x0 must be comma-separated numbers, got {args.x0!r}")
    if not np.all(np.isfinite(x0)):
        raise _usage(f"--x0 must be finite, got {args.x0!r}")
    if x0.size != problem.m:
        raise _usage(f"--x0 needs {problem.m} components")
    _integration_steps(problem, args.h)
    traj = integrate(problem, args.lam, x0, h=args.h, mode=args.mode)
    _emit(serialize(traj), args.out)
    return 0


def cmd_continue(args) -> int:
    kind, payload = _resolve(args.problem)
    if kind != "problem":
        raise _usage("continue needs a problem, not a path fixture")
    problem = _first_order(build_problem(payload), args.grid)
    nsteps = _integration_steps(problem, args.h)
    seed_box = Box.cube(args.radius, problem.m + problem.s)
    seeds = branch_seeds(problem, seed_box)
    if not seeds:
        print("no seeds located in the box", file=sys.stderr)
        return 1
    if not (0 <= args.seed_index < len(seeds)):
        raise _usage(f"--seed-index out of range (found {len(seeds)} seeds)")
    state_dim = problem.order * problem.m
    box = Box(
        np.concatenate([[0.0], -args.radius * np.ones(state_dim)]),
        np.concatenate([[args.lam_max], args.radius * np.ones(state_dim)]),
    )
    branch = continue_branch(problem, seeds[args.seed_index].point, args.ds,
                             args.steps, box, integration_steps=nsteps)
    print(f"branch: {len(branch.pairs)} pairs, termination: {branch.termination}",
          file=sys.stderr)
    _emit(branch_to_csv(branch), args.out)
    if args.dump is not None:
        args.dump.write_text(to_json([pair.to_dict() for pair in branch.pairs]))
    return 0


def cmd_fixtures(args) -> int:
    lines = [f"{name:22s} {kind:10s} {desc}" for name, kind, desc in fixtures.fixture_names()]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DaecontError as exc:
        print(f"daecont: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
