"""Metamorphic checks: a change of the problem that the fixed frame does not see.

A constant rotation ``Q`` of ``x`` (``x -> Q x``) rewrites the problem's
tables as ``A -> A Q^T``, ``f -> Q f(t, Q^T x, y)`` and ``H -> Q H Q^T``.
It leaves the frame variables ``xi = A x`` and the constraint
``g(A x, B y)`` as they are, so the fixed-frame system, its branch of
T-periodic pairs and its degree certificate are the unrotated ones up to
the rounding of ``Q``'s entries.
"""

import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

from daecont.cli import main
from daecont.expressions import Binary, Num, Var, eval_expr, expr_to_text, substitute_exprs
from daecont.fixtures import problem_text
from daecont.linalg import norm_inf
from daecont.probfile import parse_problem

ANGLE = 0.3
# the largest change of lambda, xi0_* or sup_norm_y in any row of a
# 20-step branch under the rotation (measured: 2.2e-16)
BRANCH_TOL = 1e-13


def _sum(terms):
    total = terms[0]
    for term in terms[1:]:
        total = Binary("+", total, term)
    return total


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def rotated_spec(name, angle=ANGLE):
    """The problem spec of fixture ``name`` with ``x`` rotated by ``angle``."""
    spec = parse_problem(problem_text(name))
    q = rotation(angle)
    num = lambda v: Num(float(v))
    m = spec.m
    tables = spec.tables
    tables["A"] = [[_sum([Binary("*", row[k], num(q[j, k])) for k in range(m)]) for j in range(m)]
                   for row in tables["A"]]
    back = {f"x{k + 1}": _sum([Binary("*", num(q[l, k]), Var(f"x{l + 1}")) for l in range(m)])
            for k in range(m)}
    f = [substitute_exprs(row[0], back) for row in tables["f"]]
    tables["f"] = [[_sum([Binary("*", num(q[i, j]), f[j]) for j in range(m)])] for i in range(m)]
    if "H" in tables:
        h = np.array([[eval_expr(e, {}) for e in row] for row in tables["H"]])
        tables["H"] = [[num(v) for v in row] for row in q @ h @ q.T]
    return spec


def spec_text(spec):
    """Problem-file text of a dae1 or dae2 ``spec``."""
    lines = ["[problem]", f"kind = {spec.kind}", f"name = {spec.name}",
             f"m = {spec.m}", f"s = {spec.s}", f"period = {spec.period!r}"]
    for section, table in spec.tables.items():
        lines += ["", f"[{section}]", *(", ".join(expr_to_text(e) for e in row) for row in table)]
    return "\n".join(lines) + "\n"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.fixture(params=["rotating_surface", "commuting_h"])
def pair(request, tmp_path):
    # the fixture's source and the path of its rotated copy
    name = request.param
    path = tmp_path / f"{name}_rotated.prob"
    path.write_text(spec_text(rotated_spec(name)))
    return name, str(path)


def test_rotated_text_is_the_rotation(pair):
    # the rotated file, parsed back, holds A Q^T, Q f(t, Q^T x, y) and Q H Q^T
    name, path = pair
    plain, rotated = (parse_problem(text).tables for text in (problem_text(name), Path(path).read_text()))
    q = rotation(ANGLE)

    def value(table, x):
        env = {"t": 0.7, "x1": x[0], "x2": x[1], "y1": 0.1}
        return np.array([[eval_expr(e, env) for e in row] for row in table])

    x = np.array([0.3, -0.2])
    assert norm_inf(value(rotated["A"], x) - value(plain["A"], x) @ q.T) <= 1e-15
    assert norm_inf(value(rotated["f"], x) - q @ value(plain["f"], q.T @ x)) <= 1e-15
    if "H" in plain:
        assert norm_inf(value(rotated["H"], x) - q @ value(plain["H"], x) @ q.T) <= 1e-15


def test_branch_is_invariant(capsys, pair):
    name, path = pair
    columns = ("lambda", "xi0_1", "xi0_2", "sup_norm_y")
    branches = [list(csv.DictReader(io.StringIO(run(capsys, "continue", source, "--steps", "20"))))
                for source in (name, path)]
    assert len(branches[0]) == len(branches[1]) == 21
    for row, rotated in zip(*branches):
        for column in columns:
            assert abs(float(row[column]) - float(rotated[column])) <= BRANCH_TOL, (row["step"], column)


def test_degree_certificate_is_invariant(capsys, pair):
    # the seeding map of the frame is the same map: the same bytes
    name, path = pair
    assert run(capsys, "degree", name, "--method", "both") == run(capsys, "degree", path, "--method", "both")
