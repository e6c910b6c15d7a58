"""Problem-definition file format, problem builders, and serialization.

The format is line-oriented ``key = value`` under ``[section]`` headers;
matrix entries are comma-separated expressions, one row per line, in the
expression mini-language (see :mod:`daecont.expressions`).  ``#`` starts
a comment.  Three kinds are supported:

``dae1`` / ``dae2``
    sections ``[A] [B] [g] [f]`` (+ optional ``[H]``, or ``[H1]``/``[H2]``
    for ``dae2``), frame entries in ``t``, constraint entries in
    ``p1..pm`` / ``q1..qs``, forcing entries in ``t, x*, y*`` (plus
    ``u*, v*`` velocities for ``dae2``).

``semilinear``
    sections ``[E] [F] [C] [S]`` with ``E`` numeric, ``F``/``C`` entries
    in ``t`` and ``S`` entries in ``x1..xn``.

Frame derivatives are symbolic by default (the operator set is closed
under differentiation); ``derivatives = fd`` forces central differences,
and explicit ``[dA]``/``[ddA]``/``[dB]``/``[ddB]`` tables override.

Serialization lives here too: problem specs print back to the same
format, branches print to CSV, and every report type prints to JSON with
stable key order and 17-significant-digit floats, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json as _json
import math
import re
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

import numpy as np

from . import expressions as ex
from .degree import DegreeCertificate
from .errors import SchemaError
from .paths import FrameAudit, LemmaReport, MatrixPath
from .periodic import Branch, Trajectory
from .semilinear import ReductionReport, SemiLinearDae
from .transform import DaeProblem1, DaeProblem2

__all__ = [
    "ProblemSpec",
    "parse_problem",
    "problem_to_text",
    "build_problem",
    "reduced_spec",
    "expr_path",
    "serialize",
    "to_json",
    "branch_to_csv",
]

KINDS = ("dae1", "dae2", "semilinear")


@dataclass
class ProblemSpec:
    """Parsed, validated problem file (expression trees, no callables)."""

    kind: str
    name: str
    period: float
    m: int = 0
    s: int = 0
    n: int = 0
    tables: Dict[str, List[List[ex.Expr]]] = dataclass_field(default_factory=dict)
    derivative_mode: str = "analytic"
    fd_step: Optional[float] = None


_HEADER_RE = re.compile(r"^\[([A-Za-z0-9_']+)\]$")

_REQUIRED = {
    "dae1": ("A", "B", "g", "f"),
    "dae2": ("A", "B", "g", "f"),
    "semilinear": ("E", "F", "C", "S"),
}
_OPTIONAL = {
    "dae1": ("H", "dA", "ddA", "dB", "ddB"),
    "dae2": ("H1", "H2", "dA", "ddA", "dB", "ddB"),
    "semilinear": (),
}


def _split_rows(lines: List[str]) -> List[List[str]]:
    rows = []
    for line in lines:
        entries = []
        depth = 0
        start = 0
        for i, ch in enumerate(line):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                entries.append(line[start:i])
                start = i + 1
        entries.append(line[start:])
        rows.append([e.strip() for e in entries])
    return rows


def _alias_map(prefixes: Dict[str, str], dims: Dict[str, int]) -> Dict[str, ex.Var]:
    # prefixes: alias spelling -> canonical prefix; dims: canonical prefix -> size
    out = {}
    for alias, canon in prefixes.items():
        size = dims[canon]
        for k in range(1, size + 1):
            out[f"{alias}{k}"] = ex.Var(f"{canon}{k}")
        if size == 1:
            out[alias] = ex.Var(f"{canon}1")
    return out


def _parse_table(section, lines, rows_expected, cols_expected, aliases, canonical):
    rows = _split_rows(lines)
    if len(rows) != rows_expected:
        raise SchemaError(
            f"section [{section}] has {len(rows)} rows, expected {rows_expected}"
        )
    allowed = set(canonical) | set(aliases)
    table = []
    for r, row in enumerate(rows):
        if len(row) != cols_expected:
            raise SchemaError(
                f"section [{section}] row {r + 1} has {len(row)} entries, "
                f"expected {cols_expected}"
            )
        table.append([
            ex.substitute_exprs(ex.parse_expr(entry, allowed), aliases) for entry in row
        ])
    return table


def _numeric_table(section, lines, rows_expected, cols_expected) -> List[List[ex.Expr]]:
    return _parse_table(section, lines, rows_expected, cols_expected, {}, ())


def parse_problem(text: str) -> ProblemSpec:
    """Parse problem-file text into a validated :class:`ProblemSpec`."""
    sections: Dict[str, List[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            current = m.group(1)
            if current in sections:
                raise SchemaError(f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise SchemaError(f"content before any [section] header: {line!r}")
        sections[current].append(line)

    if "problem" not in sections:
        raise SchemaError("missing [problem] section")
    header: Dict[str, str] = {}
    for line in sections.pop("problem"):
        if "=" not in line:
            raise SchemaError(f"expected 'key = value' in [problem], got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in header:
            raise SchemaError(f"duplicate key {key!r} in [problem]")
        header[key] = value

    kind = header.pop("kind", None)
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    name = header.pop("name", "")

    def number(key, convert, valid, rule):
        try:
            value = convert(header.pop(key))
        except KeyError:
            raise SchemaError(f"missing '{key}' in [problem]") from None
        except ValueError as exc:
            raise SchemaError(f"bad {key}: {exc}") from None
        if not valid(value):
            raise SchemaError(f"{key} must be {rule}, got {value!r}")
        return value

    positive = lambda key: number(key, float, lambda v: math.isfinite(v) and v > 0,
                                  "finite and positive")
    int_field = lambda key: number(key, int, lambda v: v >= 1, ">= 1")
    period = positive("period")
    mode = header.pop("derivatives", "analytic")
    if mode not in ("analytic", "fd"):
        raise SchemaError(f"derivatives must be 'analytic' or 'fd', got {mode!r}")
    fd_step = positive("fd_step") if "fd_step" in header else None

    spec = ProblemSpec(kind=kind, name=name, period=period,
                       derivative_mode=mode, fd_step=fd_step)

    if kind in ("dae1", "dae2"):
        spec.m = int_field("m")
        spec.s = int_field("s")
    else:
        spec.n = int_field("n")
        if spec.n % 2 != 0:
            raise SchemaError("semilinear problems need even n")
    if header:
        raise SchemaError(f"unknown keys in [problem]: {sorted(header)}")

    allowed_sections = set(_REQUIRED[kind]) | set(_OPTIONAL[kind])
    extra = set(sections) - allowed_sections
    if extra:
        raise SchemaError(f"unknown sections for kind {kind}: {sorted(extra)}")
    missing = [s for s in _REQUIRED[kind] if s not in sections]
    if missing:
        raise SchemaError(f"missing sections: {missing}")

    m, s, n = spec.m, spec.s, spec.n
    if kind in ("dae1", "dae2"):
        t_only = ({}, ("t",))
        g_alias = _alias_map({"p": "p", "x": "p", "xi": "p"}, {"p": m}) | _alias_map(
            {"q": "q", "y": "q", "eta": "q"}, {"q": s}
        )
        g_canon = [f"p{k}" for k in range(1, m + 1)] + [f"q{k}" for k in range(1, s + 1)]
        f_alias = _alias_map({"x": "x", "xi": "x"}, {"x": m}) | _alias_map(
            {"y": "y", "eta": "y"}, {"y": s}
        )
        f_canon = ["t"] + [f"x{k}" for k in range(1, m + 1)] + [f"y{k}" for k in range(1, s + 1)]
        if kind == "dae2":
            f_alias |= _alias_map({"u": "u"}, {"u": m}) | _alias_map({"v": "v"}, {"v": s})
            f_canon += [f"u{k}" for k in range(1, m + 1)] + [f"v{k}" for k in range(1, s + 1)]
        spec.tables["A"] = _parse_table("A", sections["A"], m, m, *t_only)
        spec.tables["B"] = _parse_table("B", sections["B"], s, s, *t_only)
        spec.tables["g"] = _parse_table("g", sections["g"], s, 1, g_alias, g_canon)
        spec.tables["f"] = _parse_table("f", sections["f"], m, 1, f_alias, f_canon)
        for extra_name, dim in (("H", m), ("H1", m), ("H2", m)):
            if extra_name in sections:
                spec.tables[extra_name] = _numeric_table(
                    extra_name, sections[extra_name], dim, dim
                )
        for dname, dim in (("dA", m), ("ddA", m), ("dB", s), ("ddB", s)):
            if dname in sections:
                spec.tables[dname] = _parse_table(dname, sections[dname], dim, dim, *t_only)
    else:
        spec.tables["E"] = _numeric_table("E", sections["E"], n, n)
        spec.tables["F"] = _parse_table("F", sections["F"], n, n, {}, ("t",))
        spec.tables["C"] = _parse_table("C", sections["C"], n, n, {}, ("t",))
        s_alias = _alias_map({"x": "x"}, {"x": n})
        spec.tables["S"] = _parse_table(
            "S", sections["S"], n, 1, s_alias, [f"x{k}" for k in range(1, n + 1)]
        )
    return spec


_SECTION_ORDER = ("A", "B", "g", "f", "H", "H1", "H2", "dA", "ddA", "dB", "ddB",
                  "E", "F", "C", "S")


def problem_to_text(spec: ProblemSpec) -> str:
    """Render a spec back to file text (canonical section order)."""
    lines = ["[problem]", f"kind = {spec.kind}"]
    if spec.name:
        lines.append(f"name = {spec.name}")
    if spec.kind in ("dae1", "dae2"):
        lines.append(f"m = {spec.m}")
        lines.append(f"s = {spec.s}")
    else:
        lines.append(f"n = {spec.n}")
    lines.append(f"period = {spec.period!r}")
    if spec.derivative_mode != "analytic":
        lines.append(f"derivatives = {spec.derivative_mode}")
    if spec.fd_step is not None:
        lines.append(f"fd_step = {spec.fd_step!r}")
    for section in _SECTION_ORDER:
        if section not in spec.tables:
            continue
        lines.append("")
        lines.append(f"[{section}]")
        for row in spec.tables[section]:
            lines.append(", ".join(ex.expr_to_text(entry) for entry in row))
    return "\n".join(lines) + "\n"


def _numeric_matrix(table) -> np.ndarray:
    return np.array([[ex.eval_expr(entry, {}) for entry in row] for row in table])


def expr_path(
    table,
    period: float,
    *,
    d1_table=None,
    d2_table=None,
    derivative_mode: str = "analytic",
    fd_step: Optional[float] = None,
    name: str = "",
) -> MatrixPath:
    """Matrix path from a table of expressions in ``t``.

    Derivatives are symbolic unless a table is supplied or FD mode is
    forced.
    """
    def coerce(rows):
        if rows is None or not isinstance(rows[0][0], str):
            return rows
        return [[ex.parse_expr(entry, ("t",)) for entry in row] for row in rows]

    table = coerce(table)
    d1_table = coerce(d1_table)
    d2_table = coerce(d2_table)
    dim = len(table)
    vm = {"t": "t"}
    value = ex.compile_matrix(table, "t", vm)
    if derivative_mode == "fd":
        return MatrixPath(dim, period, value, fd_step=fd_step, name=name)
    d1_table = d1_table or [[ex.diff_expr(entry, "t") for entry in row] for row in table]
    d2_table = d2_table or [[ex.diff_expr(entry, "t") for entry in row] for row in d1_table]
    return MatrixPath(
        dim,
        period,
        value,
        d1=ex.compile_matrix(d1_table, "t", vm),
        d2=ex.compile_matrix(d2_table, "t", vm),
        name=name,
    )


def build_problem(spec: ProblemSpec):
    """Compile a spec into a runtime problem object.

    Returns :class:`DaeProblem1`, :class:`DaeProblem2` or
    :class:`SemiLinearDae` depending on the kind; the model Jacobians
    (constraint blocks, forcing, and for ``dae2`` the constraint rate) are
    generated symbolically.
    """
    if spec.kind == "semilinear":
        return _build_semilinear(spec)
    m, s = spec.m, spec.s
    a_path = expr_path(
        spec.tables["A"], spec.period,
        d1_table=spec.tables.get("dA"), d2_table=spec.tables.get("ddA"),
        derivative_mode=spec.derivative_mode, fd_step=spec.fd_step, name="A",
    )
    b_path = expr_path(
        spec.tables["B"], spec.period,
        d1_table=spec.tables.get("dB"), d2_table=spec.tables.get("ddB"),
        derivative_mode=spec.derivative_mode, fd_step=spec.fd_step, name="B",
    )
    g_vm = _indexed("p", m) | _indexed("q", s)
    g_asts = [row[0] for row in spec.tables["g"]]
    g_jacs = [_jacobian_rows(g_asts, list(g_vm)[:m]), _jacobian_rows(g_asts, list(g_vm)[m:])]
    g = ex.compile_vector(g_asts, "p, q", g_vm)
    d1g, d2g = (ex.compile_matrix(rows, "p, q", g_vm) for rows in g_jacs)
    # the same trees on stacks of points, for the batched degree zero search
    g_arrays = (ex.compile_vector(g_asts, "p, q", g_vm, arrays=True),
                *(ex.compile_matrix(rows, "p, q", g_vm, arrays=True) for rows in g_jacs))
    f_vm = {"t": "t"} | _indexed("x", m) | _indexed("y", s)
    f_asts = [row[0] for row in spec.tables["f"]]
    if spec.kind == "dae1":
        f = ex.compile_vector(f_asts, "t, x, y", f_vm)
        df = _compile_jacobian(f_asts, list(f_vm)[1:], "t, x, y", f_vm)
        h = _numeric_matrix(spec.tables["H"]) if "H" in spec.tables else None
        return DaeProblem1(
            m=m, s=s, period=spec.period, f=f, g=g, A=a_path, B=b_path,
            d1g=d1g, d2g=d2g, H=h, name=spec.name, df=df, g_arrays=g_arrays,
        )
    f_vm |= _indexed("u", m) | _indexed("v", s)
    f = ex.compile_vector(f_asts, "t, x, y, u, v", f_vm)
    df = _compile_jacobian(f_asts, list(f_vm)[1:], "t, x, y, u, v", f_vm)
    # the constraint's rate g_p u + g_q w along a motion with rates (u, w)
    rate_vm = _indexed("u", m) | _indexed("w", s)
    gdot_asts = [_ast_sum(ex.Binary("*", ex.diff_expr(gi, name), ex.Var(rate))
                          for name, rate in zip(g_vm, rate_vm)) for gi in g_asts]
    dgdot = _compile_jacobian(gdot_asts, list(g_vm), "p, q, u, w", g_vm | rate_vm)
    h1 = _numeric_matrix(spec.tables["H1"]) if "H1" in spec.tables else None
    h2 = _numeric_matrix(spec.tables["H2"]) if "H2" in spec.tables else None
    return DaeProblem2(
        m=m, s=s, period=spec.period, f=f, g=g, A=a_path, B=b_path,
        d1g=d1g, d2g=d2g, H1=h1, H2=h2, name=spec.name, df=df, dgdot=dgdot,
        g_arrays=g_arrays,
    )


def _indexed(prefix: str, size: int) -> Dict[str, str]:
    # Language variables prefix1..prefixN -> the argument entries prefix[0..N-1].
    return {f"{prefix}{k}": f"{prefix}[{k - 1}]" for k in range(1, size + 1)}


def _jacobian_rows(asts, names):
    # Symbolic Jacobian of an expression vector by the variables ``names``.
    return [[ex.diff_expr(a, name) for name in names] for a in asts]


def _compile_jacobian(asts, names, args: str, varmap):
    return ex.compile_matrix(_jacobian_rows(asts, names), args, varmap)


def _build_semilinear(spec: ProblemSpec) -> SemiLinearDae:
    n = spec.n
    mass = _numeric_matrix(spec.tables["E"])
    f_path = expr_path(spec.tables["F"], spec.period,
                       derivative_mode=spec.derivative_mode, fd_step=spec.fd_step, name="F")
    c_path = expr_path(spec.tables["C"], spec.period,
                       derivative_mode=spec.derivative_mode, fd_step=spec.fd_step, name="C")
    s_vm = _indexed("x", n)
    s_asts = [row[0] for row in spec.tables["S"]]
    s_fun = ex.compile_vector(s_asts, "x", s_vm)
    ds_fun = _compile_jacobian(s_asts, list(s_vm), "x", s_vm)
    return SemiLinearDae(n=n, period=spec.period, mass=mass, Fpath=f_path,
                         Cpath=c_path, S=s_fun, name=spec.name, dS=ds_fun)


def _scaled(coef: float, ast: ex.Expr):
    # coef * ast with folding; None encodes a dropped zero term.
    coef = float(coef)
    if coef == 0.0 or (isinstance(ast, ex.Num) and ast.value == 0.0):
        return None
    if isinstance(ast, ex.Num):
        return ex.Num(coef * ast.value)
    if coef == 1.0:
        return ast
    if coef == -1.0:
        return ex.Unary("neg", ast)
    return ex.Binary("*", ex.Num(coef), ast)


def _ast_sum(terms) -> ex.Expr:
    terms = [t for t in terms if t is not None]
    if not terms:
        return ex.Num(0.0)
    acc = terms[0]
    for t in terms[1:]:
        acc = ex.Binary("+", acc, t)
    return acc


def _conjugated_entry(table, p, q, i, j) -> ex.Expr:
    # Entry (i, j) of P.T @ table(t) @ Q as an expression tree.
    terms = []
    for a in range(p.shape[0]):
        if p[a, i] == 0.0:
            continue
        for b in range(q.shape[0]):
            terms.append(_scaled(p[a, i] * q[b, j], table[a][b]))
    return _ast_sum(terms)


def reduced_spec(spec: ProblemSpec, p: np.ndarray, sigma: np.ndarray,
                 q: np.ndarray) -> ProblemSpec:
    """Symbolic counterpart of the semi-linear reduction, for file output.

    Given the orthogonal factors diagonalizing the mass matrix, builds the
    first-order moving-constraint problem as expression tables: frame
    ``A`` and scaling ``B`` are the lower blocks of the conjugated ``F``,
    the constraint is ``p_i + q_i``, and the forcing composes the
    conjugated ``C`` blocks with the linearly substituted ``S``.
    """
    if spec.kind != "semilinear":
        raise SchemaError("reduced_spec needs a semilinear problem spec")
    n, r = spec.n, spec.n // 2
    f_table = spec.tables["F"]
    c_table = spec.tables["C"]
    a_rows = [[_conjugated_entry(f_table, p, q, r + i, j) for j in range(r)]
              for i in range(r)]
    b_rows = [[_conjugated_entry(f_table, p, q, r + i, r + j) for j in range(r)]
              for i in range(r)]
    g_rows = [[ex.Binary("+", ex.Var(f"p{i + 1}"), ex.Var(f"q{i + 1}"))] for i in range(r)]
    # x_orig = Q @ (x, y): substitute into the S entries.
    lin = {}
    for j in range(n):
        terms = [_scaled(q[j, c], ex.Var(f"x{c + 1}")) for c in range(r)]
        terms += [_scaled(q[j, r + c], ex.Var(f"y{c + 1}")) for c in range(r)]
        lin[f"x{j + 1}"] = _ast_sum(terms)
    s_sub = [ex.substitute_exprs(row[0], lin) for row in spec.tables["S"]]
    # (Q.T S)(k) then the forcing rows scaled by the inverse singular values.
    s_tilde = [_ast_sum(_scaled(q[j, k], s_sub[j]) for j in range(n)) for k in range(n)]
    f_rows = []
    for i in range(r):
        terms = []
        for k in range(n):
            coef_ast = _conjugated_entry(c_table, p, q, i, k)
            if isinstance(s_tilde[k], ex.Num) and s_tilde[k].value == 0.0:
                continue
            if isinstance(coef_ast, ex.Num):
                terms.append(_scaled(coef_ast.value, s_tilde[k]))
            else:
                terms.append(ex.Binary("*", coef_ast, s_tilde[k]))
        f_rows.append([_scaled(1.0 / sigma[i], _ast_sum(terms)) or ex.Num(0.0)])
    out = ProblemSpec(
        kind="dae1",
        name=(spec.name + "_reduced") if spec.name else "reduced",
        period=spec.period,
        m=r,
        s=r,
        derivative_mode=spec.derivative_mode,
        fd_step=spec.fd_step,
    )
    out.tables = {"A": a_rows, "B": b_rows, "g": g_rows, "f": f_rows}
    return out


# ---------------------------------------------------------------------------
# Serialization


def _fmt_float(v: float) -> str:
    if not np.isfinite(v):
        raise ValueError(f"refusing to serialize non-finite value {v!r}")
    return format(float(v), ".17g")


def _json_value(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}{_json.dumps(str(k))}: {_json_value(v, indent, level + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + closing + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        rendered = [_json_value(v, indent, level + 1) for v in obj]
        if sum(len(r) for r in rendered) <= 72 and not any("\n" in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(pad + r for r in rendered) + "\n" + closing + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    return _json_value(obj, indent, 0) + "\n"


def branch_to_csv(branch: Branch) -> str:
    """CSV rendering of a branch, one row per accepted TPair.

    Columns: step, lambda, xi0_1..m, sup_norm_x, sup_norm_y,
    periodicity_residual, constraint_residual, trivial_flag.
    """
    m = branch.pairs[0].xi0.size
    header = ["step", "lambda"] + [f"xi0_{k}" for k in range(1, m + 1)] + [
        "sup_norm_x", "sup_norm_y", "periodicity_residual",
        "constraint_residual", "trivial_flag",
    ]
    lines = [",".join(header)]
    for step, pair in enumerate(branch.pairs):
        row = [str(step), _fmt_float(pair.lam)]
        row += [_fmt_float(v) for v in pair.xi0]
        row += [
            _fmt_float(pair.trajectory.sup_norm_x()),
            _fmt_float(pair.trajectory.sup_norm_y()),
            _fmt_float(pair.periodicity_residual),
            _fmt_float(pair.constraint_residual),
            "1" if pair.is_trivial else "0",
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def serialize(result) -> str:
    """Render any result object to its canonical text form.

    Branches become CSV, problem specs become problem-file text, and all
    report types become JSON (stable key order, 17-digit floats).
    """
    if isinstance(result, Branch):
        return branch_to_csv(result)
    if isinstance(result, ProblemSpec):
        return problem_to_text(result)
    if isinstance(result, (FrameAudit, LemmaReport, ReductionReport, DegreeCertificate)):
        return to_json(result.to_dict())
    if isinstance(result, Trajectory):
        return to_json(result.to_dict())
    if isinstance(result, dict):
        return to_json(result)
    raise TypeError(f"cannot serialize {type(result).__name__}")
