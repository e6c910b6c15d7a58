"""Arithmetic expression mini-language used by problem files.

Supported syntax: float literals (with scientific notation), variables,
``sin``/``cos``/``exp`` calls, unary minus, the binary operators
``+ - * /`` and ``^`` with a nonnegative integer exponent.  Precedence is
``^`` over unary minus over ``* /`` over ``+ -``; binary operators of
equal precedence associate to the left.

Beyond parsing and evaluation the module provides symbolic
differentiation over the closed operator set (so matrix paths written as
expressions get exact derivatives), a printer whose output reparses to an
expression with identical floating-point semantics, and a compiler that
turns expression vectors/matrices into fast Python callables that carry
the same trees on stacks of points (``arrays``) and as source fragments
to inline (``fragments``).

Compiling checks that every variable is bound and returns at once: the
function's source is rendered and ``exec``-ed at its first call, so a
command pays only for the functions it calls (on one pass of the
benchmark's ``certify`` workload, 138 of the 1,258 functions its problems
build), while its fragments are available from the start.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    ExpressionSyntaxError,
    NonfiniteResultError,
    UnboundVariableError,
    UnknownIdentifierError,
)

__all__ = [
    "Num",
    "Var",
    "Unary",
    "Binary",
    "parse_expr",
    "eval_expr",
    "diff_expr",
    "expr_to_text",
    "substitute_exprs",
    "compile_vector",
    "compile_matrix",
    "Fragments",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "exp")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg", "sin", "cos" or "exp"
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "+", "-", "*", "/" or "^"
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Unary, Binary]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ExpressionSyntaxError(offset, ("number", "identifier", "operator"),
                                        f"unexpected character {text[offset]!r} at offset {offset}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _number(text: str, offset: int) -> Num:
    # A literal that rounds to inf (1e400, a 400-digit integer) has no
    # finite value to compute with, and inf has no source form to compile to.
    value = float(text)
    if not math.isfinite(value):
        raise ExpressionSyntaxError(offset, ("finite number",),
                                    f"number {text!r} at offset {offset} is not finite")
    return Num(value)


class _Parser:
    def __init__(self, text: str, variables: Optional[Iterable[str]]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = None if variables is None else set(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(offset, (op,))
        return self.advance()

    def parse(self) -> Expr:
        node = self.sum()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(offset, ("end of expression",),
                                        f"trailing input at offset {offset}: {value!r}")
        return node

    def sum(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Binary(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Binary(value, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                kind, value, offset = self.peek()
                if kind != "num" or not re.fullmatch(r"\d+", value):
                    raise ExpressionSyntaxError(offset, ("nonnegative integer exponent",))
                self.advance()
                node = Binary("^", node, _number(value, offset))
            else:
                return node

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return _number(value, offset)
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {value!r} at offset {offset}")
                self.advance()
                arg = self.sum()
                self.expect_op(")")
                return Unary(value, arg)
            if self.variables is not None and value not in self.variables:
                raise UnknownIdentifierError(f"unknown variable {value!r} at offset {offset}")
            return Var(value)
        if kind == "op" and value == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(offset, ("number", "identifier", "(", "-"))


def parse_expr(text: str, variables: Optional[Iterable[str]] = None) -> Expr:
    """Parse ``text`` into an expression tree.

    When ``variables`` is given, any identifier outside that set raises
    :class:`UnknownIdentifierError` immediately (with its offset);
    otherwise variable names are accepted freely and checked at
    evaluation time.
    """
    return _Parser(text, variables).parse()


_UNARY_FN = {"neg": lambda v: -v, "sin": math.sin, "cos": math.cos, "exp": math.exp}


def _nonfinite(exc: Exception) -> NonfiniteResultError:
    # A failed evaluation in words, "OverflowError: Numerical result out of
    # range": an overflowing float power carries an (errno, text) pair,
    # whose str() is a tuple.
    text = exc.args[-1] if exc.args else ""
    return NonfiniteResultError(f"{type(exc).__name__}: {text}")


def eval_expr(ast: Expr, env: Mapping[str, float]) -> float:
    """Evaluate an expression tree against a variable environment."""
    try:
        value = _eval(ast, env)
    except (ArithmeticError, ValueError) as exc:
        raise _nonfinite(exc) from exc
    if not math.isfinite(value):
        raise NonfiniteResultError(f"expression evaluated to {value}")
    return value


def _eval(ast: Expr, env: Mapping[str, float]) -> float:
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        try:
            return float(env[ast.name])
        except KeyError:
            raise UnboundVariableError(f"variable {ast.name!r} is not bound") from None
    if isinstance(ast, Unary):
        return _UNARY_FN[ast.op](_eval(ast.arg, env))
    left = _eval(ast.left, env)
    if ast.op == "^":
        return left ** int(ast.right.value)
    right = _eval(ast.right, env)
    if ast.op == "+":
        return left + right
    if ast.op == "-":
        return left - right
    if ast.op == "*":
        return left * right
    return left / right


def _is_zero(ast: Expr) -> bool:
    return isinstance(ast, Num) and ast.value == 0.0


def _is_one(ast: Expr) -> bool:
    return isinstance(ast, Num) and ast.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Unary("neg", b)
    return Binary("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Binary("*", a, b)


def diff_expr(ast: Expr, var: str) -> Expr:
    """Symbolic derivative of ``ast`` with respect to ``var``.

    Covers the full operator set of the language; results are lightly
    simplified (zero/one folding) but not canonicalized.
    """
    if isinstance(ast, Num):
        return Num(0.0)
    if isinstance(ast, Var):
        return Num(1.0) if ast.name == var else Num(0.0)
    if isinstance(ast, Unary):
        inner = diff_expr(ast.arg, var)
        if ast.op == "neg":
            return Num(0.0) if _is_zero(inner) else Unary("neg", inner)
        if ast.op == "sin":
            return _mul(Unary("cos", ast.arg), inner)
        if ast.op == "cos":
            return _mul(Unary("neg", Unary("sin", ast.arg)), inner)
        return _mul(Unary("exp", ast.arg), inner)  # exp
    if ast.op == "+":
        return _add(diff_expr(ast.left, var), diff_expr(ast.right, var))
    if ast.op == "-":
        return _sub(diff_expr(ast.left, var), diff_expr(ast.right, var))
    if ast.op == "*":
        return _add(
            _mul(diff_expr(ast.left, var), ast.right),
            _mul(ast.left, diff_expr(ast.right, var)),
        )
    if ast.op == "/":
        num = _sub(
            _mul(diff_expr(ast.left, var), ast.right),
            _mul(ast.left, diff_expr(ast.right, var)),
        )
        return Binary("/", num, Binary("^", ast.right, Num(2.0)))
    # integer power
    n = int(ast.right.value)
    if n == 0:
        return Num(0.0)
    du = diff_expr(ast.left, var)
    if n == 1:
        return du
    return _mul(_mul(Num(float(n)), Binary("^", ast.left, Num(float(n - 1)))), du)


def substitute_exprs(ast: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by whole expression trees."""
    if isinstance(ast, Num):
        return ast
    if isinstance(ast, Var):
        return mapping.get(ast.name, ast)
    if isinstance(ast, Unary):
        return Unary(ast.op, substitute_exprs(ast.arg, mapping))
    return Binary(ast.op, substitute_exprs(ast.left, mapping),
                  substitute_exprs(ast.right, mapping))


def expr_to_text(ast: Expr) -> str:
    """Render a tree as text that reparses with identical evaluation.

    Output is fully parenthesized, so operator structure survives the
    round trip bit-for-bit; numbers are printed with ``repr`` which is
    exact for doubles.
    """
    if isinstance(ast, Num):
        text = repr(float(ast.value))
        # a bare leading minus would rebind under ^ on reparse
        return f"({text})" if text.startswith("-") else text
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Unary):
        if ast.op == "neg":
            return f"(-{expr_to_text(ast.arg)})"
        return f"{ast.op}({expr_to_text(ast.arg)})"
    if ast.op == "^":
        return f"({expr_to_text(ast.left)}^{int(ast.right.value)})"
    return f"({expr_to_text(ast.left)} {ast.op} {expr_to_text(ast.right)})"


def _source(ast: Expr, varmap: Mapping[str, str], lib: str = "math", bare: bool = False) -> str:
    # Python source of a tree; ``lib`` names the module of sin/cos/exp:
    # ``math`` for floats, ``np`` for arrays.  A left-associated chain of
    # + and - (or of * and /) takes one pair of parentheses, its left
    # operands rendered ``bare``: a pair per operator would pass the
    # parser's nesting limit on a long sum.  Python evaluates the chain
    # left to right, as the tree does.
    if isinstance(ast, Num):
        return f"({float(ast.value)!r})"
    if isinstance(ast, Var):
        try:
            return varmap[ast.name]
        except KeyError:
            raise UnboundVariableError(f"variable {ast.name!r} is not bound") from None
    if isinstance(ast, Unary):
        if ast.op == "neg":
            return f"(-{_source(ast.arg, varmap, lib)})"
        return f"{lib}.{ast.op}({_source(ast.arg, varmap, lib)})"
    if ast.op == "^":
        return f"({_source(ast.left, varmap, lib)})**{int(ast.right.value)}"
    left = ast.left
    chain = type(left) is Binary and left.op != "^" and (left.op in "+-") == (ast.op in "+-")
    text = f"{_source(left, varmap, lib, chain)} {ast.op} {_source(ast.right, varmap, lib)}"
    return text if bare else f"({text})"


_COMPILE_GLOBALS = {"math": math, "np": np, "ArithmeticError": ArithmeticError,
                    "ValueError": ValueError, "_nonfinite": _nonfinite,
                    "float": float, "str": str, "__builtins__": {}}


def _compile(args: str, body: Callable[[], str], trees, varmap: Mapping[str, str],
             dims: tuple) -> Callable:
    # A def rather than a lambda, so that math failures (exp overflow, a
    # domain error) raise NonfiniteResultError as in eval_expr; the try
    # costs nothing on calls that do not raise.  Arguments are read as
    # Python floats, whose powers raise on overflow and whose division
    # raises on zero, where numpy scalars would warn and go on with inf.
    # ``body()`` renders the returned expression at the first call;
    # ``trees`` (flat, a matrix of shape ``dims`` row by row) give the
    # fragment target and the array target.  A variable of the trees that
    # ``varmap`` does not bind fails here.
    _check_bound(trees, varmap)

    def render():
        text = body()
        lines = [f"def compiled({args}):"]
        for arg in (a.strip() for a in args.split(",")):
            if re.search(rf"\b{arg}\[", text):
                lines.append(f"    {arg} = np.asarray({arg}, dtype=float).tolist()")
            elif re.search(rf"\b{arg}\b", text):
                lines.append(f"    {arg} = float({arg})")
        return lines + ["    try:", f"        return {text}",
                        "    except (ArithmeticError, ValueError) as exc:",
                        "        raise _nonfinite(exc) from exc", ""]

    compiled = _lazy(render)
    compiled.fragments = Fragments(args, trees, varmap, dims)
    compiled.arrays = _compile_arrays(args, trees, varmap, dims)
    return compiled


class Fragments:
    """The fragment target of a compiled function: its trees as Python
    source over names the caller picks, for inlining into emitted code.

    :meth:`statements` binds each argument to local names and assigns
    every entry (a matrix row by row) to a target; ``shape`` is the shape
    of the function's value.  Fragments compare equal, and hash alike,
    when they render the same source, so a cache of emitted code keyed by
    them is shared by every parse of one problem.  The templates are
    rendered from the trees on the first request.
    """

    GLOBALS = {"math": math, "_nonfinite": _nonfinite}  # the names the statements read

    def __init__(self, args: str, trees, varmap: Mapping[str, str], shape: tuple):
        self.args = tuple(a.strip() for a in args.split(","))
        self._trees, self._varmap = tuple(trees), dict(varmap)
        self.shape = shape

    @functools.cached_property
    def templates(self) -> tuple:
        """The entries as ``str.format`` templates: the source fragment of
        each variable, ``x[0]`` or ``t``, becomes the field ``{x[0]}`` or ``{t}``."""
        braced = {k: "{" + v + "}" for k, v in self._varmap.items()}
        return tuple(_source(a, braced) for a in self._trees)

    def __eq__(self, other):
        return (isinstance(other, Fragments) and self.args == other.args
                and self.templates == other.templates)

    def __hash__(self):
        return hash((self.args, self.templates))

    def statements(self, targets: Sequence[str], *names) -> list:
        """Lines that set ``targets`` to the entries at the arguments ``names``.

        Each of ``names`` is a sequence of local names for a vector
        argument, or one name for a scalar one.  A failed evaluation raises
        :class:`NonfiniteResultError` as the compiled function does, and
        the entries are evaluated in order, so the first failure is the
        function's.  No target may be one of ``names``.
        """
        bound = dict(zip(self.args, names))
        lines = [f"    {target} = {template.format(**bound)}"
                 for target, template in zip(targets, self.templates)]
        return ["try:", *lines, "except (ArithmeticError, ValueError) as exc:",
                "    raise _nonfinite(exc) from exc"]


def _exec(lines) -> Callable:
    namespace = dict(_COMPILE_GLOBALS)
    exec("\n".join(lines), namespace)
    return namespace["compiled"]


def _check_bound(trees, varmap: Mapping[str, str]) -> None:
    # Raise for the first variable of the trees, in the order _source
    # renders them, that ``varmap`` does not bind: the error _source would
    # raise, without rendering.
    stack = list(reversed(trees))
    while stack:
        ast = stack.pop()
        kind = type(ast)
        if kind is Binary:
            stack += (ast.right, ast.left)
        elif kind is Unary:
            stack.append(ast.arg)
        elif kind is Var and ast.name not in varmap:
            raise UnboundVariableError(f"variable {ast.name!r} is not bound")


def _lazy(render: Callable[[], list]) -> Callable:
    # The function whose source lines ``render()`` gives, rendered and
    # compiled at its first call and kept, so set-up pays nothing for a
    # function that a run never calls.
    fn = None

    def compiled(*values):
        nonlocal fn
        if fn is None:
            fn = _exec(render())
        return fn(*values)

    return compiled


def _compile_arrays(args: str, trees, varmap: Mapping[str, str], dims: tuple) -> Callable:
    # Array target: every argument is a stack of vectors (``x[0]`` reads
    # ``x[..., 0]``), and the trees fill an array of shape stack + dims,
    # row by row.  Overflow, division by zero and invalid operations raise
    # NonfiniteResultError like the float target; underflow goes to zero
    # as in math.exp.
    def render():
        names = [a.strip() for a in args.split(",")]
        stacked = {k: re.sub(r"\[(\d+)\]", r"[..., \1]", v) for k, v in varmap.items()}
        lines = [f"def compiled({args}):"]
        lines += [f"    {n} = np.asarray({n}, dtype=float)" for n in names]
        shapes = ", ".join(f"{n}.shape[:-1]" for n in names)
        lines += [f"    out = np.empty(np.broadcast_shapes({shapes}) + {dims!r})",
                  "    with np.errstate(over='raise', divide='raise', invalid='raise'):",
                  "        try:"]
        lines += [f"            out[..., {', '.join(map(str, index))}] = "
                  f"{_source(ast, stacked, 'np')}" for index, ast in zip(np.ndindex(dims), trees)]
        return lines + ["        except ArithmeticError as exc:",
                        "            raise _nonfinite(exc) from exc",
                        "    return out", ""]

    return _lazy(render)


def compile_vector(asts: Sequence[Expr], args: str, varmap: Mapping[str, str]) -> Callable:
    """Compile a list of expressions to a function ``(<args>) -> np.ndarray``.

    ``varmap`` maps language variables to Python source fragments over
    the function arguments (e.g. ``{"x2": "x[1]"}``).  The generated
    source is built entirely from the validated tree.  Arithmetic
    failures raise :class:`NonfiniteResultError`.

    The function carries ``fragments``, a :class:`Fragments` that renders
    the same trees as statements over local names of the caller's: the
    float march inlines them (see :mod:`daecont.kernel`).

    A variable that ``varmap`` does not bind raises
    :class:`UnboundVariableError` here; the source is rendered and
    compiled at the function's first call, once, from copies of the trees
    and ``varmap``, and ``fragments`` need no compile.

    The function also carries ``arrays``, the same trees on stacks,
    rendered and compiled at its own first call: every argument is an
    array of vectors along its last axis (``x[..., 1]``), and the result
    has the broadcast stack shape followed by the vector's length.  It
    raises :class:`NonfiniteResultError` on overflow, division by zero and
    invalid operations, not on underflow.  Every form of the trees lives
    on the one function, so whatever replaces it replaces them all.
    """
    asts, varmap = tuple(asts), dict(varmap)  # rendered at the first call, from copies

    def body():
        return "np.array([" + ", ".join(_source(a, varmap) for a in asts) + "])"

    return _compile(args, body, asts, varmap, (len(asts),))


def compile_matrix(rows: Sequence[Sequence[Expr]], args: str, varmap: Mapping[str, str]) -> Callable:
    """Compile a matrix of expressions like :func:`compile_vector`.

    Its ``fragments`` render the entries row by row.  It too checks the
    variables here and renders and compiles its source at its first call,
    and carries its stacked form as ``arrays``.
    """
    rows, varmap = tuple(map(tuple, rows)), dict(varmap)  # rendered at the first call, from copies

    def body():
        return "np.array([" + ", ".join(
            "[" + ", ".join(_source(a, varmap) for a in row) + "]" for row in rows) + "])"

    return _compile(args, body, [a for row in rows for a in row], varmap,
                    (len(rows), len(rows[0])))
