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
turns expression vectors/matrices into fast Python callables.
"""

from __future__ import annotations

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
                node = Binary("^", node, Num(float(int(value))))
            else:
                return node

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
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


def eval_expr(ast: Expr, env: Mapping[str, float]) -> float:
    """Evaluate an expression tree against a variable environment."""
    try:
        value = _eval(ast, env)
    except (ArithmeticError, ValueError) as exc:
        raise NonfiniteResultError(str(exc)) from exc
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


def _source(ast: Expr, varmap: Mapping[str, str]) -> str:
    if isinstance(ast, Num):
        return f"({float(ast.value)!r})"
    if isinstance(ast, Var):
        try:
            return varmap[ast.name]
        except KeyError:
            raise UnboundVariableError(f"variable {ast.name!r} is not bound") from None
    if isinstance(ast, Unary):
        if ast.op == "neg":
            return f"(-{_source(ast.arg, varmap)})"
        return f"math.{ast.op}({_source(ast.arg, varmap)})"
    if ast.op == "^":
        return f"({_source(ast.left, varmap)})**{int(ast.right.value)}"
    return f"({_source(ast.left, varmap)} {ast.op} {_source(ast.right, varmap)})"


_COMPILE_GLOBALS = {"math": math, "np": np, "ArithmeticError": ArithmeticError,
                    "ValueError": ValueError, "NonfiniteResultError": NonfiniteResultError,
                    "float": float, "str": str, "__builtins__": {}}


def _compile(args: str, body: str) -> Callable:
    # A def rather than a lambda, so that math failures (exp overflow, a
    # domain error) raise NonfiniteResultError as in eval_expr; the try
    # costs nothing on calls that do not raise.  Arguments are read as
    # Python floats, whose powers raise on overflow and whose division
    # raises on zero, where numpy scalars would warn and go on with inf.
    lines = [f"def compiled({args}):"]
    for arg in (a.strip() for a in args.split(",")):
        if re.search(rf"\b{arg}\[", body):
            lines.append(f"    {arg} = np.asarray({arg}, dtype=float).tolist()")
        elif re.search(rf"\b{arg}\b", body):
            lines.append(f"    {arg} = float({arg})")
    lines += ["    try:", f"        return {body}",
              "    except (ArithmeticError, ValueError) as exc:",
              "        raise NonfiniteResultError(str(exc)) from exc", ""]
    namespace = dict(_COMPILE_GLOBALS)
    exec("\n".join(lines), namespace)
    return namespace["compiled"]


def compile_vector(asts: Sequence[Expr], args: str, varmap: Mapping[str, str]) -> Callable:
    """Compile a list of expressions to a function ``(<args>) -> np.ndarray``.

    ``varmap`` maps language variables to Python source fragments over
    the function arguments (e.g. ``{"x2": "x[1]"}``).  The generated
    source is built entirely from the validated tree.  Arithmetic
    failures raise :class:`NonfiniteResultError`.
    """
    return _compile(args, "np.array([" + ", ".join(_source(a, varmap) for a in asts) + "])")


def compile_matrix(rows: Sequence[Sequence[Expr]], args: str, varmap: Mapping[str, str]) -> Callable:
    """Compile a matrix of expressions like :func:`compile_vector`."""
    body = ", ".join("[" + ", ".join(_source(a, varmap) for a in row) + "]" for row in rows)
    return _compile(args, f"np.array([{body}])")
