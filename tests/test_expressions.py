import math

import numpy as np
import pytest

from daecont.errors import (
    ExpressionSyntaxError,
    NonfiniteResultError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from daecont.expressions import (
    Binary,
    Num,
    Unary,
    Var,
    compile_matrix,
    compile_vector,
    diff_expr,
    eval_expr,
    expr_to_text,
    parse_expr,
    substitute_exprs,
)


class TestParse:
    def test_constraint_polynomial(self):
        ast = parse_expr("q^3 + q - p1^2 - 2*p2^2")
        assert eval_expr(ast, {"q": 1.0, "p1": 0.0, "p2": 0.0}) == 2.0

    def test_sin_at_zero(self):
        assert eval_expr(parse_expr("sin(t)"), {"t": 0.0}) == 0.0

    def test_precedence(self):
        assert eval_expr(parse_expr("2*3+4"), {}) == 10.0
        assert eval_expr(parse_expr("2*(3+4)"), {}) == 14.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_expr(parse_expr("-2^2"), {}) == -4.0
        assert eval_expr(parse_expr("-q^2"), {"q": 3.0}) == -9.0

    def test_left_associative(self):
        assert eval_expr(parse_expr("8-4-2"), {}) == 2.0
        assert eval_expr(parse_expr("8/4/2"), {}) == 1.0

    def test_scientific_literals(self):
        assert eval_expr(parse_expr("1e-3 + 2.5E2"), {}) == 1e-3 + 2.5e2

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr("1 + * 2")
        assert exc.value.offset == 4

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("1 + 2 )")

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("tanh(t)")

    def test_unknown_variable_with_declared_set(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("t + z", variables=("t",))

    def test_exponent_must_be_integer_literal(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("q^t")
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("q^2.5")
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("q^-2")


class TestEval:
    def test_sum(self):
        assert eval_expr(parse_expr("x1+y1"), {"x1": 1.0, "y1": 2.0}) == 3.0

    def test_cos_squared_at_pi(self):
        assert eval_expr(parse_expr("cos(t)^2"), {"t": math.pi}) == pytest.approx(1.0)

    def test_semilinear_field_entry(self):
        val = eval_expr(parse_expr("(2+cos(t))*x1+x2+y1"),
                        {"t": 0.0, "x1": 1.0, "x2": 1.0, "y1": 1.0})
        assert val == 5.0

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            eval_expr(parse_expr("x1 + x2"), {"x1": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(NonfiniteResultError):
            eval_expr(parse_expr("1/t"), {"t": 0.0})

    def test_overflow(self):
        with pytest.raises(NonfiniteResultError):
            eval_expr(parse_expr("exp(t)"), {"t": 1e4})

    def test_domain_error(self):
        with pytest.raises(NonfiniteResultError):
            eval_expr(parse_expr("sin(t)"), {"t": float("inf")})


class TestDiff:
    @pytest.mark.parametrize("text", [
        "sin(t)*cos(t)",
        "t^3 + 2*t - 5",
        "exp(sin(t))",
        "cos(t^2)",
        "(t + 1)/(t^2 + 3)",
        "-sin(2*t)",
    ])
    def test_against_central_difference(self, text):
        ast = parse_expr(text)
        dast = diff_expr(ast, "t")
        rng = np.random.default_rng(0)
        for t0 in rng.uniform(-2, 2, size=8):
            h = 1e-6
            ref = (eval_expr(ast, {"t": t0 + h}) - eval_expr(ast, {"t": t0 - h})) / (2 * h)
            assert eval_expr(dast, {"t": t0}) == pytest.approx(ref, abs=1e-7, rel=1e-7)

    def test_other_variable_constant(self):
        assert eval_expr(diff_expr(parse_expr("q^3 + q"), "p"), {"q": 2.0}) == 0.0

    def test_power_rule(self):
        dast = diff_expr(parse_expr("q^5"), "q")
        assert eval_expr(dast, {"q": 2.0}) == 5 * 2.0**4


def _random_ast(rng, depth, variables=("a", "b", "c")):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(float(round(rng.uniform(-5, 5), 3)))
        return Var(str(rng.choice(variables)))
    pick = rng.random()
    if pick < 0.25:
        op = str(rng.choice(["neg", "sin", "cos", "exp"]))
        return Unary(op, _random_ast(rng, depth - 1, variables))
    if pick < 0.35:
        return Binary("^", _random_ast(rng, depth - 1, variables), Num(float(rng.integers(0, 4))))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return Binary(op, _random_ast(rng, depth - 1, variables), _random_ast(rng, depth - 1, variables))


class TestRoundTrip:
    def test_print_parse_evaluates_identically(self):
        # 100 random trees, several environments each, exact double equality
        rng = np.random.default_rng(42)
        for _ in range(100):
            ast = _random_ast(rng, depth=4)
            text = expr_to_text(ast)
            reparsed = parse_expr(text)
            for _ in range(20):
                env = {v: float(rng.uniform(-2, 2)) for v in ("a", "b", "c")}
                try:
                    expected = eval_expr(ast, env)
                except NonfiniteResultError:
                    with pytest.raises(NonfiniteResultError):
                        eval_expr(reparsed, env)
                    continue
                assert eval_expr(reparsed, env) == expected

    def test_parsed_trees_reprint_identically(self):
        for text in ("q^3 + q - p1^2 - 2*p2^2", "cos(t)", "-sin(t)", "(2+cos(t))*x1+x2+y1"):
            ast = parse_expr(text)
            assert parse_expr(expr_to_text(ast)) == ast


class TestSubstitution:
    def test_rename(self):
        ast = substitute_exprs(parse_expr("xi1 + eta1"), {"xi1": Var("x1"), "eta1": Var("y1")})
        assert eval_expr(ast, {"x1": 2.0, "y1": 3.0}) == 5.0

    def test_tree_substitution(self):
        ast = substitute_exprs(parse_expr("x^2"), {"x": parse_expr("a + b")})
        assert eval_expr(ast, {"a": 1.0, "b": 2.0}) == 9.0


class TestCompile:
    def test_scalar_matches_eval(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            ast = _random_ast(rng, depth=4)
            fn = compile_vector([ast], "a, b, c", {"a": "a", "b": "b", "c": "c"})
            env = {v: float(rng.uniform(-1.5, 1.5)) for v in ("a", "b", "c")}
            try:
                expected = eval_expr(ast, env)
            except NonfiniteResultError:
                continue
            assert fn(env["a"], env["b"], env["c"])[0] == expected

    def test_vector_and_matrix(self):
        vm = {"x1": "x[0]", "x2": "x[1]"}
        vec = compile_vector([parse_expr("x1 + x2"), parse_expr("x1 * x2")], "x", vm)
        assert np.array_equal(vec(np.array([2.0, 3.0])), [5.0, 6.0])
        mat = compile_matrix([[parse_expr("cos(t)"), parse_expr("-sin(t)")],
                              [parse_expr("sin(t)"), parse_expr("cos(t)")]], "t", {"t": "t"})
        t = 0.3
        assert np.allclose(mat(t), [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], atol=0)

    @pytest.mark.parametrize("text, value", [
        ("exp(1000*x1) - x1", 1.0),  # OverflowError in math.exp
        ("sin(x1^400) - x1", 10.0),  # OverflowError in the float power
    ])
    def test_compiled_failures_are_nonfinite_results(self, text, value):
        ast = parse_expr(text)
        fns = (compile_vector([ast], "x", {"x1": "x[0]"}),
               compile_matrix([[ast]], "x", {"x1": "x[0]"}))
        for fn in fns:
            with pytest.raises(NonfiniteResultError):
                fn(np.array([value]))
