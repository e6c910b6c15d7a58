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
    Fragments,
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
from daecont.fixtures import PROBLEMS, load_fixture
from daecont.semilinear import SemiLinearDae, reduce_semilinear


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

    @pytest.mark.parametrize("text, offset", [("x1 + 1e400", 5),
                                              ("2 * 1" + "0" * 400, 4),
                                              ("q^" + "9" * 400, 2)])
    def test_nonfinite_literal_rejected_at_its_offset(self, text, offset):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.offset == offset and "not finite" in str(exc.value)

    def test_largest_finite_literal_accepted(self):
        assert parse_expr("1.7976931348623157e308") == Num(1.7976931348623157e308)

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


def inlined(fn, *values):
    # the entries of fn's fragment target, its statements run on locals
    # bound to values (a list for a vector argument, a float for a scalar)
    env, names = {}, []
    for k, value in enumerate(values):
        local = [f"a{k}_{i}" for i in range(len(value))] if isinstance(value, list) else f"a{k}"
        env.update(zip(local, value) if isinstance(value, list) else [(local, value)])
        names.append(local)
    targets = [f"out{i}" for i in range(len(fn.fragments.templates))]
    exec("\n".join(fn.fragments.statements(targets, *names)), dict(Fragments.GLOBALS), env)
    return [env[target] for target in targets]


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
            assert inlined(fn, env["a"], env["b"], env["c"]) == [expected]

    def test_vector_and_matrix(self):
        vm = {"x1": "x[0]", "x2": "x[1]"}
        vec = compile_vector([parse_expr("x1 + x2"), parse_expr("x1 * x2")], "x", vm)
        assert np.array_equal(vec(np.array([2.0, 3.0])), [5.0, 6.0])
        mat = compile_matrix([[parse_expr("cos(t)"), parse_expr("-sin(t)")],
                              [parse_expr("sin(t)"), parse_expr("cos(t)")]], "t", {"t": "t"})
        t = 0.3
        assert np.allclose(mat(t), [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], atol=0)
        # the fragment targets: Python floats in and out, a matrix row by row
        assert inlined(vec, [2.0, 3.0]) == [5.0, 6.0]
        assert inlined(mat, t) == mat(t).ravel().tolist()
        assert mat.fragments.templates is mat.fragments.templates  # rendered once
        # fragments of equal source are equal, whatever parse made them
        again = compile_vector([parse_expr("x1 + x2"), parse_expr("x1 * x2")], "x", vm)
        assert again.fragments == vec.fragments and hash(again.fragments) == hash(vec.fragments)
        assert again.fragments != compile_vector([parse_expr("x2 + x1")], "x", vm).fragments

    @pytest.mark.parametrize("text", [
        "x1" + " - 0.25*x1 + 0.5/x1" * 150,  # a chain of + and -, each term a product
        "x1" + " * 1.5 / x1" * 150,  # a chain of * and /
    ])
    def test_long_chain_compiles_in_every_target(self, text):
        # 300 operators: more than Python's parser takes nested parentheses
        ast, vm = parse_expr(text), {"x1": "x[0]"}
        fn = compile_vector([ast], "x", vm)
        expected = eval_expr(ast, {"x1": 1.25})
        assert fn([1.25]).tolist() == inlined(fn, [1.25]) == [expected]
        assert fn.arrays(np.array([[1.25]])).tolist() == [[expected]]

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
            with pytest.raises(NonfiniteResultError):
                inlined(fn, [value])


class TestCompileOnFirstCall:
    """A function is rendered and compiled at its first call, and only then."""

    @pytest.mark.parametrize("name", ["rotating_surface", "rotating_surface_2nd"])
    def test_model_functions_compile_at_their_first_call(self, name, exec_calls):
        prob = load_fixture(name)
        assert exec_calls == [0]
        x, y = np.array([0.3, 0.1]), np.array([0.2])
        f_args = (0.5, x, y) if prob.order == 1 else (0.5, x, y, 0.5 * x, 0.5 * y)
        # the stacked form of g compiles apart from g, at its own first call
        for fn, args in ((prob.f, f_args), (prob.g, (x, y)), (prob.d1g, (x, y)),
                         (prob.A._value, (0.5,)), (prob.g.arrays, (x[None], y[None]))):
            before = exec_calls[0]
            first = fn(*args)
            assert exec_calls[0] == before + 1  # compiled once, at the first call
            assert np.array_equal(fn(*args), first) and exec_calls[0] == before + 1

    def test_fragments_need_no_compile(self, exec_calls):
        fn = compile_vector([parse_expr("x1 * t")], "t, x", {"t": "t", "x1": "x[0]"})
        assert inlined(fn, 2.0, [3.0]) == [6.0] and exec_calls == [0]

    def test_unbound_variable_fails_at_compile_time(self, exec_calls):
        # the first unbound variable in the order the entries are written
        vm = {"x1": "x[0]"}
        ast = parse_expr("x1 + z2 * z1")
        with pytest.raises(UnboundVariableError) as interpreted:
            eval_expr(ast, {"x1": 1.0})
        for compile_, trees in ((compile_vector, [parse_expr("x1"), ast]),
                                (compile_matrix, [[parse_expr("x1")], [ast]])):
            with pytest.raises(UnboundVariableError) as compiled:
                compile_(trees, "x", vm)
            assert str(compiled.value) == str(interpreted.value) == "variable 'z2' is not bound"
        assert exec_calls == [0]

    def test_later_changes_to_the_inputs_do_not_reach_the_function(self):
        trees, vm = [parse_expr("x1 + 1")], {"x1": "x[0]"}
        vec = compile_vector(trees, "x", vm)
        rows = [[parse_expr("x1 + 1")]]
        mat = compile_matrix(rows, "x", vm)
        trees[0], rows[0][0], vm["x1"] = parse_expr("x1 - 1"), parse_expr("x1 - 1"), "x[1]"
        assert vec([2.0, 5.0]).tolist() == [3.0] and mat([2.0, 5.0]).tolist() == [[3.0]]

    @pytest.mark.parametrize("text, value", [
        ("exp(1000*x1)", 1.0),  # exp overflow
        ("1/x1", 0.0),  # division by zero
        ("x1^400", 10.0),  # float power overflow
        ("sin(x1)^3 - 2/x1", 0.7),  # a value
    ])
    def test_values_and_failures_are_those_of_eval_expr(self, text, value, exec_calls):
        ast, vm = parse_expr(text), {"x1": "x[0]"}
        fns = compile_vector([ast], "x", vm), compile_matrix([[ast]], "x", vm)
        try:
            expected = eval_expr(ast, {"x1": value})
        except NonfiniteResultError as exc:
            for fn in fns * 2:  # a failed call keeps its compiled function
                with pytest.raises(NonfiniteResultError) as compiled:
                    fn(np.array([value]))
                assert str(compiled.value) == str(exc)
        else:
            assert [fn(np.array([value])).ravel().tolist() for fn in fns] == [[expected]] * 2
        assert exec_calls == [2]


class TestArrayTarget:
    """The same trees on stacks of points: a few ULP from the float target."""

    @staticmethod
    def first_order(name):
        prob = load_fixture(name)
        return reduce_semilinear(prob) if isinstance(prob, SemiLinearDae) else prob

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_constraint_matches_float_target(self, name):
        prob = self.first_order(name)
        rng = np.random.default_rng(11)
        p = rng.uniform(-2.0, 2.0, (200, prob.m))
        q = rng.uniform(-2.0, 2.0, (200, prob.s))
        for point_fn in (prob.g, prob.d1g, prob.d2g):
            got = point_fn.arrays(p, q)
            ref = np.array([point_fn(pi, qi) for pi, qi in zip(p, q)])
            assert got.shape == ref.shape
            # sin, cos, exp and powers may round differently on arrays
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref).max()))

    def test_stack_shape_broadcasts_constant_entries(self):
        vm = {"p1": "p[0]", "q1": "q[0]"}
        fn = compile_matrix([[parse_expr("1"), parse_expr("2*q1")]], "p, q", vm).arrays
        out = fn(np.zeros((3, 1)), np.arange(3.0)[:, None])
        assert out.shape == (3, 1, 2)
        assert np.array_equal(out[:, 0, 0], [1.0, 1.0, 1.0])
        assert np.array_equal(out[:, 0, 1], [0.0, 2.0, 4.0])

    @pytest.mark.parametrize("text, value", [
        ("exp(800*x1)", 1.0),  # overflow
        ("1/x1", 0.0),  # division by zero
        ("x1^400", 10.0),  # overflow in a power
    ])
    def test_overflow_raises_in_both_targets(self, text, value):
        ast, vm = parse_expr(text), {"x1": "x[0]"}
        with pytest.raises(NonfiniteResultError):
            compile_vector([ast], "x", vm)(np.array([value]))
        with pytest.raises(NonfiniteResultError):
            compile_vector([ast], "x", vm).arrays(np.array([[0.5], [value]]))

    @pytest.mark.parametrize("text, value, message", [
        ("x1^400", 10.0, "OverflowError: Numerical result out of range"),
        ("1/x1", 0.0, "ZeroDivisionError: float division by zero"),
    ])
    def test_failure_is_named_in_words(self, text, value, message):
        # the exception's class and text, not the str() of an (errno, text) pair
        ast, vm = parse_expr(text), {"x1": "x[0]"}
        with pytest.raises(NonfiniteResultError) as compiled:
            compile_vector([ast], "x", vm)(np.array([value]))
        with pytest.raises(NonfiniteResultError) as interpreted:
            eval_expr(ast, {"x1": value})
        assert str(compiled.value) == str(interpreted.value) == message
        with pytest.raises(NonfiniteResultError, match=r"^FloatingPointError: \w+"):
            compile_vector([ast], "x", vm).arrays(np.array([[value]]))

    def test_underflow_raises_in_neither_target(self):
        ast, vm = parse_expr("exp(-800*x1)"), {"x1": "x[0]"}
        assert compile_vector([ast], "x", vm)(np.array([1.0]))[0] == 0.0
        out = compile_vector([ast], "x", vm).arrays(np.array([[1.0], [2.0]]))
        assert np.array_equal(out, [[0.0], [0.0]])
