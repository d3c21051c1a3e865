import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdro.expr import (BinOp, Call, DomainError, Expression, ExprError, Neg, Num,
                       ParseError, UnboundVariableError, Var, compile_expr, eval_expr,
                       format_expr, join, parse_expr, split, variables)
from oracles import reference_eval

B = {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}


def test_parse_product():
    assert parse_expr("x*x") == BinOp("*", Var("x"), Var("x"))


def test_parse_call():
    assert parse_expr("max(1 - x, 0)") == Call(
        "max", (BinOp("-", Num(1.0), Var("x")), Num(0.0)))


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("x +* 2")
    assert err.value.position == 3


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expr("x + w")
    with pytest.raises(ParseError, match="unknown function"):
        parse_expr("cosh(x)")


@pytest.mark.parametrize("source, message, position", [
    ("(x + 1", "expected ')'", 6),
    ("sin(x", "expected ')'", 5),
    ("x + .", "malformed number", 4),
    ("max(x)", "max takes 2 argument(s), got 1", 0),
    ("sin(x, 1)", "sin takes 1 argument(s), got 2", 0),
    # an exponent error is at the end of the operator, before any whitespace
    ("x^ 2.5", "exponent must be a non-negative integer literal", 2),
    ("(x + 1  ", "expected ')'", 8),
    ("_x", "expected an operand", 0),
    ("é", "unknown identifier 'é'", 0),
    ("x1.5", "unknown identifier 'x1'", 0),
    ("1.5.3", "unexpected trailing input", 3),
    ("x* *2", "expected an operand", 3),
    # nesting beyond MAX_DEPTH = 100 levels, each shape at a length
    # that exhausted Python's recursion limit in a `gdro solve` before the cap
    ("(" * 197 + "x" + ")" * 197, "expression nests deeper than 100 levels", 99),
    ("sin(" * 197 + "x" + ")" * 197, "expression nests deeper than 100 levels", 396),
    ("+".join(["0*y"] * 495), "expression nests deeper than 100 levels", 395),
    ("x" + "+x" * 990, "expression nests deeper than 100 levels", 199),
    ("x" + "^1" * 990, "expression nests deeper than 100 levels", 199),
    ("-" * 990 + "x", "expression nests deeper than 100 levels", 99),
])
def test_parse_error_messages_and_offsets(source, message, position):
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_expr(source)
    assert err.value.position == position


@pytest.mark.parametrize("source, want", [
    ("x\u00a0+\u20031", BinOp("+", Var("x"), Num(1.0))),  # no-break space, em space
    ("1.e5*x", BinOp("*", Num(100000.0), Var("x"))),
])
def test_scanner_edges(source, want):
    assert parse_expr(source) == want


def test_scanner_reads_one_token_at_a_time():
    # a scanner that lists every token up front takes seconds and hundreds
    # of MiB on this input before the nesting cap stops the parse
    source = "x" + "+x" * 10 ** 6
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="nests deeper") as err:
            parse_expr(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.position == 199
    assert peak < 2 ** 20


def test_empty_and_trailing():
    with pytest.raises(ParseError):
        parse_expr("   ")
    with pytest.raises(ParseError, match="trailing"):
        parse_expr("1 2")


def test_precedence():
    assert eval_expr(parse_expr("2+3*4"), B) == 14.0
    assert eval_expr(parse_expr("2*3^2"), B) == 18.0
    assert eval_expr(parse_expr("-x^2"), {**B, "x": 3.0}) == -9.0
    assert eval_expr(parse_expr("6/3/2"), B) == 1.0
    assert eval_expr(parse_expr("2-3-4"), B) == -5.0
    assert eval_expr(parse_expr("(2-3)*4"), B) == -4.0


def test_pow_exponent_restrictions():
    for bad in ("x^-2", "x^2.5", "x^y", "x^(1/2)"):
        with pytest.raises(ParseError):
            parse_expr(bad)
    assert eval_expr(parse_expr("x^0"), {**B, "x": 7.0}) == 1.0
    assert eval_expr(parse_expr("x**3"), {**B, "x": 2.0}) == 8.0


def test_eval_examples():
    assert eval_expr(parse_expr("x*x"), {"x": 2.0}) == 4.0
    assert eval_expr(parse_expr("max(1-x,0)"), {"x": 0.25}) == 0.75
    assert eval_expr(parse_expr("pos(y - 1)"), {"y": 0.4}) == 0.0
    assert eval_expr(parse_expr("neg(y - 1)"), {"y": 0.4}) == pytest.approx(0.6)
    assert eval_expr(parse_expr("abs(x - 1)"), {"x": -1.5}) == 2.5


def test_whitespace_insensitivity():
    a = parse_expr("max(1-x,0)*exp( t )")
    b = parse_expr("  max( 1 - x , 0 ) * exp(t)")
    assert a == b


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_expr(parse_expr("y + 1"), {"x": 0.0})


def test_domain_errors_identify_node():
    with pytest.raises(DomainError, match="division by zero"):
        eval_expr(parse_expr("1/(x-1)"), {"x": 1.0})
    with pytest.raises(DomainError, match="log"):
        eval_expr(parse_expr("log(x)"), {"x": 0.0})
    with pytest.raises(DomainError, match="sqrt"):
        eval_expr(parse_expr("sqrt(x)"), {"x": -1.0})


def test_exp_overflow_saturates():
    assert eval_expr(parse_expr("exp(x)"), {"x": 1e4}) == math.inf


@pytest.mark.parametrize("source, x, want", [
    ("1e200^2", 0.0, math.inf), ("x^2", -1e200, math.inf),
    ("x^3", -1e200, -math.inf), ("x**3", 1e200, math.inf), ("x^4", -1e100, math.inf)])
def test_float_power_overflow_saturates(source, x, want):
    # a Python float's power raised OverflowError where a double saturates
    assert eval_expr(parse_expr(source), {"x": x}) == want
    assert reference_eval(parse_expr(source), {"x": x}) == want


@pytest.mark.parametrize("source, position", [
    ("²", 0), ("1²", 1), ("٣", 0), ("x + ١", 4), ("2*1e٣", 3)])
def test_numbers_are_ascii_decimal_literals(source, position):
    # str.isdigit takes these; float() rejected '²' with a bare ValueError
    # and read '٣' as 3
    with pytest.raises(ParseError) as err:
        parse_expr(source)
    assert err.value.position == position


def test_infinite_exponent_rejected():
    # int(inf) raised OverflowError out of the parser
    with pytest.raises(ParseError, match="non-negative integer literal") as err:
        parse_expr("x^1e400")
    assert err.value.position == 2


def test_array_evaluation():
    x = np.linspace(-1.0, 1.0, 11)
    out = eval_expr(parse_expr("max(1-x,0)"), {"x": x})
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, np.maximum(1 - x, 0))


def test_array_domain_error():
    x = np.array([0.5, -0.25])
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(x)"), {"x": x})


def test_variables():
    assert variables(parse_expr("t + sin(x)*y")) == frozenset({"t", "x", "y"})
    assert variables(parse_expr("1 + 2")) == frozenset()


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(lambda v: Num(abs(v))),
    st.sampled_from([Var(v) for v in ("t", "x", "y", "z")]),
    st.just(Num(math.inf)),  # what a literal such as 1e400 parses to
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda op, a, b: BinOp(op, a, b),
                  st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(lambda a, e: BinOp("^", a, Num(float(e))),
                  children, st.integers(min_value=0, max_value=4)),
        st.builds(lambda f, a: Call(f, (a,)),
                  st.sampled_from(["abs", "exp", "log", "sin", "cos", "sqrt", "pos", "neg"]),
                  children),
        st.builds(lambda f, a, b: Call(f, (a, b)),
                  st.sampled_from(["min", "max"]), children, children),
    )


ast_strategy = st.recursive(_leaf, _extend, max_leaves=20)


@given(ast_strategy)
@settings(max_examples=300)
def test_format_parse_round_trip(expr):
    assert parse_expr(format_expr(expr)) == expr


_text = st.lists(
    st.sampled_from(tuple("+-*/^(),.eE txyz0123456789\u0663\u00b2\t\n\u00a0\u2003_\u00e9")
                    + ("**", "1e400", "sin(", "max(")),
    max_size=40).map(lambda parts: "".join(parts)[:40])


@given(_text)
@settings(max_examples=500, deadline=None)
def test_random_text_parses_or_raises_and_round_trips(source):
    try:
        expr = parse_expr(source)
    except ParseError:
        return
    assert isinstance(expr, Expression)
    assert parse_expr(format_expr(expr)) == expr


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_pos_neg_identities(a):
    bind = {"y": a}
    pos = eval_expr(parse_expr("pos(y)"), bind)
    neg = eval_expr(parse_expr("neg(y)"), bind)
    assert pos - neg == a
    assert pos + neg == abs(a)


@given(st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
       st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
       st.sampled_from(["+", "-", "*", "/"]))
def test_literal_arithmetic_exact(a, b, op):
    if op == "/" and b == 0.0:
        return
    got = eval_expr(parse_expr("(%s) %s (%s)" % (repr(a), op, repr(b))), B)
    want = {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else None}[op]
    assert got == want  # 0 ulp


_value = st.floats(width=64)
_binding = st.one_of(_value, st.lists(_value, min_size=3, max_size=3).map(np.array))
_bindings = st.one_of(
    st.fixed_dictionaries({v: _binding for v in ("t", "x", "y", "z")}),
    # a variable may be left unbound
    st.fixed_dictionaries({}, optional={v: _binding for v in ("t", "x", "y", "z")}))


def _outcome(evaluate, bindings):
    """What evaluate(bindings) returns, or the ExprError it raises."""
    try:
        with np.errstate(all="ignore"):
            return evaluate(bindings)
    except ExprError as err:
        return err


@given(ast_strategy, _bindings)
@settings(max_examples=500, deadline=None)
def test_compiled_matches_tree_walk(expr, bindings):
    got = _outcome(compile_expr(expr), bindings)
    want = _outcome(lambda b: reference_eval(expr, b), bindings)
    assert type(got) is type(want)
    if isinstance(want, Exception):
        # a DomainError's args name its node; an UnboundVariableError's the name
        assert got.args == want.args
        assert getattr(got, "node", None) == getattr(want, "node", None)
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        # the sign of a NaN from nan + -nan depends on interpreter warm-up
        # (CPython's generic float add gives -nan, its specialized one
        # +nan), so NaNs match by position and every other value by bits
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_split_keeps_variable_free_subtrees():
    # sin(2) and the Num leaves reference no variable, so none is cut
    residual, subtrees = split(parse_expr("sin(2)*y + 3*z - 1"), ("y", "z"))
    assert residual == parse_expr("sin(2)*y + 3*z - 1")
    assert subtrees == []


def test_split_cuts_maximal_subtrees_left_to_right():
    f = parse_expr("sin(x + 3)*cos(t + 0.3) - 0.3*y + 0.1*z*cos(x + t)")
    residual, subtrees = split(f, ("y", "z"))
    assert subtrees == [parse_expr("sin(x + 3)*cos(t + 0.3)"), parse_expr("cos(x + t)")]
    # the Num leaves 0.3 and 0.1 stay in place
    assert residual == BinOp("+", BinOp("-", Var("_k0"), BinOp("*", Num(0.3), Var("y"))),
                             BinOp("*", BinOp("*", Num(0.1), Var("z")), Var("_k1")))
    assert join(residual, subtrees) == f


def test_split_of_a_tree_free_of_y_and_z_is_one_subtree():
    f = parse_expr("exp(-t)*x^2 + 1")
    assert split(f, ("y", "z")) == (Var("_k0"), [f])


def test_split_of_a_y_z_only_driver_is_unchanged():
    f = parse_expr("max(y, -2) - 0.5*abs(z)/(1 + y^2)")
    assert split(f, ("y", "z")) == (f, [])


def test_split_residual_evaluates_to_the_tree():
    f = parse_expr("min(y, exp(t)*sin(x)) + pos(z - t^2) + neg(y - x)")
    residual, subtrees = split(f, ("y", "z"))
    b = {"t": 0.3, "x": np.linspace(-1.0, 1.0, 7), "y": np.linspace(2.0, -2.0, 7), "z": 0.25}
    ks = {"_k%d" % i: eval_expr(e, b) for i, e in enumerate(subtrees)}
    assert np.array_equal(eval_expr(residual, dict(b, **ks)), eval_expr(f, b))
