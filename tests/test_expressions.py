import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbudget.errors import DivisionNearZeroError, ExpressionParseError, MissingValueError
from dpbudget.expressions import (
    Binary,
    BinaryOp,
    Constant,
    Negate,
    StatRef,
    evaluate,
    evaluate_batch,
    format_expression,
    free_statistics,
    parse_expression,
)

from dpbudget.propagation import gradient_at_reference

from helpers import DEEP_EXPRESSIONS, make_workload, random_tree


def test_parse_sum():
    assert parse_expression("s2 + s3") == Binary(BinaryOp.ADD, StatRef("s2"), StatRef("s3"))


def test_parse_quotient_of_sum():
    expected = Binary(BinaryOp.DIV, Binary(BinaryOp.ADD, StatRef("s1"), StatRef("s2")), StatRef("s4"))
    assert parse_expression("(s1 + s2) / s4") == expected


def test_parse_precedence_and_associativity():
    assert parse_expression("s1 + s2 * s3") == Binary(
        BinaryOp.ADD, StatRef("s1"), Binary(BinaryOp.MUL, StatRef("s2"), StatRef("s3"))
    )
    assert parse_expression("s1 - s2 - s3") == Binary(
        BinaryOp.SUB, Binary(BinaryOp.SUB, StatRef("s1"), StatRef("s2")), StatRef("s3")
    )
    assert parse_expression("-s1 * s2") == Binary(BinaryOp.MUL, Negate(StatRef("s1")), StatRef("s2"))
    assert parse_expression("--s1") == Negate(Negate(StatRef("s1")))


def test_parse_numbers():
    assert parse_expression("3.5") == Constant(3.5)
    assert parse_expression("1e-06") == Constant(1e-06)
    assert parse_expression(".25") == Constant(0.25)


def test_parse_incomplete_input_reports_offset():
    with pytest.raises(ExpressionParseError) as excinfo:
        parse_expression("s1 + ")
    assert excinfo.value.offset == 5
    assert excinfo.value.expected


def test_parse_rejects_garbage():
    with pytest.raises(ExpressionParseError):
        parse_expression("s1 $ s2")
    with pytest.raises(ExpressionParseError):
        parse_expression("(s1 + s2")
    with pytest.raises(ExpressionParseError):
        parse_expression("s1 s2")
    with pytest.raises(ExpressionParseError):
        parse_expression("1e999")


_OPERAND = ("number", "identifier", "'-'", "'('")
_OPERATOR = ("'+'", "'-'", "'*'", "'/'", "end of input")
_CLOSE = ("')'",)

# (text, offset, expected, message) for every way the grammar can fail.
PARSE_ERRORS = [
    ("", 0, _OPERAND, "unexpected 'end of input'"),
    ("   ", 3, _OPERAND, "unexpected 'end of input'"),
    ("s1 +", 4, _OPERAND, "unexpected 'end of input'"),
    ("s1 + ", 5, _OPERAND, "unexpected 'end of input'"),
    ("s1 s2", 3, _OPERATOR, "unexpected 's2'"),
    ("(s1 + s2", 8, _CLOSE, "unexpected 'end of input'"),
    ("(s1 s2)", 4, _CLOSE, "unexpected 's2'"),
    ("s1)", 2, _OPERATOR, "unexpected ')'"),
    ("1e999", 0, ("number",), "numeric literal '1e999' out of range"),
    ("s1 * 1e999", 5, ("number",), "numeric literal '1e999' out of range"),
    ("s1 $ s2", 3, _OPERAND, "unexpected character '$'"),
    ("(", 1, _OPERAND, "unexpected 'end of input'"),
    (")", 0, _OPERAND, "unexpected ')'"),
    ("()", 1, _OPERAND, "unexpected ')'"),
    ("-", 1, _OPERAND, "unexpected 'end of input'"),
    ("- -", 3, _OPERAND, "unexpected 'end of input'"),
    ("* s1", 0, _OPERAND, "unexpected '*'"),
    ("s1 + * s2", 5, _OPERAND, "unexpected '*'"),
    ("(s1))", 4, _OPERATOR, "unexpected ')'"),
    ("((s1) 2)", 6, _CLOSE, "unexpected '2'"),
    ("-(s1 + )", 7, _OPERAND, "unexpected ')'"),
    ("s1 / (s2 * (s3 + 4)", 19, _CLOSE, "unexpected 'end of input'"),
    ("2 (s1)", 2, _OPERATOR, "unexpected '('"),
    ("s1 @", 3, _OPERAND, "unexpected character '@'"),
    ("@ s1 +", 0, _OPERAND, "unexpected character '@'"),
    ("(s1 + $", 6, _OPERAND, "unexpected character '$'"),
    ("\u00e9", 0, _OPERAND, "unexpected character '\u00e9'"),
    ("1.5.2", 3, _OPERATOR, "unexpected '.2'"),
    ("3e", 1, _OPERATOR, "unexpected 'e'"),
    ("s1 -- ", 6, _OPERAND, "unexpected 'end of input'"),
    ("(s1 + s2) s3", 10, _OPERATOR, "unexpected 's3'"),
    ("-s1 )", 4, _OPERATOR, "unexpected ')'"),
]


@pytest.mark.parametrize("text, offset, expected, message", PARSE_ERRORS)
def test_parse_error_offset_expected_and_message(text, offset, expected, message):
    with pytest.raises(ExpressionParseError) as excinfo:
        parse_expression(text)
    assert (excinfo.value.offset, excinfo.value.expected) == (offset, expected)
    assert str(excinfo.value) == f"at offset {offset}: {message} (expected {', '.join(expected)})"


# The dataclass __eq__ and __repr__ recurse, so deep trees are compared by
# their formatted text, never with ==.
DEEP_REFS = {"s1": 1.0, "s2": 2.0}
# (shape, statistics, value at DEEP_REFS, gradient at DEEP_REFS)
DEEP_CASES = [
    ("sum", {"s1"}, 5000.0, {"s1": 5000.0}),
    ("parens", {"s1"}, 1.0, {"s1": 2002.0}),
    ("minus", {"s2"}, -2.0, {"s2": -1.0}),
]


@pytest.mark.parametrize("shape, names, value, gradient", DEEP_CASES, ids=[case[0] for case in DEEP_CASES])
def test_deep_expressions_need_no_recursion(shape, names, value, gradient):
    text = DEEP_EXPRESSIONS[shape]
    tree = parse_expression(text)
    assert format_expression(tree) == text
    assert format_expression(parse_expression(format_expression(tree))) == text
    assert free_statistics(tree) == names
    assert evaluate(tree, DEEP_REFS) == value
    assert gradient_at_reference(tree, DEEP_REFS) == gradient
    samples = {name: np.full(4, ref) for name, ref in DEEP_REFS.items()}
    invalid = np.zeros(4, dtype=bool)
    assert np.array_equal(evaluate_batch(tree, samples, invalid), np.full(4, value))
    assert not invalid.any()


@pytest.mark.parametrize("shape", sorted(DEEP_EXPRESSIONS))
def test_deep_trees_compare_hash_and_print_without_recursion(shape):
    text = DEEP_EXPRESSIONS[shape]
    tree, same = parse_expression(text), parse_expression(text)
    assert tree == same and hash(tree) == hash(same)
    assert tree != parse_expression(f"{text} + s1")
    printed = repr(tree)
    assert printed == repr(same)
    assert printed.count("StatRef(") == text.count("s1") + text.count("s2")
    assert printed.count("Negate(") == text.count("-")
    stats = (("s1", 1.0, 1.0), ("s2", 1.0, 2.0))
    assert make_workload(stats=stats, equations=(("deep", text, 1.0),)) == make_workload(
        stats=stats, equations=(("deep", text, 1.0),)
    )


def test_structural_equality_hash_and_repr():
    left_deep, right_deep = parse_expression("(s1 + s2) + s3"), parse_expression("s1 + (s2 + s3)")
    assert left_deep != right_deep
    assert Binary(BinaryOp.ADD, StatRef("s1"), StatRef("s2")) != Binary(BinaryOp.SUB, StatRef("s1"), StatRef("s2"))
    assert StatRef("s1") != Constant(1.0) and Negate(StatRef("s1")) != StatRef("s1")
    assert Constant(1) == Constant(1.0) and hash(Constant(1)) == hash(Constant(1.0))
    assert {parse_expression("s1 * 2"), parse_expression("s1*2.0")} == {Binary(BinaryOp.MUL, StatRef("s1"), Constant(2))}
    assert repr(parse_expression("-(s1 + 2) / x")) == (
        "Binary(op=<BinaryOp.DIV: '/'>, left=Negate(operand=Binary(op=<BinaryOp.ADD: '+'>, "
        "left=StatRef(name='s1'), right=Constant(value=2.0))), right=StatRef(name='x'))"
    )


def test_repr_of_a_long_sum_is_linear_text():
    # Long enough that copying each subtree's text into its parent's would take seconds.
    terms = 20_000
    tree = parse_expression(" + ".join(["s1"] * terms))
    expected = (
        "Binary(op=<BinaryOp.ADD: '+'>, left=" * (terms - 1)
        + "StatRef(name='s1')"
        + ", right=StatRef(name='s1'))" * (terms - 1)
    )
    assert repr(tree) == expected


def test_format_examples():
    assert format_expression(Binary(BinaryOp.ADD, StatRef("s2"), StatRef("s3"))) == "s2 + s3"
    quotient = Binary(BinaryOp.DIV, Binary(BinaryOp.ADD, StatRef("s1"), StatRef("s2")), StatRef("s4"))
    assert format_expression(quotient) == "(s1 + s2) / s4"
    assert format_expression(
        Binary(BinaryOp.ADD, StatRef("s1"), Binary(BinaryOp.MUL, StatRef("s2"), StatRef("s3")))
    ) == "s1 + s2 * s3"
    assert format_expression(Negate(Binary(BinaryOp.MUL, StatRef("a"), StatRef("b")))) == "-(a * b)"


def test_format_parse_round_trip_randomized():
    rng = random.Random(20240501)
    ids = ["s1", "s2", "s3", "alpha", "x_9"]
    for _ in range(1000):
        tree = random_tree(rng, ids, depth=6)
        assert parse_expression(format_expression(tree)) == tree


def test_free_statistics():
    assert free_statistics(parse_expression("s2 + s3")) == {"s2", "s3"}
    assert free_statistics(parse_expression("3.5")) == set()
    assert free_statistics(parse_expression("(s1 + s2) / s4")) == {"s1", "s2", "s4"}


def test_evaluate_examples():
    assert evaluate(parse_expression("s2 + s3"), {"s2": 5, "s3": 7}) == 12
    assert evaluate(parse_expression("(s1 + s2) / s4"), {"s1": 10, "s2": 20, "s4": 5}) == 6


def test_evaluate_division_guard():
    ast = parse_expression("(s1 + s2) / s4")
    with pytest.raises(DivisionNearZeroError):
        evaluate(ast, {"s1": 1, "s2": -1, "s4": 1e-15})


def test_evaluate_batch_flags_near_zero_denominators():
    tree = parse_expression("s1 / s2")
    invalid = np.zeros(3, dtype=bool)
    out = evaluate_batch(tree, {"s1": np.array([1.0, 2.0, 3.0]), "s2": np.array([2.0, 1e-13, -4.0])}, invalid)
    assert invalid.tolist() == [False, True, False]
    assert out.tolist() == [0.5, 2.0, -0.75]
    # A scalar denominator near zero flags every sample.
    invalid = np.zeros(3, dtype=bool)
    out = evaluate_batch(parse_expression("s1 / 0"), {"s1": np.array([1.0, 2.0, 3.0])}, invalid)
    assert invalid.all()
    assert out.tolist() == [1.0, 2.0, 3.0]


def test_walkers_reject_foreign_nodes():
    for walk in (format_expression, free_statistics, repr, lambda node: evaluate(node, {"s1": 1.0})):
        with pytest.raises(TypeError):
            walk(Binary(BinaryOp.ADD, StatRef("s1"), "s2"))


def test_evaluate_missing_value():
    with pytest.raises(MissingValueError) as excinfo:
        evaluate(parse_expression("s1 + s9"), {"s1": 1})
    assert excinfo.value.statistic_id == "s9"


def test_evaluate_is_deterministic():
    ast = parse_expression("(s1 * s2 - 3.5) / (s1 + 2)")
    values = {"s1": 1.7, "s2": -0.3}
    assert evaluate(ast, values) == evaluate(ast, values)


# abs() keeps -0.0 out: the parser can only produce nonnegative constants.
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(lambda v: Constant(abs(v))),
    st.sampled_from(["s1", "s2", "s3"]).map(StatRef),
)
_tree = st.recursive(
    _leaf,
    lambda children: st.one_of(
        children.map(Negate),
        st.tuples(st.sampled_from(list(BinaryOp)), children, children).map(lambda t: Binary(*t)),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(tree=_tree)
def test_format_parse_round_trip_property(tree):
    assert parse_expression(format_expression(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(
    op=st.sampled_from(list(BinaryOp)),
    left=_tree,
    right=_tree,
    v1=st.floats(min_value=0.5, max_value=9.0),
    v2=st.floats(min_value=0.5, max_value=9.0),
    v3=st.floats(min_value=0.5, max_value=9.0),
)
def test_evaluate_compositionality(op, left, right, v1, v2, v3):
    values = {"s1": v1, "s2": v2, "s3": v3}
    try:
        lv = evaluate(left, values)
        rv = evaluate(right, values)
        combined = evaluate(Binary(op, left, right), values)
    except DivisionNearZeroError:
        return
    if op is BinaryOp.ADD:
        assert combined == lv + rv
    elif op is BinaryOp.SUB:
        assert combined == lv - rv
    elif op is BinaryOp.MUL:
        assert combined == lv * rv
    else:
        assert combined == lv / rv
