"""Arithmetic expressions over statistic references: parse, print, evaluate.

The surface grammar is plain infix arithmetic:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := NUMBER | IDENT | "-" factor | "(" expr ")"

Operators are left-associative, "*" and "/" bind tighter than "+" and "-",
and IDENT matches ``[A-Za-z_][A-Za-z0-9_]*``. The parser and every walk
over a tree are loops, so any length and nesting depth is accepted.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .errors import DivisionNearZeroError, ExpressionParseError, MissingValueError

if TYPE_CHECKING:
    import numpy as np

# Denominators at or below this magnitude are treated as division by zero.
DIVISION_GUARD = 1e-12


class BinaryOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


class Expr:
    """Base class for expression nodes. Trees are immutable once built.

    Equality, hashing and repr are structural, as for dataclasses, but are
    loops over the tree, so they work at any depth.
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _structure(self) == _structure(other)

    def __hash__(self):
        return hash(_structure(self))

    def __repr__(self):
        # One preorder walk that emits each node's text around its children,
        # joined once, so the cost is linear in the size of the text.
        pieces: list[str] = []
        pending: list[tuple[bool, Any]] = [(False, self)]  # (is text, text or node), last first
        while pending:
            is_text, item = pending.pop()
            kind = type(item)
            if is_text:
                pieces.append(item)
            elif kind is Binary:
                pieces.append(f"Binary(op={item.op!r}, left=")
                pending += ((True, ")"), (False, item.right), (True, ", right="), (False, item.left))
            elif kind is Negate:
                pieces.append("Negate(operand=")
                pending += ((True, ")"), (False, item.operand))
            elif kind is StatRef:
                pieces.append(f"StatRef(name={item.name!r})")
            elif kind is Constant:
                pieces.append(f"Constant(value={item.value!r})")
            else:
                raise TypeError(f"not an expression node: {item!r}")
        return "".join(pieces)


@dataclass(frozen=True, eq=False, repr=False)
class Constant(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class StatRef(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Negate(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Binary(Expr):
    op: BinaryOp
    left: Expr
    right: Expr


_NUMBER_RE = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT_RE = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"(?P<number>{_NUMBER_RE})|(?P<ident>{_IDENT_RE})|(?P<punct>[+\-*/()])")

_FACTOR_EXPECTED = ("number", "identifier", "'-'", "'('")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionParseError(pos, _FACTOR_EXPECTED, f"unexpected character {text[pos]!r}")
        tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", size))
    return tokens


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def parse_expression(text: str) -> Expr:
    """Parses infix arithmetic over statistic ids into an expression tree.

    Raises:
        ExpressionParseError: with the character offset of the failure and
            the token kinds that would have been accepted there.
    """
    operands: list[Expr] = []
    operators: list[str] = []  # "(", "neg" (unary minus) and binary operators awaiting a right operand
    depth = 0
    expect_operand = True
    for kind, token, offset in _tokenize(text):
        if expect_operand:
            if kind == "number":
                value = float(token)
                if not math.isfinite(value):
                    raise ExpressionParseError(offset, ("number",), f"numeric literal {token!r} out of range")
                operands.append(Constant(value))
            elif kind == "ident":
                operands.append(StatRef(token))
            elif token == "-":
                operators.append("neg")
                continue
            elif token == "(":
                operators.append("(")
                depth += 1
                continue
            else:
                raise ExpressionParseError(offset, _FACTOR_EXPECTED, f"unexpected {token or 'end of input'!r}")
            expect_operand = False
        elif kind == "punct" and token in _PRECEDENCE:
            while operators and operators[-1] in _PRECEDENCE and _PRECEDENCE[operators[-1]] >= _PRECEDENCE[token]:
                _reduce(operands, operators.pop())
            operators.append(token)
            expect_operand = True
            continue
        elif depth:
            if token != ")":
                raise ExpressionParseError(offset, ("')'",), f"unexpected {token or 'end of input'!r}")
            while operators[-1] != "(":
                _reduce(operands, operators.pop())
            operators.pop()
            depth -= 1
        elif kind != "end":
            raise ExpressionParseError(offset, ("'+'", "'-'", "'*'", "'/'", "end of input"), f"unexpected {token!r}")
        # An operand just ended: unary minuses bind to it before any binary operator.
        while operators and operators[-1] == "neg":
            operators.pop()
            operands[-1] = Negate(operands[-1])
    # Only a complete expression at depth 0 gets past the end token.
    while operators:
        _reduce(operands, operators.pop())
    return operands[0]


def _reduce(operands: list[Expr], operator: str) -> None:
    right = operands.pop()
    operands[-1] = Binary(BinaryOp(operator), operands[-1], right)


def _postorder(root: Expr) -> list[Expr]:
    """Every node of the tree, children before parents and left before right;
    TypeError for anything that is not a node. Iterative, so any depth works."""
    order = []
    pending = [root]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is Binary:
            pending.append(node.left)
            pending.append(node.right)
        elif kind is Negate:
            pending.append(node.operand)
        elif kind is not Constant and kind is not StatRef:
            raise TypeError(f"not an expression node: {node!r}")
        order.append(node)
    order.reverse()
    return order


def _structure(root: Expr) -> tuple:
    """The tree as one (kind, field) pair per node in postorder; equal exactly when the trees are."""
    key = []
    for node in _postorder(root):
        kind = type(node)
        if kind is Binary:
            key.append((kind, node.op))
        elif kind is Negate:
            key.append((kind, None))
        elif kind is StatRef:
            key.append((kind, node.name))
        else:
            key.append((kind, node.value))
    return tuple(key)


# Above every binary operator in _PRECEDENCE: leaves and negations never need parentheses.
_PREC_ATOM = 3


def format_expression(node: Expr) -> str:
    """Renders a tree as canonical text with minimal parentheses.

    ``parse_expression(format_expression(tree))`` reproduces the tree
    structurally for every tree the parser can produce (in particular,
    constants are nonnegative; signs live in Negate nodes).
    """
    stack: list[tuple[str, int]] = []  # (text, precedence) of each finished subtree
    for part in _postorder(node):
        kind = type(part)
        if kind is Binary:
            right, right_prec = stack.pop()
            left, left_prec = stack.pop()
            prec = _PRECEDENCE[part.op.value]
            if left_prec < prec:
                left = f"({left})"
            if right_prec <= prec:
                right = f"({right})"
            stack.append((f"{left} {part.op.value} {right}", prec))
        elif kind is Negate:
            inner, inner_prec = stack.pop()
            stack.append((f"-{inner}" if inner_prec == _PREC_ATOM else f"-({inner})", _PREC_ATOM))
        elif kind is StatRef:
            stack.append((part.name, _PREC_ATOM))
        else:
            stack.append((repr(part.value), _PREC_ATOM))
    return stack[0][0]


def free_statistics(node: Expr) -> set[str]:
    """Returns the set of statistic ids referenced anywhere in the tree."""
    return {leaf.name for leaf in _postorder(node) if type(leaf) is StatRef}


def _guarded_divide(left: float, right: float) -> float:
    """``left / right``, refusing a denominator within DIVISION_GUARD of zero."""
    if abs(right) < DIVISION_GUARD:
        raise DivisionNearZeroError(f"denominator {right!r} is within {DIVISION_GUARD} of zero")
    return left / right


def evaluate(node: Expr, values: Mapping[str, float]) -> float:
    """Evaluates the tree at the given statistic values.

    Raises:
        MissingValueError: a referenced id has no entry in ``values``.
        DivisionNearZeroError: a denominator magnitude fell below
            ``DIVISION_GUARD``.
    """
    return _evaluate(node, values, float, _guarded_divide)


def evaluate_batch(node: Expr, values: Mapping[str, np.ndarray], invalid: np.ndarray):
    """Vectorized evaluation over sample arrays.

    Samples whose denominators come within DIVISION_GUARD of zero are
    flagged in ``invalid`` (a boolean array the caller owns) and computed
    with a substitute denominator of 1.0 so the rest of the batch survives.
    Returns an array, or a scalar when the tree is constant.
    """
    import numpy as np  # here, so that parsing and validation never load numpy

    def divide(left, right):
        near_zero = np.abs(right) < DIVISION_GUARD
        if near_zero.any():
            np.logical_or(invalid, near_zero, out=invalid)
            right = np.where(near_zero, 1.0, right)
        return left / right

    return _evaluate(node, values, np.asarray, divide)


def _evaluate(root: Expr, values: Mapping, leaf: Callable, divide: Callable):
    """The one evaluation walk; ``leaf`` converts each looked-up value and ``divide`` is the division rule."""
    stack = []
    for node in _postorder(root):
        kind = type(node)
        if kind is Binary:
            right = stack.pop()
            left = stack[-1]
            op = node.op
            if op is BinaryOp.ADD:
                stack[-1] = left + right
            elif op is BinaryOp.SUB:
                stack[-1] = left - right
            elif op is BinaryOp.MUL:
                stack[-1] = left * right
            else:
                stack[-1] = divide(left, right)
        elif kind is Negate:
            stack[-1] = -stack[-1]
        elif kind is StatRef:
            try:
                value = values[node.name]
            except KeyError:
                raise MissingValueError(node.name) from None
            stack.append(leaf(value))
        else:
            stack.append(node.value)
    return stack[0]
