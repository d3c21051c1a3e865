"""Parser and evaluator for the closed-form coefficient functions.

Grammar (whitespace-insensitive):

    expr     ::= term (('+' | '-') term)*
    term     ::= unary (('*' | '/') unary)*
    unary    ::= '-' unary | power
    power    ::= atom (('^' | '**') atom)*        # exponent: non-negative integer literal
    atom     ::= NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'
    NUMBER   ::= ([0-9]+ ('.' [0-9]*)? | '.' [0-9]+) ([eE] [+-]? [0-9]+)?
    NAME     ::= a letter (str.isalpha) followed by letters, digits (str.isalnum) or '_'

Whitespace is anything str.isspace takes.  An expression nests at most
MAX_DEPTH levels; a deeper one is a ParseError at the offset where it
crosses the cap.

Variables are restricted to t, x, y, z.  Functions: min, max (binary);
abs, exp, log, sin, cos, sqrt, pos, neg (unary), where pos(a) = max(a, 0)
and neg(a) = max(-a, 0).  Evaluation follows IEEE double semantics
(a float power that overflows saturates to +-inf, as exp does) and accepts
numpy arrays as bindings, broadcasting elementwise.

``compile_expr`` turns a tree into nested closures, once; calling the
result on a bindings dict makes only the node's numpy and math calls,
with no dispatch on node types.  The solvers evaluate every coefficient
and the driver that way, once per block of rows or once per step.
``eval_expr`` compiles and evaluates in one call.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .record import Record

VARIABLES = ("t", "x", "y", "z")
UNARY_FUNCTIONS = ("abs", "exp", "log", "sin", "cos", "sqrt", "pos", "neg")
BINARY_FUNCTIONS = ("min", "max")
#: the most levels an expression may nest, where each operator, function
#: call, unary minus and pair of parentheses is one.  Parsing recurses up to
#: seven frames per level; under Python's default recursion limit of 1000,
#: `gdro solve` without the cap fails from 140 nested parentheses (136
#: under pytest)
MAX_DEPTH = 100


class ExprError(ValueError):
    """Base class for parse- and eval-time expression errors."""


class ParseError(ExprError):
    def __init__(self, message, position):
        super().__init__(message, position)
        self.message, self.position = message, position

    def __str__(self):
        return "%s (offset %d)" % (self.message, self.position)


class UnboundVariableError(ExprError):
    pass


class DomainError(ExprError):
    """Division by zero, log of a non-positive value, or sqrt of a negative."""

    def __init__(self, message, node):
        super().__init__(message, node)
        self.message, self.node = message, node

    def __str__(self):
        return "%s in %r" % (self.message, format_expr(self.node))


class Expression(Record, frozen=True):
    """Immutable AST node; safe to share once parsed."""


class Num(Expression):
    value: float


class Var(Expression):
    name: str


class Neg(Expression):
    operand: Expression


class BinOp(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression


class Call(Expression):
    func: str
    args: tuple


#: the token at an offset: whitespace, then a NUMBER, a word of letters,
#: digits and '_', '**', any other single character, or '' at the end of the
#: input.  re's \s takes what str.isspace does, and \w what str.isalnum does
#: and '_', on every code point (checked exhaustively on CPython 3.11)
_TOKEN = re.compile(r"\s*((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|\w+|\*\*|.?)",
                    re.DOTALL)


class _Parser:
    def __init__(self, source):
        self.source = source
        self.open = 0  # the groups, calls and unary minuses around the parse
        self.token, self.at = "", 0  # the next token and its offset
        self.take()

    def take(self):
        """Read the next token: return it and its offset, and scan the one after."""
        token, at = self.token, self.at
        m = _TOKEN.match(self.source, at + len(token))
        self.token, self.at = m[1], m.start(1)
        return token, at

    def close(self):
        if self.token != ")":
            raise ParseError("expected ')'", self.at)
        self.take()

    def level(self, height, at):
        """``height`` + 1, the height of a node at ``at`` over its operands."""
        if self.open + height + 1 > MAX_DEPTH:
            raise ParseError("expression nests deeper than %d levels" % MAX_DEPTH, at)
        return height + 1

    def enter(self, at):
        """Open a group, call or unary minus at ``at``; ``self.open -= 1`` closes it."""
        self.open += 1
        self.level(0, at)

    def parse(self):
        node, _ = self.expr()
        if self.token:
            raise ParseError("unexpected trailing input", self.at)
        return node

    def expr(self):
        return self.binary(self.term, ("+", "-"))

    def term(self):
        return self.binary(self.unary, ("*", "/"))

    def binary(self, operand, ops):
        """``operand (op operand)*`` for an ``op`` of ``ops``, grouped to the left."""
        node, height = operand()
        while self.token in ops:
            op, at = self.take()
            right, h = operand()
            node, height = BinOp(op, node, right), self.level(max(height, h), at)
        return node, height

    def unary(self):
        if self.token != "-":
            return self.power()
        self.enter(self.take()[1])
        operand, height = self.unary()
        self.open -= 1
        return Neg(operand), height + 1

    def power(self):
        node, height = self.atom()
        while self.token in ("^", "**"):
            op, op_at = self.take()
            exponent, h = self.atom()
            if (not isinstance(exponent, Num) or not 0 <= exponent.value < math.inf
                    or exponent.value != int(exponent.value)):
                raise ParseError("exponent must be a non-negative integer literal",
                                 op_at + len(op))
            node, height = BinOp("^", node, exponent), self.level(max(height, h), op_at)
        return node, height

    def atom(self):
        token, at = self.take()
        if token == "(":
            self.enter(at)
            node, height = self.expr()
            self.open -= 1
            self.close()
            return node, height + 1
        if token and token[0] in ".0123456789":
            if token == ".":
                raise ParseError("malformed number", at)
            return Num(float(token)), 1
        if token[:1].isalpha():
            if self.token == "(":
                self.take()
                self.enter(at)
                args = [self.expr()]
                while self.token == ",":
                    self.take()
                    args.append(self.expr())
                self.open -= 1
                self.close()
                if token in UNARY_FUNCTIONS:
                    arity = 1
                elif token in BINARY_FUNCTIONS:
                    arity = 2
                else:
                    raise ParseError("unknown function %r" % token, at)
                if len(args) != arity:
                    raise ParseError("%s takes %d argument(s), got %d" % (token, arity, len(args)), at)
                return Call(token, tuple(a for a, _ in args)), 1 + max(h for _, h in args)
            if token in VARIABLES:
                return Var(token), 1
            raise ParseError("unknown identifier %r" % token, at)
        raise ParseError("expected an operand", at)


def parse_expr(source: str) -> Expression:
    """Parse ``source`` into an AST under standard precedence.

    Raises ParseError with the offending offset on malformed input.
    """
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source).parse()


def variables(expr: Expression) -> frozenset:
    """Set of variable names referenced by ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        out = frozenset()
        for a in expr.args:
            out |= variables(a)
        return out
    return frozenset()


def _with_children(expr, fn):
    """``expr`` with ``fn`` applied to each of its child nodes."""
    if isinstance(expr, Neg):
        return Neg(fn(expr.operand))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(fn(a) for a in expr.args))
    return expr


def split(expr: Expression, free) -> tuple:
    """(residual, subtrees): ``expr`` with each maximal subtree that
    references a variable but none of the names ``free`` replaced by
    ``Var("_k<i>")``, and those subtrees, ``subtrees[i]`` for ``_k<i>`` in
    left-to-right order.  Subtrees free of every variable, ``Num`` leaves
    among them, stay in place.  The residual with each ``_k<i>`` bound to
    the value of ``subtrees[i]`` evaluates to the value of ``expr``.
    """
    subtrees = []

    def cut(e):
        names = variables(e)
        if names and not names.intersection(free):
            subtrees.append(e)
            return Var("_k%d" % (len(subtrees) - 1))
        return _with_children(e, cut)
    return cut(expr), subtrees


def join(residual: Expression, subtrees) -> Expression:
    """The inverse of ``split``: ``residual`` with each ``Var("_k<i>")``
    replaced by ``subtrees[i]``."""
    if isinstance(residual, Var) and residual.name.startswith("_k"):
        return subtrees[int(residual.name[2:])]
    return _with_children(residual, lambda e: join(e, subtrees))


def _check_domain(ok, message, node):
    if not np.all(ok):
        raise DomainError(message, node)


def _exp(a):
    # IEEE semantics: overflow saturates to inf instead of raising
    if isinstance(a, np.ndarray):
        with np.errstate(over="ignore"):
            return np.exp(a)
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _neg_part(a):
    return np.maximum(-np.asarray(a), 0.0) if isinstance(a, np.ndarray) else max(-a, 0.0)


_BINARY = {"min": np.minimum, "max": np.maximum}
_UNARY = {"abs": np.abs, "exp": _exp, "sin": np.sin, "cos": np.cos,
          "pos": lambda a: np.maximum(a, 0.0), "neg": _neg_part}
#: function -> (ufunc, message, where it is defined)
_CHECKED = {"log": (np.log, "log of non-positive value", lambda a: np.asarray(a) > 0),
            "sqrt": (np.sqrt, "sqrt of negative value", lambda a: np.asarray(a) >= 0)}


def compile_expr(expr: Expression):
    """``expr`` as a function of a bindings dict: nested closures, one per
    node, that make the same numpy and math calls in the same order as a
    walk of the tree would, so the value is the tree's bit for bit.  A
    closure checks its node's domain (``DomainError`` naming the node) and
    a missing binding (``UnboundVariableError``) when it runs."""
    if isinstance(expr, Num):
        value = expr.value
        return lambda b: value
    if isinstance(expr, Var):
        name = expr.name

        def var(b):
            try:
                return b[name]
            except KeyError:
                raise UnboundVariableError("unbound variable %r" % name) from None
        return var
    if isinstance(expr, Neg):
        operand = compile_expr(expr.operand)
        return lambda b: -operand(b)
    if isinstance(expr, BinOp):
        left = compile_expr(expr.left)
        op = expr.op
        if op == "^":
            # integer-literal exponent, checked at parse time
            power = int(expr.right.value)

            def raise_to(b):
                a = left(b)
                try:
                    return a ** power
                except OverflowError:  # a float's power saturates, as in IEEE
                    return math.copysign(math.inf, a) if power % 2 else math.inf
            return raise_to
        right = compile_expr(expr.right)
        if op == "+":
            return lambda b: left(b) + right(b)
        if op == "-":
            return lambda b: left(b) - right(b)
        if op == "*":
            return lambda b: left(b) * right(b)

        def divide(b):
            a, d = left(b), right(b)
            _check_domain(np.asarray(d) != 0, "division by zero", expr)
            return a / d
        return divide
    fn = expr.func
    arg = compile_expr(expr.args[0])
    if fn in _BINARY:
        second, ufunc = compile_expr(expr.args[1]), _BINARY[fn]
        return lambda b: ufunc(arg(b), second(b))
    if fn in _UNARY:
        call = _UNARY[fn]
        return lambda b: call(arg(b))
    ufunc, message, defined = _CHECKED[fn]

    def checked(b):
        a = arg(b)
        _check_domain(defined(a), message, expr)
        return ufunc(a)
    return checked


def eval_expr(expr: Expression, bindings: dict):
    """Evaluate ``expr`` with the given variable bindings.

    Bindings may be floats or numpy arrays (broadcast elementwise).  Scalar
    inputs give a float back.  Raises UnboundVariableError or DomainError.
    Compiles ``expr`` on every call; a caller evaluating one expression
    often keeps ``compile_expr(expr)`` instead.
    """
    out = compile_expr(expr)(bindings)
    if isinstance(out, np.ndarray):
        return out
    return float(out)


def format_expr(expr: Expression) -> str:
    """Render ``expr`` fully parenthesized; reparsing gives an identical AST."""
    if isinstance(expr, Num):
        # a literal that overflows back to inf, which has no literal of its own
        return "1e999" if expr.value == math.inf else repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "(-%s)" % format_expr(expr.operand)
    if isinstance(expr, BinOp):
        op = "**" if expr.op == "^" else expr.op
        return "(%s %s %s)" % (format_expr(expr.left), op, format_expr(expr.right))
    return "%s(%s)" % (expr.func, ", ".join(format_expr(a) for a in expr.args))
