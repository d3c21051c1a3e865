"""Parser and evaluator for the closed-form coefficient functions.

Grammar (whitespace-insensitive):

    expr     ::= term (('+' | '-') term)*
    term     ::= unary (('*' | '/') unary)*
    unary    ::= '-' unary | power
    power    ::= atom (('^' | '**') atom)*        # exponent: non-negative integer literal
    atom     ::= NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Variables are restricted to t, x, y, z.  Functions: min, max (binary);
abs, exp, log, sin, cos, sqrt, pos, neg (unary), where pos(a) = max(a, 0)
and neg(a) = max(-a, 0).  Numbers are decimal literals with an optional
exponent part.  Evaluation follows IEEE double semantics and accepts
numpy arrays as bindings, broadcasting elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VARIABLES = ("t", "x", "y", "z")
UNARY_FUNCTIONS = ("abs", "exp", "log", "sin", "cos", "sqrt", "pos", "neg")
BINARY_FUNCTIONS = ("min", "max")


class ExprError(ValueError):
    """Base class for parse- and eval-time expression errors."""


class ParseError(ExprError):
    def __init__(self, message, position):
        super().__init__("%s (offset %d)" % (message, position))
        self.position = position


class UnboundVariableError(ExprError):
    pass


class DomainError(ExprError):
    """Division by zero, log of a non-positive value, or sqrt of a negative."""

    def __init__(self, message, node):
        super().__init__("%s in %r" % (message, format_expr(node)))
        self.message, self.node = message, node

    def __reduce__(self):
        # unpickling calls __init__, which takes the message before formatting
        return type(self), (self.message, self.node)


@dataclass(frozen=True)
class Expression:
    """Immutable AST node; safe to share once parsed."""


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Call(Expression):
    func: str
    args: tuple


class _Tokenizer:
    def __init__(self, source):
        self.source = source
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def match(self, text):
        self.skip_ws()
        if self.source.startswith(text, self.pos):
            self.pos += len(text)
            return True
        return False

    def number(self):
        start = self.pos
        s = self.source
        n = len(s)
        i = start
        while i < n and s[i].isdigit():
            i += 1
        if i < n and s[i] == ".":
            i += 1
            while i < n and s[i].isdigit():
                i += 1
        if i == start or (i == start + 1 and s[start] == "."):
            return None
        if i < n and s[i] in "eE":
            j = i + 1
            if j < n and s[j] in "+-":
                j += 1
            if j < n and s[j].isdigit():
                while j < n and s[j].isdigit():
                    j += 1
                i = j
        self.pos = i
        return float(s[start:i])

    def name(self):
        start = self.pos
        s = self.source
        while self.pos < len(s) and (s[self.pos].isalnum() or s[self.pos] == "_"):
            self.pos += 1
        return s[start:self.pos] if self.pos > start else None


class _Parser:
    def __init__(self, source):
        self.tok = _Tokenizer(source)

    def parse(self):
        node = self.expr()
        self.tok.skip_ws()
        if self.tok.pos != len(self.tok.source):
            raise ParseError("unexpected trailing input", self.tok.pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            if self.tok.match("+"):
                node = BinOp("+", node, self.term())
            elif self.tok.match("-"):
                node = BinOp("-", node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            self.tok.skip_ws()
            # '**' is pow, so only a lone '*' is multiplication
            if self.tok.peek() == "*" and not self.tok.source.startswith("**", self.tok.pos):
                self.tok.match("*")
                node = BinOp("*", node, self.unary())
            elif self.tok.match("/"):
                node = BinOp("/", node, self.unary())
            else:
                return node

    def unary(self):
        if self.tok.match("-"):
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.tok.match("**") or self.tok.match("^"):
            at = self.tok.pos
            exponent = self.atom()
            if not isinstance(exponent, Num) or exponent.value < 0 or exponent.value != int(exponent.value):
                raise ParseError("exponent must be a non-negative integer literal", at)
            node = BinOp("^", node, exponent)
        return node

    def atom(self):
        self.tok.skip_ws()
        at = self.tok.pos
        ch = self.tok.peek()
        if ch == "(":
            self.tok.match("(")
            node = self.expr()
            if not self.tok.match(")"):
                raise ParseError("expected ')'", self.tok.pos)
            return node
        if ch.isdigit() or ch == ".":
            value = self.tok.number()
            if value is None:
                raise ParseError("malformed number", at)
            return Num(value)
        if ch.isalpha():
            name = self.tok.name()
            if self.tok.match("("):
                args = [self.expr()]
                while self.tok.match(","):
                    args.append(self.expr())
                if not self.tok.match(")"):
                    raise ParseError("expected ')'", self.tok.pos)
                if name in UNARY_FUNCTIONS:
                    arity = 1
                elif name in BINARY_FUNCTIONS:
                    arity = 2
                else:
                    raise ParseError("unknown function %r" % name, at)
                if len(args) != arity:
                    raise ParseError("%s takes %d argument(s), got %d" % (name, arity, len(args)), at)
                return Call(name, tuple(args))
            if name in VARIABLES:
                return Var(name)
            raise ParseError("unknown identifier %r" % name, at)
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


def _check_domain(ok, message, node):
    if not np.all(ok):
        raise DomainError(message, node)


def _eval(expr, bindings):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariableError("unbound variable %r" % expr.name) from None
    if isinstance(expr, Neg):
        return -_eval(expr.operand, bindings)
    if isinstance(expr, BinOp):
        a = _eval(expr.left, bindings)
        b = _eval(expr.right, bindings)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            _check_domain(np.asarray(b) != 0, "division by zero", expr)
            return a / b
        # integer-literal exponent, checked at parse time
        return a ** int(expr.right.value)
    a = _eval(expr.args[0], bindings)
    fn = expr.func
    if fn == "min" or fn == "max":
        b = _eval(expr.args[1], bindings)
        return np.minimum(a, b) if fn == "min" else np.maximum(a, b)
    if fn == "abs":
        return np.abs(a)
    if fn == "exp":
        # IEEE semantics: overflow saturates to inf instead of raising
        if isinstance(a, np.ndarray):
            with np.errstate(over="ignore"):
                return np.exp(a)
        try:
            return math.exp(a)
        except OverflowError:
            return math.inf
    if fn == "log":
        _check_domain(np.asarray(a) > 0, "log of non-positive value", expr)
        return np.log(a)
    if fn == "sin":
        return np.sin(a)
    if fn == "cos":
        return np.cos(a)
    if fn == "sqrt":
        _check_domain(np.asarray(a) >= 0, "sqrt of negative value", expr)
        return np.sqrt(a)
    if fn == "pos":
        return np.maximum(a, 0.0)
    return np.maximum(-np.asarray(a), 0.0) if isinstance(a, np.ndarray) else max(-a, 0.0)


def eval_expr(expr: Expression, bindings: dict):
    """Evaluate ``expr`` with the given variable bindings.

    Bindings may be floats or numpy arrays (broadcast elementwise).  Scalar
    inputs give a float back.  Raises UnboundVariableError or DomainError.
    """
    out = _eval(expr, bindings)
    if isinstance(out, np.ndarray):
        return out
    return float(out)


def format_expr(expr: Expression) -> str:
    """Render ``expr`` fully parenthesized; reparsing gives an identical AST."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "(-%s)" % format_expr(expr.operand)
    if isinstance(expr, BinOp):
        op = "**" if expr.op == "^" else expr.op
        return "(%s %s %s)" % (format_expr(expr.left), op, format_expr(expr.right))
    return "%s(%s)" % (expr.func, ", ".join(format_expr(a) for a in expr.args))
