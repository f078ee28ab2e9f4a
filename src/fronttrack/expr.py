"""Expression trees for user-defined fluxes in the variables x and u.

Supports +, -, *, / and ^ with integer exponents, unary minus, and the
functions sin, cos, tanh, exp, sqrt.  Trees are immutable; differentiation
is exact and closed-form (no log branches thanks to integer-only powers),
and evaluation works elementwise on numpy arrays as well as scalars.
"""

from __future__ import annotations

import math
import re

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

FUNCTIONS = ("sin", "cos", "tanh", "exp", "sqrt")
VARIABLES = ("x", "u")


class ParseError(ValueError):
    """Malformed expression source; carries the byte offset of the failure."""

    def __init__(self, position, message, expected=()):
        self.position = position
        self.message = message
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"parse error at offset {position}: {message}{hint}")


class DomainError(ArithmeticError):
    """Evaluation left the finite numbers: overflow, division by zero or an
    invalid operation such as sqrt of a negative number.  A tree whose printed
    form nests more parentheses than Python's parser takes (200) cannot be
    compiled, and raises it too."""

    def __init__(self, text, reason):
        super().__init__(f"cannot evaluate `{text}`: {reason}")


class _Node:
    @cached_property
    def _code(self):
        """The printed tree compiled as Python, once.  A negative exponent is
        a float: numpy takes ``x**-1`` (an int) as a reciprocal, not a power."""
        source = re.sub(r"\^(-\d+)", lambda m: f"**{float(int(m[1]))}", pretty(self))
        return compile(source.replace("^", "**"), "<expr>", "eval")


@dataclass(frozen=True)
class Const(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str  # "x" or "u"


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # "neg" or a function name
    arg: "Node"


@dataclass(frozen=True)
class Binary(_Node):
    op: str  # "+", "-", "*", "/"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power(_Node):
    base: "Node"
    exponent: int


Node = Union[Const, Var, Unary, Binary, Power]


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")


def _tokenize(src):
    """Yield (kind, text, offset) triples; kind is num, ident or op."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(i, f"bad number literal {text!r}") from None
            tokens.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(i, f"unexpected character {c!r}")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(off, f"got {text or 'end of input'!r}", expected=(repr(op),))
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(off, f"trailing input {text!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.factor())
            else:
                return node

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Power(node, self.exponent())
            else:
                return node

    def exponent(self):
        sign = 1
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, off = self.peek()
        if kind != "num" or "." in text or "e" in text or "E" in text:
            raise ParseError(off, f"got {text or 'end of input'!r}",
                             expected=("integer exponent",))
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            raise ParseError(off, f"unknown identifier {text!r}",
                             expected=VARIABLES + FUNCTIONS)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(off, f"got {text or 'end of input'!r}",
                         expected=("operand",))


def parse(src):
    """Parse an expression string into a tree; raises ParseError on bad input."""
    return _Parser(src).parse()


def free_vars(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return free_vars(node.arg)
    if isinstance(node, Binary):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Power):
        return free_vars(node.base)
    return set()


# ---------------------------------------------------------------------------
# smart constructors (constant folding + identity rules, used by differentiate)
# ---------------------------------------------------------------------------

def _is_const(node, value=None):
    return isinstance(node, Const) and (value is None or node.value == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("-", a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a, b):
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    return Unary("neg", a)


def _pow(base, n):
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    if _is_const(base):
        try:
            return Const(base.value ** n)
        except (ZeroDivisionError, OverflowError):
            pass  # 0^-n or an overflow: evaluate reports it as a DomainError
    return Power(base, n)


def differentiate(node, var):
    """Exact symbolic partial derivative with respect to "x" or "u"."""
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Binary):
        da = differentiate(node.left, var)
        db = differentiate(node.right, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, node.right), _mul(node.left, db))
        # quotient rule
        num = _sub(_mul(da, node.right), _mul(node.left, db))
        return _div(num, _pow(node.right, 2))
    if isinstance(node, Power):
        dbase = differentiate(node.base, var)
        return _mul(_mul(Const(float(node.exponent)), _pow(node.base, node.exponent - 1)),
                    dbase)
    if isinstance(node, Unary):
        darg = differentiate(node.arg, var)
        if node.op == "neg":
            return _neg(darg)
        if node.op == "sin":
            return _mul(Unary("cos", node.arg), darg)
        if node.op == "cos":
            return _neg(_mul(Unary("sin", node.arg), darg))
        if node.op == "tanh":
            return _mul(_sub(Const(1.0), _pow(Unary("tanh", node.arg), 2)), darg)
        if node.op == "exp":
            return _mul(Unary("exp", node.arg), darg)
        if node.op == "sqrt":
            return _div(darg, _mul(Const(2.0), Unary("sqrt", node.arg)))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# the names a compiled tree may read besides x and u
_NAMESPACE = {"__builtins__": {}, "inf": math.inf, "nan": math.nan,
              **{name: getattr(np, name) for name in FUNCTIONS}}


def evaluate(node, x, u):
    """Evaluate elementwise at (x, u); raises DomainError on non-finite results.

    The tree, compiled on its first evaluation, runs under one floating-point
    guard: numpy raises on overflow, division by zero or an invalid operation,
    Python floats raise on division by zero or overflow in ``**``, and the
    single finiteness check of the result catches what plain Python floats
    let through.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = eval(node._code, _NAMESPACE, {"x": x, "u": u})
    except (FloatingPointError, ZeroDivisionError, OverflowError, SyntaxError) as e:
        raise DomainError(pretty(node), str(e)) from None
    if not np.isfinite(out).all():
        raise DomainError(pretty(node), "non-finite result")
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, Binary):
        return _PRECEDENCE[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PRECEDENCE["neg"]
    if isinstance(node, Power):
        return _PRECEDENCE["^"]
    if isinstance(node, Const) and math.copysign(1.0, node.value) < 0:
        return _PRECEDENCE["neg"]  # prints with a leading minus sign
    return 5


def pretty(node):
    """Render with minimal parentheses; reparses to an equivalent tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = pretty(node.arg)
            if _prec(node.arg) < _PRECEDENCE["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({pretty(node.arg)})"
    if isinstance(node, Binary):
        lp, rp = pretty(node.left), pretty(node.right)
        p = _PRECEDENCE[node.op]
        if _prec(node.left) < p:
            lp = f"({lp})"
        # left-associative: parenthesize right child at equal precedence
        if _prec(node.right) <= p:
            rp = f"({rp})"
        return f"{lp} {node.op} {rp}"
    if isinstance(node, Power):
        bp = pretty(node.base)
        if _prec(node.base) <= _PRECEDENCE["^"]:
            bp = f"({bp})"
        return f"{bp}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")
