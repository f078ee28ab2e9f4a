"""Expression trees for user-defined fluxes in the variables x and u.

Supports +, -, *, / and ^ with integer exponents, unary minus, and the
functions sin, cos, tanh, exp, sqrt.  Trees are immutable; differentiation
is exact and closed-form (no log branches thanks to integer-only powers),
and evaluation works elementwise on numpy arrays as well as scalars.
"""

from __future__ import annotations

import ast
import math
import re
import sys
import warnings

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
    invalid operation such as sqrt of a negative number.  A tree whose source
    nests more parentheses than Python's parser takes (200) cannot be
    compiled, and raises it too."""

    def __init__(self, text, reason):
        super().__init__(f"cannot evaluate `{text}`: {reason}")


class _Node:
    @cached_property
    def _forms(self):
        """The printed tree and its Python source, once: rendering recurses
        once per tree level.  They differ only where the tree has a power."""
        text = _render(self)
        return text, _render(self, source=True) if "^" in text else text

    @cached_property
    def _code(self):
        """The Python source compiled, once.  Each power is a call of
        ``_ipow``, which multiplies, so it never reaches numpy's ``pow``."""
        return compile(self._forms[1], "<expr>", "eval")


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
# parsing: Python's parser reads the source, one pass maps its nodes
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")  # not 0x1, 1_0, 1j, True
_AFTER_POW = re.compile(r"\*\* *(- *)?\Z")  # what may precede an exponent literal
_INTEGER = re.compile(r"(?<![\w.])(?<![eE][+-])\d+(?![\w.])")  # not in 1.5, 1e+5, u1
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def parse(src):
    """Parse an expression string into a tree; raises ParseError on bad input.

    Python's parser reads the source with ^ as **, once whitespace (a config
    value may span lines) and the leading zeros it refuses (``007``) are spaces.
    """
    text = "".join(" " if c.isspace() else c for c in src)
    # any other character, non-ASCII too (Python reads ｕ as u), and a literal **
    bad = re.search(r"[^A-Za-z0-9_.+\-*/^() ]|\*\*", text)
    if bad:
        raise ParseError(bad.start(), f"unexpected {bad[0]!r}")
    text = re.sub(r"(?<![\w.])(?<![eE][+-])0+(?=\d)", lambda m: " " * len(m[0]), text)
    body = text.lstrip()
    py = body.replace("^", "**")
    origin = [len(text) - len(body) + i  # the source offset of each character of py
              for i, c in enumerate(body) for _ in c.replace("^", "**")] + [len(src)]

    def segment(n):
        return py[n.col_offset:n.end_col_offset]

    def fail(n, message, expected=()):
        raise ParseError(origin[n.col_offset], message, expected)

    def build(n):
        if isinstance(n, ast.Constant) and _NUMBER.fullmatch(segment(n)):
            return Const(float(segment(n)))
        if isinstance(n, ast.Name):
            if n.id not in VARIABLES:
                fail(n, f"unknown identifier {n.id!r}", expected=VARIABLES + FUNCTIONS)
            return Var(n.id)
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            return Unary("neg", build(n.operand))
        if (isinstance(n, ast.Call) and getattr(n.func, "id", None) in FUNCTIONS
                and len(n.args) == 1  # and not (sin)(u):
                and py[n.func.end_col_offset:n.args[0].col_offset].lstrip().startswith("(")):
            return Unary(n.func.id, build(n.args[0]))
        if isinstance(n, ast.BinOp) and type(n.op) in _BINARY:
            return Binary(_BINARY[type(n.op)], build(n.left), build(n.right))
        if not (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)):
            fail(n, f"unexpected {segment(n)!r}")
        # ^ chains left: u^-2^3 is (u^-2)^3, which Python reads as u**(-(2**3)),
        # so walk the right spine one integer literal at a time
        tree, right = build(n.left), n.right
        while right is not None:
            sign, literal, right = 1, right, None
            if isinstance(literal, ast.UnaryOp) and isinstance(literal.op, ast.USub):
                sign, literal = -1, literal.operand
            if isinstance(literal, ast.BinOp) and isinstance(literal.op, ast.Pow):
                literal, right = literal.left, literal.right
            if not (isinstance(literal, ast.Constant) and segment(literal).isdigit()
                    and _AFTER_POW.search(py, 0, literal.col_offset)):  # not u^(2)
                fail(literal, f"got {segment(literal)!r}", expected=("integer exponent",))
            if int(segment(literal)) > sys.float_info.max:  # differentiate needs float(k)
                fail(literal, "exponent out of the float range")
            tree = Power(tree, sign * int(segment(literal)))
        return tree

    try:
        with warnings.catch_warnings():  # a warning (as in 1if) rejects, and prints nothing
            warnings.simplefilter("error")
            return build(ast.parse(py, mode="eval").body)
    except SyntaxError as e:
        if e.offset:
            raise ParseError(origin[e.offset - 1], e.msg) from None
        # no offset: the input ended early, or an integer literal has more
        # digits than Python converts (it does not say which literal)
        limit = sys.get_int_max_str_digits()  # 0 is no limit
        huge = [m for m in _INTEGER.finditer(py) if limit and len(m[0]) > limit]
        if huge:
            raise ParseError(origin[huge[0].start()],
                             f"number literal longer than {limit} digits") from None
        raise ParseError(len(src), e.msg, expected=("operand",)) from None
    except (RecursionError, MemoryError):  # the parser's stack overflow is a MemoryError
        raise ParseError(0, "expression nested too deeply") from None


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

def _ipow(base, k):
    """base^k for an integer k by repeated squaring, O(log |k|) products.

    Products give the same bits for scalars and arrays whatever the sign of
    the base, where numpy's ``**`` leaves its SIMD kernel for libm's scalar
    ``pow`` on a base <= 0.  k = 0 is ``base ** 0``, which keeps the shape
    and 0^0 = 1; a negative k is the reciprocal of the positive power, which
    may overflow to inf (as Python floats do) when the reciprocal is about 0.
    """
    if k < 0:
        with np.errstate(over="ignore"):
            return 1.0 / _ipow(base, -k)
    if k == 0:
        return base ** 0
    result = None
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


# the names a compiled tree may read besides x and u
_NAMESPACE = {"__builtins__": {}, "inf": math.inf, "nan": math.nan, "_ipow": _ipow,
              **{name: getattr(np, name) for name in FUNCTIONS}}


def evaluate(node, x, u):
    """Evaluate elementwise at (x, u); raises DomainError on non-finite results.

    The tree's source, rendered with its printed form and compiled on its
    first evaluation, runs under one floating-point guard: numpy raises on
    overflow, division by zero or an invalid operation, Python floats raise
    on division by zero, and the single finiteness check of the result
    catches what plain Python floats let through (an overflowing product is
    inf).
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
    """Render with minimal parentheses; reparses to an equivalent tree.  The
    text is kept on the node, so a tree is printed (and recursed) only once."""
    return node._forms[0] if isinstance(node, _Node) else _render(node)


def _render(node, source=False):
    """The printed text, or with ``source`` the Python source, which writes
    each power ``u^2`` as a call ``_ipow(u, 2)``."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _render(node.arg, source)
            if _prec(node.arg) < _PRECEDENCE["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({_render(node.arg, source)})"
    if isinstance(node, Binary):
        lp, rp = _render(node.left, source), _render(node.right, source)
        p = _PRECEDENCE[node.op]
        if _prec(node.left) < p:
            lp = f"({lp})"
        # left-associative: parenthesize right child at equal precedence
        if _prec(node.right) <= p:
            rp = f"({rp})"
        return f"{lp} {node.op} {rp}"
    if isinstance(node, Power):
        bp = _render(node.base, source)
        if source:
            return f"_ipow({bp}, {node.exponent})"
        if _prec(node.base) <= _PRECEDENCE["^"]:
            bp = f"({bp})"
        return f"{bp}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")
