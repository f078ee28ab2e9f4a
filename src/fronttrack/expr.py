"""Expression trees for user-defined fluxes in the variables x and u.

Supports +, -, *, / and ^ with integer exponents, unary minus, and the
functions sin, cos, tanh, exp, sqrt.  Trees are immutable.  A tree runs as
straight-line code, its jet (``fronttrack.jet``), that gives f and, by
forward-mode differentiation, the exact partial derivatives f_u, f_x and f_uu
(no log branches thanks to integer-only powers); it works elementwise on numpy
arrays as well as scalars.
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

from .fluxes import DomainError  # re-exported: the DSL raises it, the audit catches it

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


class _Node:
    @cached_property
    def _jet(self):
        from .jet import Jet  # imported on the first compile: see fronttrack.jet
        return Jet(self)

    @cached_property
    def _f(self):
        """The tree's value as a compiled function of (x, u), once."""
        return self._jet.compile("f")[0]

    @cached_property
    def _text(self):
        return _fold(self, _print)


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
            if int(segment(literal)) > sys.float_info.max:  # f_u's coefficient is float(k)
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


def _children(node):
    if isinstance(node, (Const, Var)):
        return ()
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Power):
        return (node.base,)
    raise TypeError(f"not an expression node: {type(node).__name__}")


def _fold(tree, combine):
    """combine(node, the results of its children) over the tree, children
    first and left to right, on an explicit stack, so a tree of any depth
    folds.  A subtree object shared by several parents is combined once."""
    done = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kids = _children(node)
        pending = [k for k in kids if id(k) not in done]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        done[id(node)] = combine(node, [done[id(k)] for k in kids])
    return done[id(tree)]


def free_vars(node):
    return _fold(node, lambda n, kids: {n.name} if isinstance(n, Var) else set().union(*kids))


def jet(tree):
    """The tree's f, fu, fx and fuu, functions of (x, u) with evaluate's guard;
    at, which maps x to the pair (f(x, .), f_u(x, .)), on Python floats for
    a Python float x; and point, which maps Python floats (x, u) to the
    floats (f, f_u, f_x): emitted as one program and compiled once.  f is
    the function that evaluate runs.  On Python floats a function enters no
    floating-point guard: at any sign of trouble it returns or raises what
    the guarded f, fu and fx do at (x, u), with the same bits otherwise."""
    names = ("f", "fu", "fx", "fuu", "at", "point")
    return dict(zip(names, tree._jet.compile(*names)))


def evaluate(node, x, u):
    """Evaluate elementwise at (x, u); raises DomainError on non-finite results.

    The tree runs as straight-line code, emitted and compiled on its first
    evaluation, under one floating-point guard: numpy raises on overflow,
    division by zero or an invalid operation, Python floats raise on division
    by zero, and the single finiteness check of the result catches what plain
    Python floats let through (an overflowing product is inf).  This guarded
    evaluation is also what the guard-free float functions of ``jet`` fall
    back on.
    """
    return node._f(x, u)


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
    text is kept on the node, so a tree is printed only once."""
    return node._text if isinstance(node, _Node) else _fold(node, _print)


def _print(node, texts):
    """The text of a node from the texts of its children."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op != "neg":
            return f"{node.op}({texts[0]})"
        return f"-({texts[0]})" if _prec(node.arg) < _PRECEDENCE["neg"] else f"-{texts[0]}"
    if isinstance(node, Binary):
        lp, rp = texts
        p = _PRECEDENCE[node.op]
        if _prec(node.left) < p:
            lp = f"({lp})"
        # left-associative: parenthesize right child at equal precedence
        if _prec(node.right) <= p:
            rp = f"({rp})"
        return f"{lp} {node.op} {rp}"
    bp = texts[0]
    if _prec(node.base) <= _PRECEDENCE["^"]:
        bp = f"({bp})"
    return f"{bp}^{node.exponent}"
