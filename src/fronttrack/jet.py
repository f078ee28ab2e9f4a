"""The jet of an expression tree: f, f_u, f_x and f_uu as straight-line code.

``expr`` imports this module on a tree's first compile, so a run whose flux
and data are not expressions does not load it.
"""

from __future__ import annotations

import math
import operator
import textwrap
from functools import cached_property

import numpy as np

from .expr import FUNCTIONS, VARIABLES, Const, DomainError, Power, Var, _fold, pretty


def _ipow(base, k):
    """base^k for an integer k by repeated squaring, O(log |k|) products.

    Products give the same bits for scalars and arrays whatever the sign of
    the base, where numpy's ``**`` leaves its SIMD kernel for libm's scalar
    ``pow`` on a base <= 0.  k = 0 is ``base ** 0``, which keeps the shape
    and 0^0 = 1; a negative k is the reciprocal of the positive power, which
    may overflow to inf (as Python floats do) when the reciprocal is about 0.
    The jet writes a power k >= 2 as these products; it calls this for k < 0.
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


_ZERO, _ONE = "0.0", "1.0"
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_TEMPLATES = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "neg": "-{}",
              **{name: name + "({})" for name in FUNCTIONS}}
_LABELS = {"f": "f", "fu": "f_u", "fx": "f_x", "fuu": "f_uu"}


def _number(a):
    """The value of an operand that is a number, else None."""
    return float(a) if isinstance(a, str) and a not in VARIABLES else None


def _literal(value):
    return repr(float(value))


def _source(a):
    if isinstance(a, int):
        return f"t{a}"
    return f"({a})" if a.startswith("-") else a


def _fail(tree, label, error):
    """The DomainError of the function ``label`` of the tree."""
    reason = str(error)
    return DomainError(pretty(tree), reason if label == "f" else f"{label}: {reason}")


def _try(lines, handler):
    """``lines`` under one floating-point guard: numpy raises on overflow,
    division by zero or an invalid operation, Python floats raise on division
    by zero, and ``handler`` runs on the error ``e``."""
    return ("try:\n    with _errstate(divide='raise', over='raise', invalid='raise'):\n"
            + "".join(f"        {line}\n" for line in lines or ["pass"])
            + f"except _ERRORS as e:\n    {handler}\n")


def _guarded(header, lines, label, tail):
    """A function that runs ``lines`` under one floating-point guard, then
    ``tail``.  ``label`` is the source of the function's label in a
    DomainError."""
    handler = f"raise _fail(_tree, {label}, e) from None"
    return f"{header}\n" + textwrap.indent(_try(lines, handler), "    ") + tail


class Jet:
    """A tree as straight-line code: one instruction per distinct operation,
    each after its operands, and the operands of f, f_u, f_x and f_uu.

    An operand is the number of a temporary, or the source text of x, u or a
    number.  An instruction is keyed by its operation and its operands, so
    equal subtrees share one temporary and no subtree is hashed.  f's
    instructions are the tree's operations in its evaluation order, so f has
    the bits of a walk over the tree.  Each derivative is forward mode
    (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008) over the
    instructions before it, with the derivatives that are numbers folded
    (the identities of 0 and 1 included), so the program grows linearly
    with the tree.  f_uu is forward mode over f_u's instructions.
    """

    def __init__(self, tree):
        self.tree = tree
        self.ops = []     # (operation, operands, exponent) of each temporary
        self.has_u = []   # whether each temporary reads u
        self.powers = {}  # temporary -> (base, k): base^k, differentiated as a power
        self._temps = {}  # (operation, operands, exponent) -> temporary
        self._d = {"u": [], "x": []}  # each temporary's derivative in each variable
        self.functions = {}
        self.f = _fold(tree, self._node)

    def _node(self, node, args):
        if isinstance(node, Const):
            return _literal(node.value)
        if isinstance(node, Var):
            if node.name not in VARIABLES:
                raise ValueError(f"unknown variable {node.name!r}")
            return node.name
        if isinstance(node, Power):
            return self._power(args[0], node.exponent)
        return self._op(node.op, *args)

    def _op(self, op, *args, k=None):
        key = (op, args, k)
        t = self._temps.get(key)
        if t is None:
            if op not in _TEMPLATES and op != "^":
                raise ValueError(f"unknown operation {op!r}")
            t = self._temps[key] = len(self.ops)
            self.ops.append(key)
            self.has_u.append(any(a == "u" or isinstance(a, int) and self.has_u[a]
                                  for a in args))
        return t

    def _power(self, base, k):
        """base^k in _ipow's order: products by repeated squaring for k >= 2."""
        if k == 1:
            return base
        if k <= 0:
            t = self._op("^", base, k=k)
        else:
            t, square, n = None, base, k
            while True:
                if n & 1:
                    t = square if t is None else self._op("*", t, square)
                n >>= 1
                if not n:
                    break
                square = self._op("*", square, square)
        self.powers.setdefault(t, (base, k))
        return t

    def _arith(self, op, a, b=None):
        """An operation on derivatives, folded where an operand is a number:
        numbers are combined, and 0 and 1 are dropped where they are identities."""
        x, y = _number(a), _number(b)
        if op == "neg":
            return self._op("neg", a) if x is None else _literal(-x)
        if x is not None and y is not None and not (op == "/" and y == 0.0):
            return _literal(_ARITHMETIC[op](x, y))
        if (op == "*" and 0.0 in (x, y)) or (op == "/" and x == 0.0):
            return _ZERO
        if (op in "+-" and y == 0.0) or (op in "*/" and y == 1.0):
            return a
        if (op == "+" and x == 0.0) or (op == "*" and x == 1.0):
            return b
        if op == "-" and x == 0.0:
            return self._arith("neg", b)
        return self._op(op, a, b)

    def _derivative(self, var, a):
        if isinstance(a, int):
            return self._d[var][a]
        return _ONE if a == var else _ZERO

    def _derive(self, var, stop):
        """The derivatives in var of every temporary below stop."""
        d = self._d[var]
        for t in range(len(d), stop):
            d.append(self._rule(t, var))

    def _rule(self, t, var):
        op, args, _ = self.ops[t]
        mul, arith = (lambda a, b: self._arith("*", a, b)), self._arith
        if t in self.powers:
            base, k = self.powers[t]
            db = self._derivative(var, base)
            if k == 0 or _number(db) == 0.0:
                return _ZERO
            return mul(mul(_literal(k), self._power(base, k - 1)), db)
        da = [self._derivative(var, a) for a in args]
        if all(_number(d) == 0.0 for d in da):
            return _ZERO
        if op in "+-":
            return arith(op, *da)
        if op == "*":
            return arith("+", mul(da[0], args[1]), mul(args[0], da[1]))
        if op == "/":  # (a/b)' = (a' - (a/b) b') / b
            return arith("/", arith("-", da[0], mul(t, da[1])), args[1])
        if op == "neg":
            return arith("neg", da[0])
        if op == "sin":
            return mul(self._op("cos", args[0]), da[0])
        if op == "cos":
            return arith("neg", mul(self._op("sin", args[0]), da[0]))
        if op == "tanh":
            return mul(arith("-", _ONE, self._power(t, 2)), da[0])
        if op == "exp":
            return mul(t, da[0])
        return arith("/", da[0], mul("2.0", t))  # sqrt

    @cached_property
    def outputs(self):
        """The operands of f, f_u, f_x and f_uu."""
        n = len(self.ops)
        self._derive("u", n)
        fu = self._derivative("u", self.f)
        self._derive("u", len(self.ops))
        self._derive("x", n)
        return {"f": self.f, "fu": fu, "fx": self._derivative("x", self.f),
                "fuu": self._derivative("u", fu)}

    def _needed(self, *outs):
        """The temporaries that the operands outs read, in order."""
        seen = set()
        stack = [a for a in outs if isinstance(a, int)]
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(a for a in self.ops[t][1] if isinstance(a, int))
        return sorted(seen)

    def _line(self, t):
        op, args, k = self.ops[t]
        if op == "^":
            return f"t{t} = " + (f"{_source(args[0])} ** 0" if k == 0
                                 else f"_ipow({_source(args[0])}, {k})")
        return f"t{t} = " + _TEMPLATES[op].format(*map(_source, args))

    def _function(self, name, params, out, temps):
        """The guarded function that computes temps, then returns out.  Each
        temporary is deleted after its last use, so an evaluation holds no
        more arrays at once than a nested expression would."""
        label = _LABELS[name]
        body = set(temps)
        last = {a: t for t in temps for a in self.ops[t][1] if a in body}
        lines = []
        for t in temps:
            lines.append(self._line(t))
            dead = sorted({a for a in self.ops[t][1] if last.get(a) == t})
            if dead:
                lines.append("del " + ", ".join(map(_source, dead)))
        return _guarded(f"def {name}({params}):", lines + [f"out = {_source(out)}"], repr(label),
                        f"    if not _isfinite(out).all():\n"
                        f"        raise _fail(_tree, {label!r}, 'non-finite result')\n"
                        f"    return out\n")

    def _point(self):
        """point(x, u) -> (f, f_u, f_x) on Python floats.  f, f_u and f_x in
        turn compute the temporaries not computed before them and check their
        value, so a failure raises what the first of ``f``, ``fu`` and ``fx``
        to fail raises.

        point(x) is the binding at x: it computes the temporaries of f and
        f_u free of u once, under one guard, and returns ``bound(u) -> (f,
        f_u)``, which computes the rest in point's order under one guard per
        call.  So bound raises what point raises where f or f_u fails.  Where
        a temporary free of u fails, the binding is point's pair, since point
        then fails at the first function that needs it.  x and the
        temporaries reach bound as default arguments, not as closure cells,
        which point(x, u) would create on every call."""
        lines, prologue, bound, done = [], [], [], set()
        for name in ("f", "fu", "fx"):
            out, label = self.outputs[name], _LABELS[name]
            temps = [t for t in self._needed(out) if t not in done]
            done.update(temps)
            result = [f"{name} = _float({_source(out)})",
                      f"if not _finite({name}): raise _fail(_tree, label, 'non-finite result')"]
            lines += [f"label = {label!r}", *map(self._line, temps), *result]
            if name != "fx":
                prologue += [t for t in temps if not self.has_u[t]]
                bound += [f"label = {label!r}",
                          *(self._line(t) for t in temps if self.has_u[t]), *result]
        params = "".join(f", {a}={a}" for a in ["x", *map(_source, prologue)])
        fallback = "return lambda u, x=x: point(x, u)[:2]"  # it raises
        binding = (_try([self._line(t) for t in prologue], fallback)
                   + _guarded(f"def bound(u{params}):", bound, "label", "    return f, fu\n")
                   + "return bound\n")
        return _guarded("def point(x, u=None):\n    if u is None:\n"
                        + textwrap.indent(binding, "        ").rstrip("\n"),
                        lines, "label", "    return f, fu, fx\n")

    def source(self, name):
        """The source of the function ``name``: f, fu, fx or fuu of (x, u),
        point with its binding, or at, which computes the temporaries free of
        u once and returns f and f_u as functions of u bound to them."""
        if name == "point":
            return self._point()
        if name != "at":
            out = self.f if name == "f" else self.outputs[name]
            return self._function(name, "x, u", out, self._needed(out))
        f, fu = self.f, self.outputs["fu"]
        prologue = [self._line(t) for t in self._needed(f, fu) if not self.has_u[t]]
        bound = "".join(self._function(n, "u", out, [t for t in self._needed(out)
                                                     if self.has_u[t]])
                        for n, out in (("f", f), ("fu", fu)))
        return _guarded("def at(x):", prologue, repr("f and f_u"),
                        textwrap.indent(bound, "    ") + "    return f, fu\n")

    def compile(self, *names):
        """The named functions, each compiled once; the names not compiled yet
        share one compile."""
        todo = [n for n in names if n not in self.functions]
        if todo:
            namespace = dict(_NAMESPACE, _tree=self.tree)
            exec(compile("".join(map(self.source, todo)), "<expr>", "exec"), namespace)
            self.functions.update((n, namespace[n]) for n in todo)
        return [self.functions[n] for n in names]


# ndarray.all imports numpy's reductions through the caller's builtins
_NAMESPACE = {"__builtins__": {"__import__": __import__}, "inf": math.inf, "nan": math.nan,
              "_ipow": _ipow, "_errstate": np.errstate, "_isfinite": np.isfinite, "_fail": _fail,
              "_float": float, "_finite": math.isfinite,
              "_ERRORS": (FloatingPointError, ZeroDivisionError, OverflowError),
              **{name: getattr(np, name) for name in FUNCTIONS}}
