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
    The jet writes a power k >= 2 as these products; it calls this for k < 0
    on arrays, and on Python floats takes the reciprocal of the positive
    power itself, with no errstate to enter.
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
_EXP_MAX = 709.78  # numpy's exp overflows past log(largest float) = 709.7827...
# the test, as a predicate and as source, that an operand of an operation
# passes on Python floats: a function's argument lies where numpy computes it
# with no warning, and a divisor, the argument of tanh or exp and the base of
# a power k <= 0 are finite, as these operations may turn inf or nan finite
_FINITE = (math.isfinite, "_finite({})")
_TESTS = {"sin": _FINITE, "cos": _FINITE, "tanh": _FINITE, "/": _FINITE, "^": _FINITE,
          "exp": (lambda a: -math.inf < a < _EXP_MAX, f"-inf < {{}} < {_EXP_MAX!r}"),
          "sqrt": (lambda a: a >= 0.0, "{} >= 0.0")}


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


def _test(a, test):
    """The source of the test (predicate, template) on the operand a, or
    None where a is a number that passes it."""
    passes, template = test
    number = _number(a)
    return None if number is not None and passes(number) else template.format(_source(a))


def _try(lines, handler, guard=True):
    """``lines`` in a try whose ``handler`` runs on the error ``e``: Python
    floats raise on division by zero, and under the floating-point guard
    numpy raises on overflow, division by zero or an invalid operation."""
    if guard:
        lines = ["with _errstate(divide='raise', over='raise', invalid='raise'):",
                 *("    " + line for line in lines)]
    return ("try:\n" + "".join(f"    {line}\n" for line in lines)
            + f"except _ERRORS as e:\n    {handler}\n")


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
        self.namespace = dict(_NAMESPACE, _tree=tree)  # the compiled functions, too
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
        """The temporaries that the operands outs read, in order: each
        temporary is numbered after its operands."""
        need = {a for a in outs if isinstance(a, int)}
        for t in range(max(need, default=-1), -1, -1):
            if t in need:
                need.update(a for a in self.ops[t][1] if isinstance(a, int))
        return sorted(need)

    def _line(self, t):
        op, args, k = self.ops[t]
        if op == "^":
            return f"t{t} = " + (f"{_source(args[0])} ** 0" if k == 0
                                 else f"_ipow({_source(args[0])}, {k})")
        return f"t{t} = " + _TEMPLATES[op].format(*map(_source, args))

    def _out(self, name):
        """The operand of the output ``name``; f alone derives nothing."""
        return self.f if name == "f" else self.outputs[name]

    def _program(self, header, name, hoisted=()):
        """``header``, then straight-line code on arrays that computes the
        output ``name`` from the temporaries that ``hoisted`` did not, under
        one floating-point guard, and returns it; a failure raises the
        output's DomainError.  Each temporary is deleted after its last use,
        so an evaluation holds no more arrays at once than a nested
        expression would."""
        out, label = self._out(name), repr(_LABELS[name])
        temps = [t for t in self._needed(out) if t not in hoisted]
        body = set(temps) - {out}
        last = {a: t for t in temps for a in self.ops[t][1] if a in body}
        lines = []
        for t in temps:
            dead = sorted({a for a in self.ops[t][1] if last.get(a) == t})
            lines.append(self._line(t))
            lines += ["del " + ", ".join(map(_source, dead))] if dead else []
        lines += [f"out = {_source(out)}", "if not _isfinite(out).all(): "
                  f"raise _fail(_tree, {label}, 'non-finite result')", "return out"]
        handler = f"raise _fail(_tree, {label}, e) from None"
        return f"{header}\n" + textwrap.indent(_try(lines, handler), "    ")

    def _float_lines(self, temps, fallback, tested):
        """The temporaries ``temps`` on Python floats, each after the test in
        ``_TESTS`` of its operand, which runs ``fallback`` where it fails; a
        test in ``tested``, which gains those emitted, has passed already.
        A function is numpy's, its value a float; a power k < 0 is the
        reciprocal of ``_ipow``'s positive power, as ``_ipow`` takes it on
        arrays."""
        lines = []
        for t in temps:
            op, args, k = self.ops[t]
            test = _test(args[op == "/"], _TESTS[op]) if op in _TESTS else None
            if test and test not in tested:
                tested.add(test)
                lines.append(f"if not {test}: {fallback}")
            if op in FUNCTIONS:
                lines.append(f"t{t} = _float({op}({_source(args[0])}))")
            elif op == "^" and k < 0:
                lines.append(f"t{t} = 1.0 / _ipow({_source(args[0])}, {-k})")
            else:
                lines.append(self._line(t))
        return lines

    def _floats(self, header, names, fallback, hoisted=(), tested=()):
        """``header``, then straight-line code on Python floats, with no
        floating-point guard, that computes the outputs ``names`` from the
        temporaries that ``hoisted`` did not and returns them; the tests
        ``tested`` have passed.  At any sign of trouble, a division by zero
        or an overflow that Python raises, a failed operand test or a
        non-finite output, it runs ``fallback``: the guarded unhoisted
        evaluation, which defines the result and the error.  Elsewhere
        Python floats and numpy's float64 run the same IEEE operations, so
        the result has the bits of that evaluation."""
        outs = [self._out(n) for n in names]
        temps = [t for t in self._needed(*outs) if t not in hoisted]
        lines = self._float_lines(temps, fallback, set(tested))
        tests = [s for s in (_test(a, _FINITE) for a in dict.fromkeys(outs)) if s]
        result = "return " + ", ".join(map(_source, outs))
        lines += [f"if {' and '.join(tests)}:", "    " + result] if tests else [result]
        code = _try(lines, fallback, guard=False) + fallback + "\n"
        return f"{header}\n" + textwrap.indent(code, "    ")

    def _binding(self, floats):
        """The body of ``at(x)``, on Python floats or on arrays.  It computes
        the temporaries free of u that f and f_u need once and returns the
        pair (f, f_u) of functions of u.  Each receives, as default arguments
        rather than closure cells, which cost every call, the hoisted
        temporaries it reads (and x, if it reads x, as a fallback on Python
        floats does), and computes the rest of its output in its unhoisted
        order.  So a bound function returns or raises exactly what the
        unhoisted evaluation of its output does at (x, u): on arrays it runs
        under the guard, on Python floats that evaluation is its fallback,
        and where a hoisted temporary fails the binding returns those
        unhoisted evaluations themselves."""
        hoisted = [t for t in self._needed(self.f, self._out("fu")) if not self.has_u[t]]
        calls = {name: (f"_float({name}(x, u))" if floats else f"{name}(x, u)")
                 for name in ("f", "fu")}
        fallback = "return " + ", ".join(f"lambda u, x=x: {call}" for call in calls.values())
        tested = set()
        if floats:
            lines = self._float_lines(hoisted, fallback, tested)
            code = "x = _float(x)\n" + (_try(lines, fallback, guard=False) if hoisted else "")
        else:
            code = _try(map(self._line, hoisted), fallback) if hoisted else ""
        for name, call in calls.items():
            out = self._out(name)
            temps = [t for t in self._needed(out) if self.has_u[t]]
            reads = {out, *(a for t in temps for a in self.ops[t][1])}
            if floats:
                reads.add("x")
            params = "".join(f", {_source(a)}={_source(a)}" for a in ["x", *hoisted] if a in reads)
            header = f"def bound_{name}(u{params}):"
            code += (self._floats(header + "\n    u = _float(u)", (name,), "return " + call,
                                  hoisted, tested) if floats
                     else self._program(header, name, hoisted))
        return code + "return bound_f, bound_fu\n"

    def source(self, name):
        """The source of the function ``name``: f, fu, fx or fuu of arrays
        (x, u); at(x), which binds f and f_u at x, on Python floats when x
        is a Python float and on arrays otherwise; or point, which maps
        Python floats (x, u) to (f, f_u, f_x) and falls back on f, fu and
        fx in that order."""
        if name == "at":
            body = "if isinstance(x, _float):\n" + textwrap.indent(self._binding(True), "    ")
            return "def at(x):\n" + textwrap.indent(body + self._binding(False), "    ")
        if name == "point":
            fallback = "return " + ", ".join(f"_float({n}(x, u))" for n in ("f", "fu", "fx"))
            return self._floats("def point(x, u):\n    x, u = _float(x), _float(u)",
                                ("f", "fu", "fx"), fallback)
        return self._program(f"def {name}(x, u):", name)

    def compile(self, *names):
        """The named functions, each compiled once into the tree's one
        namespace, where the fallbacks of at and point find f, fu and fx
        (``expr.jet`` compiles them together); the names not compiled yet
        share one compile."""
        todo = [n for n in names if n not in self.namespace]
        if todo:
            exec(compile("".join(map(self.source, todo)), "<expr>", "exec"), self.namespace)
        return [self.namespace[n] for n in names]


# ndarray.all imports numpy's reductions through the caller's builtins
_NAMESPACE = {"__builtins__": {"__import__": __import__}, "inf": math.inf, "nan": math.nan,
              "_ipow": _ipow, "_errstate": np.errstate, "_isfinite": np.isfinite, "_fail": _fail,
              "_float": float, "_finite": math.isfinite, "isinstance": isinstance,
              "_ERRORS": (FloatingPointError, ZeroDivisionError, OverflowError),
              **{name: getattr(np, name) for name in FUNCTIONS}}
