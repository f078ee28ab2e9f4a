import functools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fronttrack import expr as fx


CORPUS = [
    "u^2/2",
    "(1+0.5*sin(x))*u^2/2",
    "u^2/2 + 0.1*u^4",
    "tanh(u)*u + u^2",
    "exp(-x^2)*u^2/2 + 2*u^2",
    "sqrt(1+x^2)*u^2",
    "-u^3/6 + u^2",
    "cos(2*x)*u^2/4 + u^2/2",
]


def fd_u(tree, x, u, h=1e-5):
    return (fx.evaluate(tree, x, u + h) - fx.evaluate(tree, x, u - h)) / (2 * h)


def fd_x(tree, x, u, h=1e-5):
    return (fx.evaluate(tree, x + h, u) - fx.evaluate(tree, x - h, u)) / (2 * h)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_simple_tree_shape():
    tree = fx.parse("u^2/2")
    assert isinstance(tree, fx.Binary) and tree.op == "/"
    assert isinstance(tree.left, fx.Power) and tree.left.exponent == 2
    assert isinstance(tree.right, fx.Const) and tree.right.value == 2.0


def test_parse_modulated_burgers_free_vars():
    tree = fx.parse("(1+0.5*sin(x))*u^2/2")
    assert fx.free_vars(tree) == {"x", "u"}


def test_parse_error_position_and_expected():
    with pytest.raises(fx.ParseError) as info:
        fx.parse("u +")
    assert info.value.position == 3
    assert "operand" in " ".join(info.value.expected)


@pytest.mark.parametrize("src, position", [("u^" + "1" * 5000, 2),
                                           ("u + 2.5*" + "7" * 4301 + "*u", 8)],
                         ids=["exponent", "factor"])
def test_parse_error_on_an_over_long_integer_literal(src, position):
    # Python refuses to convert it without saying where; the input did not end
    with pytest.raises(fx.ParseError) as info:
        fx.parse(src)
    assert info.value.position == position
    assert "number literal" in info.value.message and not info.value.expected


@pytest.mark.parametrize("sign", ["", "-"])
def test_parse_error_on_an_exponent_past_the_float_range(sign):
    # differentiate writes the exponent as a float; 10^308 still converts
    fx.differentiate(fx.parse("u^1" + "0" * 308), "u")
    with pytest.raises(fx.ParseError) as info:
        fx.parse(f"u^2/2 + u^{sign}1" + "0" * 309)
    assert info.value.position == 10 + len(sign)
    assert "exponent" in info.value.message


def test_parse_error_position_within_input():
    for bad in ["", "sin(", "2 ** 3", "u^x", "foo(u)", "(u"]:
        with pytest.raises(fx.ParseError) as info:
            fx.parse(bad)
        assert 0 <= info.value.position <= len(bad)


def test_precedence_unary_minus_vs_power():
    # ^ binds tighter than unary minus: -u^2 == -(u^2)
    tree = fx.parse("-u^2")
    assert fx.evaluate(tree, 0.0, 3.0) == -9.0


def test_negative_integer_exponent():
    tree = fx.parse("u^-2")
    assert fx.evaluate(tree, 0.0, 2.0) == 0.25


def test_whitespace_insignificant():
    a = fx.parse("u ^ 2 / 2 + sin( x )")
    b = fx.parse("u^2/2+sin(x)")
    for x, u in [(0.3, -1.2), (2.0, 0.5)]:
        assert fx.evaluate(a, x, u) == fx.evaluate(b, x, u)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_examples():
    assert fx.evaluate(fx.parse("u^2/2"), 0.0, 3.0) == 4.5
    val = fx.evaluate(fx.parse("(1+0.5*sin(x))*u^2/2"), np.pi / 2, 2.0)
    assert val == pytest.approx(3.0, abs=1e-14)


def test_evaluate_vectorized_matches_scalar():
    tree = fx.parse(CORPUS[1])
    xs = np.linspace(-2, 2, 11)
    us = np.linspace(-1, 1, 11)
    vec = fx.evaluate(tree, xs, us)
    for i in range(11):
        assert vec[i] == fx.evaluate(tree, xs[i], us[i])


def test_domain_error_sqrt_negative():
    tree = fx.parse("sqrt(u)")
    with pytest.raises(fx.DomainError) as info:
        fx.evaluate(tree, 0.0, -1.0)
    assert "sqrt" in str(info.value)


def test_domain_error_division_by_zero():
    tree = fx.parse("1/x")
    with pytest.raises(fx.DomainError):
        fx.evaluate(tree, 0.0, 1.0)


@pytest.mark.parametrize("src", ["u*u", "u^2", "sin(u*u)", "u*u - u*u"])
@pytest.mark.parametrize("u", [1e200, np.full(3, 1e200)], ids=["scalar", "array"])
def test_domain_error_on_any_non_finite_value(src, u):
    # overflow to inf, and the nan that follows from it, raise like sqrt(-1)
    tree = fx.parse(src)
    with pytest.raises(fx.DomainError) as info:
        fx.evaluate(tree, np.zeros_like(u), u)
    assert fx.pretty(tree) in str(info.value)


def test_a_tree_too_deep_to_compile_is_a_domain_error():
    # the quotient rule nests about two parentheses per level, past the 200
    # that Python's parser takes
    src = "u"
    for _ in range(120):
        src = f"u/(1+{src})"
    tree = fx.parse(src)
    assert np.isfinite(fx.evaluate(tree, 0.3, 0.2))
    with pytest.raises(fx.DomainError, match="too many nested parentheses"):
        fx.evaluate(fx.differentiate(tree, "u"), 0.3, 0.2)


def test_evaluate_is_the_numpy_expression_in_the_same_order():
    tree = fx.parse("(1+0.5*sin(x))*u^2/2 + u^4/12")
    du = fx.differentiate(tree, "u")
    rng = np.random.default_rng(11)
    x = np.append(rng.uniform(-3, 3, 64), [0.0, -0.0])
    u = np.append(rng.uniform(-2, 2, 64), [-0.0, 0.0])
    a = 1.0 + 0.5 * np.sin(x)
    u2 = u * u  # powers are products by repeated squaring
    assert np.array_equal(fx.evaluate(tree, x, u), a * u2 / 2.0 + u2 * u2 / 12.0)
    assert np.array_equal(fx.evaluate(du, x, u),
                          a * (2.0 * u) * 2.0 / 4.0 + 4.0 * (u * u2) * 12.0 / 144.0)
    assert fx.pretty(du) == "(1.0 + 0.5 * sin(x)) * (2.0 * u) * 2.0 / 4.0 + 4.0 * u^3 * 12.0 / 144.0"


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_derivative_burgers_is_u():
    du = fx.differentiate(fx.parse("u^2/2"), "u")
    for u in (-2.0, 0.0, 0.7, 3.5):
        assert fx.evaluate(du, 0.0, u) == pytest.approx(u, abs=1e-15)


def test_derivative_of_pure_x_in_u_is_zero():
    du = fx.differentiate(fx.parse("sin(x)"), "u")
    assert fx.evaluate(du, 1.234, 77.0) == 0.0


def test_derivative_modulated_in_x():
    tree = fx.parse("(1+0.5*sin(x))*u^2/2")
    dx = fx.differentiate(tree, "x")
    for x, u in [(0.0, 2.0), (1.1, -0.7), (np.pi / 2, 2.0)]:
        want = 0.5 * np.cos(x) * u * u / 2
        assert fx.evaluate(dx, x, u) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("src", CORPUS)
def test_derivatives_match_finite_differences(src):
    tree = fx.parse(src)
    du = fx.differentiate(tree, "u")
    dxe = fx.differentiate(tree, "x")
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = rng.uniform(-2, 2)
        u = rng.uniform(-2, 2)
        assert fx.evaluate(du, x, u) == pytest.approx(fd_u(tree, x, u), abs=1e-6)
        assert fx.evaluate(dxe, x, u) == pytest.approx(fd_x(tree, x, u), abs=1e-6)


def test_second_derivative_matches_fd_of_first():
    tree = fx.parse(CORPUS[1])
    du = fx.differentiate(tree, "u")
    duu = fx.differentiate(du, "u")
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, u = rng.uniform(-2, 2, size=2)
        fd = (fx.evaluate(du, x, u + 1e-5) - fx.evaluate(du, x, u - 1e-5)) / 2e-5
        assert fx.evaluate(duu, x, u) == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src", CORPUS)
def test_pretty_reparse_identical_evaluation(src):
    tree = fx.parse(src)
    again = fx.parse(fx.pretty(tree))
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, u = rng.uniform(-3, 3, size=2)
        assert fx.evaluate(tree, x, u) == fx.evaluate(again, x, u)


@st.composite
def random_trees(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "u", "const"]))
        if leaf == "const":
            return fx.Const(draw(st.floats(min_value=-4, max_value=4,
                                           allow_nan=False, allow_infinity=False)))
        return fx.Var(leaf)
    kind = draw(st.sampled_from(["+", "-", "*", "neg", "sin", "cos", "tanh", "pow"]))
    if kind in "+-*":
        return fx.Binary(kind, draw(random_trees(depth=depth + 1)),
                         draw(random_trees(depth=depth + 1)))
    if kind == "pow":
        return fx.Power(draw(random_trees(depth=depth + 1)),
                        draw(st.integers(min_value=0, max_value=3)))
    if kind == "neg":
        return fx.Unary("neg", draw(random_trees(depth=depth + 1)))
    return fx.Unary(kind, draw(random_trees(depth=depth + 1)))


@given(random_trees())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(tree):
    printed = fx.pretty(tree)
    again = fx.parse(printed)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, u = rng.uniform(-2, 2, size=2)
        a = fx.evaluate(tree, x, u)
        b = fx.evaluate(again, x, u)
        assert a == b or (np.isnan(a) and np.isnan(b))


def test_derivative_of_derivative_tree_round_trips():
    tree = fx.parse(CORPUS[4])
    duu = fx.differentiate(fx.differentiate(tree, "u"), "u")
    again = fx.parse(fx.pretty(duu))
    for x, u in [(0.1, 0.2), (-1.0, 1.5)]:
        assert fx.evaluate(duu, x, u) == fx.evaluate(again, x, u)


# ---------------------------------------------------------------------------
# compiled evaluation against the tree walk it replaced
# ---------------------------------------------------------------------------

def power(b, k):
    """b^k as the product of the squares b^(2^i) for the set bits i of |k|,
    lowest first; a negative k is its reciprocal, k = 0 is ``b ** 0``."""
    if k < 0:
        with np.errstate(over="ignore"):  # an overflowing power has the reciprocal 0
            return 1.0 / power(b, -k)
    if k == 0:
        return b ** 0
    squares = [b]
    while len(squares) < k.bit_length():
        squares.append(squares[-1] * squares[-1])
    return functools.reduce(operator.mul, [s for i, s in enumerate(squares) if k >> i & 1])


def walk_evaluate(node, x, u):
    """The tree-walking evaluator that compiled trees replaced, kept as the
    reference: the same operations in the same order, under the same guard."""

    def walk(n):
        if isinstance(n, fx.Const):
            return n.value
        if isinstance(n, fx.Var):
            return x if n.name == "x" else u
        if isinstance(n, fx.Unary):
            val = walk(n.arg)
            return -val if n.op == "neg" else getattr(np, n.op)(val)
        if isinstance(n, fx.Binary):
            a = walk(n.left)
            b = walk(n.right)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            return a / b
        return power(walk(n.base), n.exponent)

    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = walk(node)
    except (FloatingPointError, ZeroDivisionError, OverflowError) as e:
        raise fx.DomainError(fx.pretty(node), str(e)) from None
    if not np.isfinite(out).all():
        raise fx.DomainError(fx.pretty(node), "non-finite result")
    return out


def outcome(evaluator, node, x, u):
    """Result type and bits, or the DomainError message."""
    try:
        out = evaluator(node, x, u)
    except fx.DomainError as e:
        return "DomainError", str(e)
    return type(out), np.asarray(out).dtype, np.asarray(out).view(np.uint64).tolist()


@st.composite
def all_op_trees(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "u", "const"]))
        if leaf == "const":
            return fx.Const(draw(st.sampled_from([0.0, -0.0, 1.0, 2.0]) | st.floats(
                min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)))
        return fx.Var(leaf)
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "pow"] + list(fx.FUNCTIONS)))
    if kind in "+-*/":
        return fx.Binary(kind, draw(all_op_trees(depth=depth + 1)),
                         draw(all_op_trees(depth=depth + 1)))
    if kind == "pow":
        return fx.Power(draw(all_op_trees(depth=depth + 1)),
                        draw(st.integers(min_value=-6, max_value=9)))
    return fx.Unary(kind, draw(all_op_trees(depth=depth + 1)))


WALK_X = np.array([0.0, -0.0, 0.7, -1.3, 2.5, 1e-3])
WALK_U = np.array([-0.0, 0.0, 1.1, -0.4, -3.0, 40.0])


@given(all_op_trees())
@example(fx.Power(fx.Var("u"), -1))  # numpy's int -1 power is a reciprocal
@example(fx.Binary("/", fx.Const(1.0), fx.Power(fx.Var("x"), -2)))
@settings(max_examples=300, deadline=None)
def test_compiled_evaluation_matches_the_tree_walk_bit_for_bit(tree):
    for node in (tree, fx.differentiate(tree, "x"), fx.differentiate(tree, "u")):
        assert outcome(fx.evaluate, node, WALK_X, WALK_U) == \
            outcome(walk_evaluate, node, WALK_X, WALK_U)
        for x, u in zip(WALK_X.tolist(), WALK_U.tolist()):
            assert outcome(fx.evaluate, node, x, u) == outcome(walk_evaluate, node, x, u)


def test_each_tree_compiles_once(monkeypatch):
    tree = fx.parse("(1+0.5*sin(x))*u^2/2 + u^-2")
    compiled = []
    real_compile = compile
    monkeypatch.setattr(fx, "compile", lambda *a: compiled.append(a[0]) or real_compile(*a),
                        raising=False)
    for _ in range(3):
        fx.evaluate(tree, np.ones(4), np.full(4, 2.0))
    assert compiled == ["(1.0 + 0.5 * sin(x)) * _ipow(u, 2) / 2.0 + _ipow(u, -2)"]


# ---------------------------------------------------------------------------
# integer powers as products
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
# both signs, both zeros, neighbours of 1 and a spread of magnitudes
POWER_U = np.array([0.0, -0.0, 1.0, -1.0, 1 - EPS / 2, -(1 + EPS), 0.999, -1.001,
                    3e-3, -0.3, 0.62, -7.5, 41.0])


@pytest.mark.parametrize("k", range(-6, 13))
def test_integer_power_is_within_2k_eps_of_the_exact_power(k):
    u = POWER_U if k >= 0 else POWER_U[POWER_U != 0.0]
    got = fx.evaluate(fx.parse(f"u^{k}"), 0.0, u)
    exact = np.power(u.astype(np.longdouble), k)
    assert np.all(np.abs(got - exact) <= 2 * abs(k) * EPS * np.abs(exact))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("k", range(-6, 13))
def test_integer_power_keeps_its_parity_and_scalar_bits(k):
    # libm's pow promises neither; the products give both exactly
    u = POWER_U if k >= 0 else POWER_U[POWER_U != 0.0]
    tree = fx.parse(f"u^{k}")
    got = fx.evaluate(tree, 0.0, u)
    mirrored = fx.evaluate(tree, 0.0, -u)
    assert bits(mirrored) == bits(got if k % 2 == 0 else -got)
    assert bits([fx.evaluate(tree, 0.0, v) for v in u.tolist()]) == bits(got)


def test_integer_power_past_the_float_range():
    # about a thousand squarings: 0 below 1 in magnitude, overflow above it
    k = 10 ** 300
    even, odd = fx.parse(f"u^{k}"), fx.parse(f"u^{k + 1}")
    inside = np.array([0.0, -0.0, 0.5, -0.999999, 1e-300])
    assert np.array_equal(fx.evaluate(even, 0.0, inside), np.zeros(5))
    assert [fx.evaluate(even, 0.0, v) for v in (1.0, -1.0)] == [1.0, 1.0]
    assert [fx.evaluate(odd, 0.0, v) for v in (1.0, -1.0)] == [1.0, -1.0]
    for u in (1.000001, -1.5, np.array([0.5, 2.0])):
        with pytest.raises(fx.DomainError):
            fx.evaluate(even, 0.0, u)
    # a negative power whose positive power overflows is 0, as pow gives it
    for tree, u in ((fx.parse(f"u^-{k}"), 1.5), (fx.parse("u^-2"), 1e200)):
        assert fx.evaluate(tree, 0.0, -u) == 0.0
        assert np.array_equal(fx.evaluate(tree, 0.0, np.array([u, -u])), np.zeros(2))
    with pytest.raises(fx.DomainError):
        fx.evaluate(fx.parse(f"u^-{k}"), 0.0, 0.5)  # 1/0


# ---------------------------------------------------------------------------
# Python's parser against the hand-written parser it replaced
# ---------------------------------------------------------------------------

_REFERENCE_OPERATORS = set("+-*/^()")


def reference_tokenize(src):
    """The tokenizer of the recursive-descent parser that `parse` replaced,
    kept as the reference: (kind, text, offset) triples."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _REFERENCE_OPERATORS:
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
                raise fx.ParseError(i, f"bad number literal {text!r}") from None
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
        raise fx.ParseError(i, f"unexpected character {c!r}")
    tokens.append(("end", "", n))
    return tokens


class ReferenceParser:
    """The recursive-descent parser that `parse` replaced, kept as the
    reference: ^ chains left and takes an optionally negated integer literal."""

    def __init__(self, src):
        self.src = src
        self.tokens = reference_tokenize(src)
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
            raise fx.ParseError(off, f"got {text or 'end of input'!r}", expected=(repr(op),))
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise fx.ParseError(off, f"trailing input {text!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = fx.Binary(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = fx.Binary(text, node, self.factor())
            else:
                return node

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return fx.Unary("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = fx.Power(node, self.exponent())
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
            raise fx.ParseError(off, f"got {text or 'end of input'!r}",
                                expected=("integer exponent",))
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return fx.Const(float(text))
        if kind == "ident":
            if text in fx.VARIABLES:
                return fx.Var(text)
            if text in fx.FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return fx.Unary(text, arg)
            raise fx.ParseError(off, f"unknown identifier {text!r}",
                                expected=fx.VARIABLES + fx.FUNCTIONS)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise fx.ParseError(off, f"got {text or 'end of input'!r}",
                            expected=("operand",))


def parse_outcome(parse, src):
    """The tree, or "ParseError" after checking that its offset lies in the source."""
    try:
        return parse(src)
    except fx.ParseError as e:
        assert 0 <= e.position <= len(src)
        return "ParseError"


DSL_TOKENS = ["u", "x", "2", "3", "0", "0.5", "(", ")", "+", "-", "*", "/", "^", " ",
              "sin(", "cos(", "tanh(", "exp(", "sqrt("]
# each trap of reading the DSL with Python's parser, with its neighbours
TRAPS = ["^-", "^2^3", "^-2^-3^4", "^(2)", "^-(2)", "^2.0", "^x", "**", "+", "^+2",
         "sin(u,)", ",", "0x1", "1_0", "1j", "True", "None", "...", "007", "02", "00", "1e-00",
         "1e5", "1.", ".5", ".", "e", "\n", "\t", "\x0c", "  ", "ｕ", "２", "é", "(sin)",
         "#", "1if", "not", "//", ".real", "_"]
token_strings = st.lists(st.sampled_from(2 * DSL_TOKENS + TRAPS), max_size=14).map("".join)
# sources built by the grammar, a few traps among their pieces, most with a
# token or two spliced in, so that many parse
dsl_strings = st.recursive(
    st.sampled_from(["u", "x", "2", "0.5", "007", "1e-00", ".5", "1.", "0", "(sin)(u)"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " - "]), inner).map("".join),
        inner.map("-{}".format),
        st.tuples(st.sampled_from(fx.FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
        inner.map("({})".format),
        st.tuples(inner, st.sampled_from(
            ["^2", "^-2^3", "^ - 1", "^02", "^2^-3^4", "^(2)", "^-(2)"])).map("".join)),
    max_leaves=8)


@st.composite
def spliced_strings(draw):
    src = draw(dsl_strings)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(src)))
        src = src[:at] + draw(st.sampled_from(DSL_TOKENS + TRAPS)) + src[at:]
    return src


@given(token_strings | spliced_strings())
@settings(max_examples=2000, deadline=None)
def test_parse_matches_the_recursive_descent_parser(src):
    got = parse_outcome(fx.parse, src)
    want = parse_outcome(lambda s: ReferenceParser(s).parse(), src)
    if got == "ParseError" and any(not c.isascii() and c.isdigit() for c in src):
        return  # a Unicode digit such as ２ was a number to the reference
    assert got == want


def test_power_chains_read_left_to_right():
    u = fx.Var("u")
    assert fx.parse("u^2^3") == fx.Power(fx.Power(u, 2), 3)
    assert fx.parse("u^-2^-3^4") == fx.Power(fx.Power(fx.Power(u, -2), -3), 4)
    assert fx.parse("(u^2)^3") == fx.parse("u ^ 2 ^ 3")
    assert fx.parse("-u^2^3") == fx.Unary("neg", fx.parse("u^2^3"))
    assert fx.parse("u ^ - 2") == fx.Power(u, -2)


@pytest.mark.parametrize("src", ["u^(2)", "u^-(2)", "u^(-2)", "u^2^(3)", "u^2.0", "u^2e0",
                                 "u^x", "u^--2"])
def test_exponents_are_integer_literals(src):
    with pytest.raises(fx.ParseError) as info:
        fx.parse(src)
    assert info.value.expected == ("integer exponent",)


@pytest.mark.parametrize("src", ["u**2", "+u", "u^+2", "sin(u,)", "0x1", "1_0", "1j*u",
                                 "True", "None", "(sin)(u)", "u # note", "1if u else x",
                                 "u//2", "u.real", "not u", "sin(*u)"])
def test_python_syntax_outside_the_dsl_is_rejected(src):
    with pytest.raises(fx.ParseError):
        fx.parse(src)


def test_dsl_inputs_python_refuses_are_read():
    u = fx.Var("u")
    assert fx.parse("007") == fx.Const(7.0)
    assert fx.parse("u^02") == fx.Power(u, 2)
    assert fx.parse("1e-00*u") == fx.Binary("*", fx.Const(1.0), u)
    assert fx.parse("00.5") == fx.Const(0.5)
    # a configparser value continues on indented lines
    assert fx.parse("  u^2/2\n    + x\t") == fx.parse("u^2/2 + x")


@pytest.mark.parametrize("src, position", [
    ("u +", 3),              # the input ended early
    ("  u ^ 2 ^ x", 10),     # ^ is read as **, and leading blanks are stripped
    ("u^2^3 )", 6),
    ("u^2 ** 3", 4),
    ("\n u ^ 2 + foo", 10),
    ("u^2 + ｕ", 6),
])
def test_parse_error_positions_are_source_offsets(src, position):
    with pytest.raises(fx.ParseError) as info:
        fx.parse(src)
    assert info.value.position == position


def test_non_ascii_is_rejected():
    # Python would read the fullwidth ｕ as u; a Unicode digit is no longer a number
    for src in ["ｕ^2", "u^２", "２*u", "sin(é)"]:
        with pytest.raises(fx.ParseError, match="unexpected"):
            fx.parse(src)


@pytest.mark.parametrize("src", ["(" * 300 + "u" + ")" * 300, "-" * 20000 + "u",
                                 "u" + "^2" * 3000, " + ".join(["u^2"] * 1500)],
                         ids=["parentheses", "minus", "powers", "sum"])
def test_deep_nesting_is_a_parse_error(src):
    with pytest.raises(fx.ParseError):
        fx.parse(src)
