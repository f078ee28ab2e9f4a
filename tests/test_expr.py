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
    assert np.array_equal(fx.evaluate(tree, x, u), a * u ** 2 / 2.0 + u ** 4 / 12.0)
    assert np.array_equal(fx.evaluate(du, x, u),
                          a * (2.0 * u) * 2.0 / 4.0 + 4.0 * u ** 3 * 12.0 / 144.0)
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
        base = walk(n.base)
        return base ** (n.exponent if n.exponent >= 0 else float(n.exponent))

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
                        draw(st.integers(min_value=-3, max_value=4)))
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
    assert compiled == ["(1.0 + 0.5 * sin(x)) * u**2 / 2.0 + u**-2.0"]

