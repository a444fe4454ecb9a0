import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metron import expr as ex
from oracles import central_difference


def test_parse_polynomial_arithmetic():
    e = ex.parse("x1^2 + 3*x2")
    assert ex.evaluate(e, (2.0, 1.0)) == pytest.approx(7.0)


def test_parse_exp_identity():
    assert ex.evaluate(ex.parse("exp(0)"), (0.3,)) == pytest.approx(1.0)
    assert ex.evaluate(ex.parse("exp(x1)"), (0.0,)) == pytest.approx(1.0)


def test_division_by_zero_reports_subtree():
    e = ex.parse("x1/x2")
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, (1.0, 0.0))
    assert "division by zero" in str(err.value)
    assert "x1/x2" in str(err.value)


def test_evaluate_examples():
    assert ex.evaluate(ex.parse("sin(x1)"), (0.0,)) == pytest.approx(0.0)
    assert ex.evaluate(ex.parse("x1*x2 + x2"), (2.0, 3.0)) == pytest.approx(9.0)
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("log(x1)"), (-1.0,))
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("sqrt(x1)"), (-4.0,))


def test_differentiate_examples():
    d = ex.differentiate(ex.parse("x1*x2"), 1)
    assert ex.evaluate(d, (5.0, 7.0)) == pytest.approx(7.0)
    d = ex.differentiate(ex.parse("exp(2*x1)"), 1)
    assert ex.evaluate(d, (0.0,)) == pytest.approx(2.0)
    d = ex.differentiate(ex.parse("x1^2"), 2)
    assert d is ex.ZERO


def test_unary_minus_binds_at_base_level():
    # per the grammar, -x1^2 is (-x1)^2
    assert ex.evaluate(ex.parse("-x1^2"), (3.0,)) == pytest.approx(9.0)
    assert ex.evaluate(ex.parse("-(x1^2)"), (3.0,)) == pytest.approx(-9.0)
    assert ex.evaluate(ex.parse("2*-x1"), (3.0,)) == pytest.approx(-6.0)


def test_power_right_associative():
    assert ex.evaluate(ex.parse("2^3^2"), ()) == pytest.approx(512.0)


def test_parse_errors_carry_offsets():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x1 + ")
    assert err.value.offset == 5
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("y1 + 2")
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("x10")
    with pytest.raises(ex.ArityError):
        ex.parse("exp + 1")
    with pytest.raises(ex.ParseError):
        ex.parse("exp()")
    with pytest.raises(ex.ParseError):
        ex.parse("(x1")


def test_number_literal_that_overflows_is_a_parse_error():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x1 + 1e999*x2")
    assert err.value.offset == 5
    assert ex.parse("1e-999") is ex.ZERO


def _parse_at_stack_depth(frames: int, source: str):
    if frames:
        return _parse_at_stack_depth(frames - 1, source)
    return ex.parse(source)


@pytest.mark.parametrize(
    "opener, closer",
    [("(", ")"), ("-", ""), ("exp(", ")"), ("x1^", "")],
    ids=["parentheses", "unary-minus", "function", "power"],
)
def test_nesting_deeper_than_the_limit_is_a_parse_error(opener, closer):
    """Parentheses, unary minus and '^' chains count; the limit is the
    same however deep the caller's stack already is."""
    n = ex.MAX_NESTING
    ex.parse(opener * n + "x1" + closer * n)
    for frames in (0, 300):
        with pytest.raises(ex.ParseError) as err:
            _parse_at_stack_depth(frames, opener * (n + 1) + "x1" + closer * (n + 1))
        # the token that opens level n + 1
        assert err.value.offset == len(opener) * (n + 1) - 1
        assert "nesting" in err.value.message


def test_deep_sum_is_walked_without_recursion():
    """A sum of n terms is a tree n deep; differentiate, evaluate and
    to_string walk it at the default recursion limit."""
    n, x = 5000, 0.5
    assert sys.getrecursionlimit() < n
    e = ex.parse(" + ".join(f"x1^{k}" for k in range(1, n + 1)))
    # sum_{k<=n} x^k and its derivative in closed form
    assert ex.evaluate(e, (x,)) == pytest.approx((x - x ** (n + 1)) / (1 - x), rel=1e-12)
    closed = (1 - (n + 1) * x**n + n * x ** (n + 1)) / (1 - x) ** 2
    assert ex.evaluate(ex.differentiate(e, 1), (x,)) == pytest.approx(closed, rel=1e-12)
    assert ex.differentiate(e, 2) is ex.ZERO
    assert ex.parse(ex.to_string(e)) is e


def test_repr_of_a_deep_sum_needs_no_recursion():
    """A node's repr is its class name and to_string, so printing a tree
    deeper than the recursion limit works."""
    e = ex.parse(" + ".join(f"{k}*x1" for k in range(1, 3000)))
    text = repr(e)
    assert text.startswith("Binary(") and "2999*x1" in text


def test_nodes_refuse_assignment_and_deletion():
    """Every tree and analysis in the process shares each node, so a node
    keeps its fields."""
    node = ex.parse("x1 + x2")
    with pytest.raises(AttributeError):
        node.mask = 0
    with pytest.raises(AttributeError):
        node.op = "-"
    with pytest.raises(AttributeError):
        del node.left
    assert (node.mask, ex.to_string(node)) == (0b11, "x1 + x2")


def test_coordinate_indices_and_function_names_are_checked():
    """Coordinates run x1..x9, for a variable and for a derivative."""
    for index in (0, 10):
        with pytest.raises(ValueError, match=f"got {index}"):
            ex.var(index)
        with pytest.raises(ValueError, match=f"got {index}"):
            ex.differentiate(ex.var(1), index)
    with pytest.raises(ValueError, match="'tan'"):
        ex.func("tan", ex.var(1))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_constant_must_be_finite(value):
    """An infinite constant failed far from its source: its repr raised
    OverflowError and evaluation returned it unnamed."""
    with pytest.raises(ValueError, match="constant is not a valid expression"):
        ex.const(value)


def test_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x1^0.5"), (-2.0,))
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x1^(0-1)"), (0.0,))
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("exp(x1)"), (1.0e4,))
    # integer powers of negative numbers are fine
    assert ex.evaluate(ex.parse("x1^3"), (-2.0,)) == pytest.approx(-8.0)


@pytest.mark.parametrize(
    "a, b, build, text",
    [
        (1e300, 1e300, ex.mul, "1e+300*1e+300"),
        (1e308, 1e308, ex.add, "1e+308 + 1e+308"),
        (1e308, -1e308, ex.sub, "1e+308 - -1e+308"),
        (1e300, 1e-300, ex.div, "1e+300/1e-300"),
    ],
)
def test_overflowing_constant_fold_keeps_its_node(a, b, build, text):
    """A fold whose value is not finite keeps the node, so evaluation
    names the subtree instead of a later NaN constant failing."""
    e = build(ex.const(a), ex.const(b))
    assert not isinstance(e, ex.Const)
    assert ex.to_string(e) == text
    with pytest.raises(ex.DomainError, match=re.escape(f"'{text}' at (0.5,)")):
        ex.evaluate(ex.mul(e, ex.var(1)), (0.5,))
    with pytest.raises(ex.DomainError, match=re.escape(f"'{text}' at (0.5,)")):
        ex.Evaluator([ex.differentiate(ex.mul(ex.var(1), e), 1)])(np.array([[0.5]]))


def test_evaluator_matches_walker():
    source = "exp(x1*x2) - sin(x2)/(1 + x1^2) + sqrt(x2 + 2)"
    e = ex.parse(source)
    rng = np.random.default_rng(5)
    points = [tuple(rng.uniform(-1, 1, size=2)) for _ in range(50)]
    values = ex.Evaluator([e])(np.array(points))
    assert values.shape == (50, 1)
    for p, v in zip(points, values[:, 0]):
        assert v == pytest.approx(ex.evaluate(e, p), abs=1e-15)


def test_evaluator_shares_subtrees_between_roots():
    shared = ex.parse("exp(x1*x2) + x2")
    first = ex.mul(shared, ex.parse("x1"))
    second = ex.func("sqrt", ex.add(shared, ex.const(2.0)))
    rng = np.random.default_rng(6)
    points = rng.uniform(-1, 1, size=(7, 3, 2))
    values = ex.Evaluator([first, second, first])(points)
    assert values.shape == (7, 3, 3)
    for p, row in zip(points.reshape(-1, 2).tolist(), values.reshape(-1, 3)):
        for root, v in zip((first, second, first), row):
            assert v == pytest.approx(ex.evaluate(root, p), abs=1e-15)
    # one point without a batch axis gives one value per root
    assert ex.Evaluator([first, second])(points[0, 0]).shape == (2,)


def test_evaluator_returns_its_input_shape():
    """A nested array of expressions evaluates to an array of the same
    shape after the points' batch axes, at any nesting depth."""
    a, b, c = ex.parse("x1 + x2"), ex.parse("x1*x2"), ex.parse("exp(x2)")
    nested = (((a, b), (c, ex.ONE)), ((b, a), (ex.ZERO, c)), ((a, a), (b, b)))
    points = np.random.default_rng(7).uniform(-1, 1, size=(4, 5, 2))
    values = ex.Evaluator(nested)(points)
    assert values.shape == (4, 5, 3, 2, 2)
    for p, got in zip(points.reshape(-1, 2).tolist(), values.reshape(-1, 3, 2, 2)):
        for idx in np.ndindex(3, 2, 2):
            e = nested[idx[0]][idx[1]][idx[2]]
            assert got[idx] == pytest.approx(ex.evaluate(e, p), abs=1e-15)
    single = ex.Evaluator([list(row) for row in nested[0]])(points[0, 0])
    assert single.shape == (2, 2)
    assert np.array_equal(single, values[0, 0, 0])
    assert ex.Evaluator([])(points).shape == (4, 5, 0)
    assert ex.Evaluator([])(points[0, 0]).shape == (0,)


@pytest.mark.parametrize(
    "entries",
    [
        ((ex.var(1), ex.var(2)), (ex.ONE,)),
        (((ex.var(1),), (ex.ONE,)), ((ex.ZERO,), (ex.var(1), ex.ONE))),
        ((ex.var(1), "x2"),),
        (ex.var(1), 2.0),
    ],
)
def test_evaluator_rejects_ragged_or_non_expression_entries(entries):
    with pytest.raises(ValueError):
        ex.Evaluator(entries)


def test_evaluator_names_a_pole_only_an_intermediate_value_hits():
    e = ex.parse("1 + 1/(1/(x1 - 0.5))")
    points = np.array([[0.25, 0.0], [0.5, 0.1], [0.5, 0.2]])
    with pytest.raises(ex.DomainError, match=r"'1/\(x1 - 0.5\)' at \(0.5, 0.1\)"):
        ex.Evaluator([ex.ONE, e])(points)


def test_variables():
    assert ex.variables(ex.parse("x1*x3 + exp(x2)")) == {1, 2, 3}
    assert ex.variables(ex.parse("4")) == set()


def _walked_variables(roots) -> dict:
    """node -> the Var indices of its subtree, for every node of the
    union DAG of roots, from a walk that reads no mask."""
    found: dict = {}
    stack = list(roots)
    while stack:
        node = stack[-1]
        if node in found:
            stack.pop()
            continue
        kids = [getattr(node, name) for name in ("arg", "left", "right") if hasattr(node, name)]
        pending = [kid for kid in kids if kid not in found]
        if pending:
            stack += pending
            continue
        stack.pop()
        found[node] = {node.index} if type(node) is ex.Var else set().union(*map(found.get, kids))
    return found


def _mask_cases() -> dict:
    """Named lists of roots: the problem files, corpus connections, the
    statistical families, gauged connections and derivative trees."""
    from metron.bundle import apply_gauge
    from support import involution_corpus, nilpotent_connection, random_polynomial_gauge
    from metron.statmodels import FAMILIES, alpha_connection, fisher_metric

    def leaves(value):
        if isinstance(value, str):
            return [ex.parse(value)]
        if isinstance(value, (list, dict)):
            items = value.values() if isinstance(value, dict) else value
            return [e for item in items for e in leaves(item)]
        return []

    def entries(conn):
        return [e for g in conn.gamma for row in g for e in row]

    problems = Path(__file__).resolve().parents[1] / "problems"
    cases = {
        path.name: leaves({k: v for k, v in json.loads(path.read_text()).items() if k != "domain"})
        for path in sorted(problems.glob("*.json"))
    }
    for k, (conn, _) in enumerate(involution_corpus(seed=7, count=12)):
        cases[f"corpus {k}"] = entries(conn)
    for name, family in FAMILIES.items():
        metric = fisher_metric(family)
        cases[name] = entries(alpha_connection(family, 0.5)) + [
            e for row in metric.entries for e in row
        ]
    rng = np.random.default_rng(5)
    nilpotent = nilpotent_connection()
    gauge = random_polynomial_gauge(rng, nilpotent.domain, 2)
    cases["gauged"] = entries(apply_gauge(gauge, nilpotent))
    cases["derivatives"] = [
        ex.differentiate(e, i) for e in cases["gauged"] + cases["gaussian1d"] for i in (1, 2, 3)
    ]
    return cases


MASK_CASES = _mask_cases()


@pytest.mark.parametrize("name", list(MASK_CASES))
def test_every_node_masks_the_variables_a_walk_finds(name):
    """Each node's mask, set by its factory, has bit i exactly when a walk
    of its subtree meets x_{i+1}; variables() of the roots agrees."""
    roots = MASK_CASES[name]
    found = _walked_variables(roots)
    assert roots
    for node, indices in found.items():
        assert {i + 1 for i in range(ex.MAX_VARIABLES) if node.mask >> i & 1} == indices, (
            name,
            ex.to_string(node),
        )
    assert ex.variables(*roots) == set().union(*map(found.get, roots))
    for root in roots:
        for dim in range(4):
            assert ex.beyond(root, dim) == min((i for i in found[root] if i > dim), default=0)


# ---------------------------------------------------------------------------
# random-AST corpus: derivative vs central difference, print round-trip
# ---------------------------------------------------------------------------


def _random_ast(rng: np.random.Generator, m: int, depth: int):
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.5:
            return ex.const(round(float(rng.uniform(-3, 3)), 3))
        return ex.var(int(rng.integers(1, m + 1)))
    kind = rng.choice(
        ["add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sin", "cos", "sqrt"]
    )
    a = _random_ast(rng, m, depth - 1)
    if kind == "neg":
        return ex.neg(a)
    if kind == "pow":
        return ex.pow_(a, ex.const(int(rng.integers(1, 4))))
    if kind in ("exp", "log", "sin", "cos", "sqrt"):
        if kind == "exp":
            # keep magnitudes sane
            return ex.func("exp", ex.mul(ex.const(0.3), a))
        if kind in ("log", "sqrt"):
            return ex.func(kind, ex.add(ex.const(4.0), ex.mul(a, a)))
        return ex.func(kind, a)
    b = _random_ast(rng, m, depth - 1)
    if kind == "add":
        return ex.add(a, b)
    if kind == "sub":
        return ex.sub(a, b)
    if kind == "mul":
        return ex.mul(a, b)
    return ex.div(a, ex.add(ex.const(3.0), ex.mul(b, b)))


def test_derivative_matches_central_difference_on_random_corpus():
    """100 random ASTs of depth <= 6 at random interior points."""
    rng = np.random.default_rng(42)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        m = int(rng.integers(1, 4))
        e = _random_ast(rng, m, int(rng.integers(2, 7)))
        x = tuple(rng.uniform(-0.9, 0.9, size=m))
        i = int(rng.integers(1, m + 1))
        try:
            value = ex.evaluate(e, x)
            d_sym = ex.evaluate(ex.differentiate(e, i), x)
            d_num = central_difference(e, i, x, h=1e-5)
        except ex.DomainError:
            continue
        if abs(value) > 1e3 or abs(d_sym) > 1e3:
            continue
        assert abs(d_sym - d_num) <= 1e-6 * (1.0 + abs(value)) + 1e-6 * abs(d_sym), (
            f"derivative mismatch for {ex.to_string(e)} at {x}"
        )
        checked += 1
    assert checked == 100


def test_print_parse_round_trip_random_corpus():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        e = _random_ast(rng, m, int(rng.integers(1, 6)))
        text = ex.to_string(e)
        e2 = ex.parse(text)
        for _ in range(5):
            x = tuple(rng.uniform(-0.9, 0.9, size=m))
            try:
                v1 = ex.evaluate(e, x)
            except ex.DomainError:
                continue
            v2 = ex.evaluate(e2, x)
            assert abs(v1 - v2) <= 1e-12 * (1.0 + abs(v1))


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.integers(min_value=1, max_value=3).map(ex.var),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
        lambda v: ex.const(round(v, 4))
    ),
)


def _combine(children):
    a = children
    return st.one_of(
        st.tuples(a, a).map(lambda t: ex.add(*t)),
        st.tuples(a, a).map(lambda t: ex.sub(*t)),
        st.tuples(a, a).map(lambda t: ex.mul(*t)),
        a.map(ex.neg),
        a.map(lambda e: ex.func("sin", e)),
        a.map(lambda e: ex.func("cos", e)),
        st.tuples(a, st.integers(min_value=1, max_value=3)).map(
            lambda t: ex.pow_(t[0], ex.const(t[1]))
        ),
    )


_ast = st.recursive(_leaf, _combine, max_leaves=12)


@given(_ast, st.tuples(*[st.floats(-0.9, 0.9) for _ in range(3)]))
def test_round_trip_evaluates_identically(e, point):
    text = ex.to_string(e)
    reparsed = ex.parse(text)
    v1 = ex.evaluate(e, point)
    v2 = ex.evaluate(reparsed, point)
    assert v2 == pytest.approx(v1, abs=1e-12, rel=1e-12)


@given(_ast, st.tuples(*[st.floats(-0.9, 0.9) for _ in range(3)]), st.integers(1, 3))
def test_derivative_linearity_in_sum(e, point, i):
    doubled = ex.add(e, e)
    d1 = ex.evaluate(ex.differentiate(e, i), point)
    d2 = ex.evaluate(ex.differentiate(doubled, i), point)
    assert d2 == pytest.approx(2.0 * d1, abs=1e-10, rel=1e-9)


# ---------------------------------------------------------------------------
# Taylor coefficients against exact derivatives
# ---------------------------------------------------------------------------


def _exact_coefficients(e, point, degree):
    """d^a e / a! at point for every monomial of the basis, from
    differentiate() trees evaluated by evaluate()."""
    basis = ex.taylor_basis(len(point), degree)
    out = []
    for powers in basis.monomials:
        d = e
        for i, k in enumerate(powers):
            for _ in range(k):
                d = ex.differentiate(d, i + 1)
        out.append(ex.evaluate(d, point) / np.prod([math.factorial(k) for k in powers]))
    return np.array(out)


TAYLOR_CASES = [
    # every op, mixed partials in two and three coordinates
    ("x1*x2^2 - 3*x1 + x2 - 2", (0.3, 0.7)),
    ("-(x1*x2) + x2*x2*x2", (-0.4, 0.6)),
    ("x1/x2 + 1/(1 + x1*x2*x3)", (0.3, 0.7, -0.5)),
    ("x1^3*x2^4 + x3^2", (0.3, -0.7, 0.2)),
    ("(x1 + x2)^2.5 + x2^0.5", (0.2, 0.9)),
    ("x1^x2 + 2^(x1*x3)", (1.5, 0.4, -0.3)),
    ("exp(x1*x2) + exp(-x3)", (0.3, -0.2, 0.5)),
    ("log(1 + x1^2 + x2) + log(x3)", (0.5, 0.3, 2.0)),
    ("sin(x1*x2) + cos(x1 - x3)", (0.3, -1.2, 0.4)),
    ("sqrt(x1 + x2^2) * sqrt(x3)", (0.5, 0.3, 0.8)),
    ("sin(x1)/cos(x2) * exp(x1)^(1/3)", (0.4, 0.2)),
    # a base whose value is 0
    ("x1^2", (0.0, 0.4)),
    ("x1^2*x2 + x1^3", (0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("text, point", TAYLOR_CASES)
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_taylor_coefficients_match_exact_derivatives(text, point, degree):
    e = ex.parse(text)
    coeffs, origins = ex.taylor([e], point, degree)
    got = coeffs[:, 0]
    want = _exact_coefficients(e, point, degree)
    assert got.shape == (math.comb(len(point) + degree, degree),)
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
    assert origins == [None]


def test_taylor_roots_share_one_walk():
    """Several roots come back column by column, constants included."""
    roots = [ex.parse("x1*x2"), ex.parse("3"), ex.parse("exp(x2)")]
    got, _ = ex.taylor(roots, (0.5, -0.5), 2)
    for j, e in enumerate(roots):
        assert np.array_equal(got[:, j], ex.taylor([e], (0.5, -0.5), 2)[0][:, 0])
    assert got[:, 1].tolist() == [3.0, 0, 0, 0, 0, 0]


def test_taylor_structural_zeros_are_exact():
    """sqrt(x1^2) has no x1 derivative at 0, but every coefficient along
    a coordinate its subtree does not mention is exactly 0, never NaN."""
    basis = ex.taylor_basis(3, 3)
    for text in ("sqrt(x1^2)", "sqrt(x1^2)*x2", "x3 + (x1^2)^0.25*x2"):
        e = ex.parse(text)
        got = ex.taylor([e], (0.0, 0.0, 0.0), 3)[0][:, 0]
        mentioned = ex.variables(e)
        for c, powers in zip(got, basis.monomials):
            if any(k and i + 1 not in mentioned for i, k in enumerate(powers)):
                assert c == 0.0, (text, powers)
        assert not np.isfinite(got).all()  # the x1 derivatives do not exist


def test_taylor_names_a_value_that_leaves_its_domain():
    with pytest.raises(ex.DomainError, match=re.escape("'sqrt(x1 - 1)' at (0.5, 0.0)")):
        ex.taylor([ex.parse("x2 + sqrt(x1 - 1)")], (0.5, 0.0), 2)


def test_derivative_failure_names_the_singular_derivative():
    """The origin of a root whose coefficients are not finite is the
    subtree whose own derivative does not exist at the point, a subtree
    of the root; a root whose series stays finite has no origin."""
    singular = ex.parse("sqrt(x1^2)")
    roots = [singular, ex.parse("x2*x2 + 3*sqrt(x1^2)*exp(x2)"), ex.parse("x1*x2")]
    got, origins = ex.taylor(roots, np.array([0.0, 0.0]), 1)
    assert not np.isfinite(got[:, :2]).all(axis=0).any() and np.isfinite(got[:, 2]).all()
    assert origins == [singular, singular, None]
