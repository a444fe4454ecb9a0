import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from metron import expr as ex
from metron.bundle import (
    ChartDomain,
    Connection,
    GaugeTransform,
    MetricField,
    apply_gauge,
    curvature,
    dual_connection,
    dual_gauge_compatibility_residual,
    identity_metric,
    inverse_mat,
    levi_civita,
    numerical_rank,
    pushforward_metric,
    zero_connection,
)
from oracles import levi_civita_oracle
from support import (
    NILPOTENT_MATRIX,
    constant_metric,
    entrywise,
    entrywise_diff,
    entrywise_inverse,
    entrywise_product,
    entrywise_transpose,
    flat_connection,
    half_plane_levi_civita,
    half_plane_metric,
    involution_corpus,
    metric_covariant_derivative,
    nilpotent_connection,
    path_operator,
    random_constant_gauge,
    random_constant_metric,
    random_polynomial_connection,
    random_polynomial_gauge,
    square_domain,
    transport_along,
)


def _max_coeff_diff(a: Connection, b: Connection) -> float:
    pts = a.domain.sample_points()
    worst = 0.0
    for ga, gb in zip(a.gamma, b.gamma):
        worst = max(worst, float(np.abs(ex.Evaluator(ga - gb)(pts)).max()))
    return worst


# ---------------------------------------------------------------------------
# chart domain
# ---------------------------------------------------------------------------


def test_domain_grid_is_strictly_interior_and_centered():
    dom = ChartDomain((-1.0, 0.0), (1.0, 2.0), (9, 5))
    pts = dom.sample_points()
    assert pts.shape == (45, 2)
    assert np.all(pts[:, 0] > -1.0) and np.all(pts[:, 0] < 1.0)
    assert np.all(pts[:, 1] > 0.0) and np.all(pts[:, 1] < 2.0)
    center = dom.center()
    assert any(np.allclose(p, center) for p in pts)


def test_domain_rejects_bad_bounds():
    for lower, upper in [(0.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)]:
        with pytest.raises(ValueError):
            ChartDomain((lower,), (upper,))


@pytest.mark.parametrize("counts", [(7,), (5, 9), (3, 1, 4), (2, 2, 2, 2)])
def test_sample_points_are_the_axis_product_in_c_order(counts):
    """The grid is the product of the axis points, the last axis running
    fastest, value for value."""
    m = len(counts)
    dom = ChartDomain(tuple(-1.0 - i for i in range(m)), tuple(0.5 + i for i in range(m)), counts)
    axes = [dom.axis_points(i, n) for i, n in enumerate(counts)]
    assert np.array_equal(dom.sample_points(), np.array(list(itertools.product(*axes))))


@pytest.mark.parametrize(
    "lower, upper, samples, value",
    [
        ((0.0, 0.0), (1.0,), None, None),  # lower and upper differ in length
        ((), (), None, None),  # no coordinate
        ((0.0,) * 10, (1.0,) * 10, None, "9"),  # more than MAX_VARIABLES
        ((0.0, 0.0), (1.0, 1.0), (3,), None),  # one count for two axes
        ((0.0, 0.0), (1.0, 1.0), (3, 0), None),  # an axis without samples
        # counts that are not integers, refused and not truncated
        ((0.0, 0.0), (1.0, 1.0), (2.7, 3.9), "samples_per_axis"),
        ((0.0,), (1.0,), (True,), "samples_per_axis"),
    ],
)
def test_domain_rejects_a_malformed_box(lower, upper, samples, value):
    with pytest.raises(ValueError, match=value):
        ChartDomain(lower, upper, samples)


def test_domain_takes_numpy_integer_counts():
    dom = ChartDomain((0.0, 0.0), (1.0, 1.0), (np.int64(3), np.int32(1)))
    assert dom.samples_per_axis == (3, 1)
    plain = ChartDomain((0.0, 0.0), (1.0, 1.0), (3, 1))
    assert np.array_equal(dom.sample_points(), plain.sample_points())


def test_a_coordinate_beyond_the_chart_names_its_entry():
    """An entry mentioning x3 on a 2-dimensional chart is refused with
    the coordinate named, for connections, forms and gauges, by the
    message of `variable_error` that the CLI reports at the entry."""
    dom = square_domain(5)
    gamma = ((("0", "0"), ("0", "0")), ((ex.ZERO, ex.parse("x1 + x3")), (ex.ZERO, ex.ZERO)))
    with pytest.raises(ValueError) as err:
        Connection(dom, 2, gamma)
    assert str(err.value) == "expression uses x3 but the chart has dimension 2"
    entries = ((ex.ONE, ex.ZERO), (ex.ZERO, ex.parse("1 + x3^2")))
    with pytest.raises(ValueError) as err:
        MetricField(dom, 2, entries)
    assert str(err.value) == "expression uses x3 but the chart has dimension 2"
    with pytest.raises(ValueError) as err:
        GaugeTransform(dom, 2, entries)
    assert str(err.value) == "expression uses x3 but the chart has dimension 2"


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_zero_connection_is_flat():
    conn = flat_connection()
    values = ex.Evaluator(curvature(conn))(conn.domain.sample_points())
    assert np.abs(values).max() <= 0.0


def test_nilpotent_curvature_is_constant_nilpotent_matrix():
    conn = nilpotent_connection()
    field = ex.Evaluator(curvature(conn))
    for p in conn.domain.sample_points()[::7]:
        assert np.allclose(field(p)[0, 1], NILPOTENT_MATRIX, atol=1e-14)
        assert np.allclose(field(p)[1, 0], -NILPOTENT_MATRIX, atol=1e-14)


def test_nilpotent_curvature_matches_loop_deficit():
    """Second, discretisation-based route to the same tensor: holonomy of
    a small coordinate square differs from the identity by about
    area times the curvature action."""
    conn = nilpotent_connection()
    x0 = np.array([0.4, -0.2])
    r = conn.r
    eye = np.eye(r)
    deficits = []
    for eps in (0.08, 0.04):
        square = (
            x0,
            x0 + np.array([eps, 0.0]),
            x0 + np.array([eps, eps]),
            x0 + np.array([0.0, eps]),
            x0,
        )
        h = path_operator(conn, conn, square, steps=16)
        n = NILPOTENT_MATRIX
        commutator_action = np.kron(n, eye) - np.kron(eye, n.T)
        deficits.append((eps, h - np.eye(r * r), commutator_action))
    for eps, deficit, action in deficits:
        # |deficit| is O(eps^2); fix the sign by comparing both orientations
        scale = eps * eps
        err_plus = np.abs(deficit - scale * action).max()
        err_minus = np.abs(deficit + scale * action).max()
        assert min(err_plus, err_minus) <= 5.0 * eps ** 3
    # third-order convergence of the matched orientation
    eps0, d0, a0 = deficits[0]
    eps1, d1, a1 = deficits[1]
    res0 = min(
        np.abs(d0 - eps0 ** 2 * a0).max(), np.abs(d0 + eps0 ** 2 * a0).max()
    )
    res1 = min(
        np.abs(d1 - eps1 ** 2 * a1).max(), np.abs(d1 + eps1 ** 2 * a1).max()
    )
    assert res1 <= res0 / 4.0


def test_constant_gauge_of_flat_is_flat():
    dom = square_domain()
    conn = flat_connection(dom)
    rng = np.random.default_rng(3)
    phi = random_constant_gauge(rng, dom, 2)
    values = ex.Evaluator(curvature(apply_gauge(phi, conn)))(dom.sample_points())
    assert np.abs(values).max() <= 1e-12


def test_curvature_transforms_by_conjugation():
    dom = square_domain(5)
    rng = np.random.default_rng(11)
    conn = random_polynomial_connection(rng, dom, 2)
    phi = random_polynomial_gauge(rng, dom, 2)
    base = ex.Evaluator(curvature(conn))
    trans = ex.Evaluator(curvature(apply_gauge(phi, conn)))
    for p in dom.sample_points()[::4]:
        pm = phi.matrix_at(p)
        expected = np.linalg.inv(pm) @ base(p)[0, 1] @ pm
        assert np.abs(trans(p)[0, 1] - expected).max() <= 1e-8


# ---------------------------------------------------------------------------
# dual connection
# ---------------------------------------------------------------------------


def test_euclidean_self_duality():
    conn = flat_connection()
    g = identity_metric(conn.domain, 2)
    dual = dual_connection(g, conn)
    assert _max_coeff_diff(dual, conn) == 0.0


def test_dual_is_involution_on_random_corpus():
    for conn, metric in involution_corpus(seed=314, count=10):
        back = dual_connection(metric, dual_connection(metric, conn))
        assert _max_coeff_diff(back, conn) <= 1e-9


def test_metric_connection_is_fixed_point_of_dual():
    conn, metric = half_plane_levi_civita()
    _, residual = metric_covariant_derivative(conn, metric)
    assert residual <= 1e-9
    dual = dual_connection(metric, conn)
    assert _max_coeff_diff(dual, conn) <= 1e-9


def test_dual_fixed_point_iff_parallel():
    # a connection that does NOT preserve the metric moves under the dual
    dom = square_domain(5)
    rng = np.random.default_rng(23)
    conn = random_polynomial_connection(rng, dom, 2)
    metric = random_constant_metric(rng, dom, 2)
    _, residual = metric_covariant_derivative(conn, metric)
    moved = _max_coeff_diff(dual_connection(metric, conn), conn)
    assert residual > 1e-3
    assert moved > 1e-3


def test_dual_motion_bounded_by_parallelism_residual():
    """Quantitative fixed-point biconditional: the dual moves the
    connection by at most the metric's parallelism residual scaled by
    the conditioning of G, and conversely."""
    rng = np.random.default_rng(71)
    dom = square_domain(5)
    for _ in range(5):
        conn = random_polynomial_connection(rng, dom, 2, scale=0.4)
        metric = random_constant_metric(rng, dom, 2)
        _, residual = metric_covariant_derivative(conn, metric)
        moved = _max_coeff_diff(dual_connection(metric, conn), conn)
        conditioning = max(
            np.abs(np.linalg.inv(metric.matrix_at(p))).max() * 2.0
            for p in dom.sample_points()[::6]
        )
        norm_g = max(
            np.abs(metric.matrix_at(p)).max() * 2.0 for p in dom.sample_points()[::6]
        )
        assert moved <= residual * conditioning + 1e-12
        assert residual <= moved * norm_g + 1e-12


def test_dual_requires_regular_metric():
    dom = square_domain(5)
    singular = MetricField(dom, 2, (("1", "0"), ("0", "0")))
    with pytest.raises(ValueError):
        dual_connection(singular, flat_connection(dom))


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------


def test_identity_gauge_leaves_connection():
    dom = square_domain(5)
    rng = np.random.default_rng(4)
    conn = random_polynomial_connection(rng, dom, 2)
    phi = GaugeTransform(dom, 2, np.eye(2))
    assert _max_coeff_diff(apply_gauge(phi, conn), conn) <= 1e-15


def test_constant_gauge_of_zero_connection_is_zero():
    dom = square_domain(5)
    conn = flat_connection(dom)
    rng = np.random.default_rng(6)
    phi = random_constant_gauge(rng, dom, 2)
    assert _max_coeff_diff(apply_gauge(phi, conn), conn) <= 1e-12


def test_gauge_action_round_trip():
    dom = square_domain(5)
    rng = np.random.default_rng(8)
    for r in (2, 3):
        conn = random_polynomial_connection(rng, dom, r)
        phi = random_polynomial_gauge(rng, dom, r)
        phi_inv = GaugeTransform(dom, r, inverse_mat(phi.entries))
        back = apply_gauge(phi_inv, apply_gauge(phi, conn))
        assert _max_coeff_diff(back, conn) <= 1e-9


# ---------------------------------------------------------------------------
# metric pushforward
# ---------------------------------------------------------------------------


def test_pushforward_identity():
    dom = square_domain(5)
    metric = half_plane_metric(ChartDomain((-1.0, 0.75), (1.0, 1.75), (5, 5)))
    phi = GaugeTransform(metric.domain, 2, np.eye(2))
    pushed = pushforward_metric(phi, metric)
    for p in metric.domain.sample_points():
        assert np.allclose(pushed.matrix_at(p), metric.matrix_at(p), atol=1e-14)


def test_pushforward_scaling():
    dom = square_domain(5)
    metric = identity_metric(dom, 2)
    phi = GaugeTransform(dom, 2, (("2", "0"), ("0", "2")))
    pushed = pushforward_metric(phi, metric)
    for p in dom.sample_points()[::6]:
        assert np.allclose(pushed.matrix_at(p), np.eye(2) / 4.0, atol=1e-14)


def test_pushforward_preserves_rank_of_singular_metric():
    dom = square_domain(5)
    singular = MetricField(dom, 2, (("1", "1"), ("1", "1")))
    rng = np.random.default_rng(9)
    phi = random_polynomial_gauge(rng, dom, 2)
    pushed = pushforward_metric(phi, singular)
    for p in dom.sample_points():
        assert numerical_rank(pushed.matrix_at(p)) == 1


# ---------------------------------------------------------------------------
# covariant derivative of a metric
# ---------------------------------------------------------------------------


def test_flat_constant_metric_is_parallel():
    dom = square_domain(5)
    conn = flat_connection(dom)
    rng = np.random.default_rng(10)
    metric = random_constant_metric(rng, dom, 2)
    _, residual = metric_covariant_derivative(conn, metric)
    assert residual == 0.0


def test_levi_civita_parallel_and_matches_oracle():
    conn, metric = half_plane_levi_civita()
    _, residual = metric_covariant_derivative(conn, metric)
    assert residual <= 1e-9
    # independent finite-difference Christoffel oracle
    fn = metric.matrix_at
    for p in metric.domain.sample_points()[::13]:
        gamma_oracle = levi_civita_oracle(fn, p)
        assert np.abs(conn.coeff_at(p) - gamma_oracle).max() <= 1e-6


def test_levi_civita_needs_a_regular_metric_on_the_tangent_bundle():
    dom = square_domain(3)
    with pytest.raises(ValueError):
        levi_civita(MetricField(dom, 1, [["1"]]))  # rank 1 on a 2-d chart
    with pytest.raises(ValueError):
        levi_civita(MetricField(dom, 2, [["1", "0"], ["0", "0"]]))


def test_a_symbolic_inverse_above_rank_4_is_refused():
    """Cofactor expansion bounds the inverse, so the dual of a rank-5
    connection is refused, though its metric is regular."""
    dom = square_domain(3)
    with pytest.raises(ValueError, match="got 5"):
        dual_connection(identity_metric(dom, 5), zero_connection(dom, 5))


def test_forced_nonparallel_metric():
    dom = square_domain(5)
    conn = flat_connection(dom)
    entries = (("1 + x1", "0"), ("0", "1"))
    metric = MetricField(dom, 2, entries)
    field, residual = metric_covariant_derivative(conn, metric)
    assert residual == pytest.approx(1.0)
    # the offending entry is exactly d1 g11 = 1
    p = dom.sample_points()[0]
    assert ex.Evaluator(field[0])(p)[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dual/gauge compatibility
# ---------------------------------------------------------------------------


def test_compat_identity_gauge_zero_residual():
    dom = square_domain(5)
    conn = flat_connection(dom)
    metric = identity_metric(dom, 2)
    phi = GaugeTransform(dom, 2, np.eye(2))
    assert dual_gauge_compatibility_residual(phi, metric, conn) <= 1e-15


def test_compat_constant_gauge_euclidean():
    dom = square_domain(5)
    conn = flat_connection(dom)
    metric = identity_metric(dom, 2)
    rng = np.random.default_rng(12)
    phi = random_constant_gauge(rng, dom, 2)
    assert dual_gauge_compatibility_residual(phi, metric, conn) <= 1e-12


def test_compat_random_polynomial_data():
    dom = square_domain(5)
    rng = np.random.default_rng(13)
    for _ in range(3):
        conn = random_polynomial_connection(rng, dom, 2)
        metric = random_constant_metric(rng, dom, 2)
        phi = random_polynomial_gauge(rng, dom, 2)
        assert dual_gauge_compatibility_residual(phi, metric, conn) <= 1e-8


# ---------------------------------------------------------------------------
# node identity: each construction against its formula written out
# ---------------------------------------------------------------------------


def _assert_same_nodes(got, want):
    got, want = np.asarray(got, dtype=object), np.array(want, dtype=object)
    assert got.shape == want.shape
    assert all(g is w for g, w in zip(got.flat, want.flat))


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.json")), ids=str
)
def test_constructions_return_the_nodes_of_their_formulas(path):
    """Curvature, the dual, the gauge action and the pushforward on the
    bundled problems (the identity metric where a problem has none) under
    the gauge [[1, x1], [0, 1]], entry by entry: the same interned
    nodes, so every operand keeps its order."""
    data = json.loads(path.read_text(encoding="utf-8"))
    m, r = data["dim"], data["rank"]
    dom = ChartDomain(tuple(data["domain"]["lower"]), tuple(data["domain"]["upper"]), (3,) * m)
    conn = Connection(dom, r, data["connection"])
    metric = MetricField(dom, r, data["metric"]) if "metric" in data else identity_metric(dom, r)
    phi = GaugeTransform(dom, r, [["1", "x1"], ["0", "1"]])
    gamma, g, p = conn.gamma, metric.entries, phi.entries
    ginv, pinv = entrywise_inverse(g), entrywise_inverse(p)
    zeros = [[ex.ZERO] * r for _ in range(r)]
    field = [[zeros] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        rij = entrywise(
            ex.add,
            entrywise(ex.sub, entrywise_diff(gamma[j], i + 1), entrywise_diff(gamma[i], j + 1)),
            entrywise(
                ex.sub,
                entrywise_product(gamma[j], gamma[i]),
                entrywise_product(gamma[i], gamma[j]),
            ),
        )
        field[i][j], field[j][i] = rij, [[ex.neg(e) for e in row] for row in rij]
    dual = [
        entrywise_product(
            entrywise(
                ex.sub,
                entrywise_diff(g, i + 1),
                entrywise_product(g, entrywise_transpose(gamma[i])),
            ),
            ginv,
        )
        for i in range(m)
    ]
    gauged = [
        entrywise_product(
            pinv, entrywise(ex.sub, entrywise_product(gamma[i], p), entrywise_diff(p, i + 1))
        )
        for i in range(m)
    ]
    pushed = entrywise_product(pinv, entrywise_product(g, entrywise_transpose(pinv)))
    _assert_same_nodes(curvature(conn), field)
    _assert_same_nodes(dual_connection(metric, conn).gamma, dual)
    _assert_same_nodes(apply_gauge(phi, conn).gamma, gauged)
    _assert_same_nodes(pushforward_metric(phi, metric).entries, pushed)


# ---------------------------------------------------------------------------
# metric field validation
# ---------------------------------------------------------------------------


def test_an_infinite_coefficient_is_refused_where_it_is_given():
    """An infinite number entry made decide_metricity raise OverflowError
    and coeff_array return inf; the connection refuses it."""
    dom = square_domain(5)
    with pytest.raises(ValueError, match="inf constant"):
        Connection(dom, 1, [[[float("inf")]], [["x1"]]])
    with pytest.raises(ValueError, match="-inf constant"):
        Connection(dom, 1, [[["x2"]], [[float("-inf")]]])


def test_coefficient_arrays_must_have_the_bundle_shape():
    """One r x r matrix per coordinate for a connection, one r x r
    matrix for a form or a gauge map; a ragged row is a wrong shape too.
    The errors name the expected shape or the count given."""
    dom = square_domain(3)
    rank3 = [["0"] * 3] * 3
    with pytest.raises(ValueError, match="got 3"):
        Connection(dom, 3, [rank3] * 3)  # three matrices on a 2-d chart
    with pytest.raises(ValueError, match="3x3"):
        Connection(dom, 3, [[["0"] * 2] * 2] * 2)
    with pytest.raises(ValueError, match="2x2"):
        Connection(dom, 2, [[["0", "0"], ["0"]], [["0", "0"], ["0", "0"]]])
    with pytest.raises(ValueError, match="2x2"):
        MetricField(dom, 2, rank3)
    with pytest.raises(ValueError, match="2x2"):
        MetricField(dom, 2, [["1", "0"], ["0"]])
    with pytest.raises(ValueError, match="2x2"):
        GaugeTransform(dom, 2, [["1"]])


def test_coefficient_arrays_are_read_only():
    """Every tree shares its nodes and curvature is kept on its
    connection, so no stored array of nodes can be written."""
    dom = square_domain(3)
    conn = nilpotent_connection(dom)
    phi = GaugeTransform(dom, 2, np.eye(2))
    for array in (conn.gamma, identity_metric(dom, 2).entries, phi.entries, curvature(conn)):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = ex.ONE


def test_an_entry_must_be_an_expression_a_string_or_a_number():
    dom = square_domain(3)
    with pytest.raises(TypeError):
        MetricField(dom, 2, [["1", None], [None, "1"]])
    with pytest.raises(TypeError):
        Connection(dom, 1, [[[{}]], [["0"]]])


def test_metric_field_rejects_asymmetric_entries():
    dom = square_domain(3)
    with pytest.raises(ValueError):
        MetricField(dom, 2, (("1", "x1"), ("0", "1")))


def test_metric_pole_hit_only_by_an_intermediate_value_is_named():
    """The entry is finite at x1 = 0.5 (1/inf = 0), but its inner
    1/(x1 - 0.5) divides by zero there; the error names that subtree and
    the first such sample point in C order."""
    dom = ChartDomain((0.0, 0.0), (1.0, 1.0), (5, 5))
    with pytest.raises(ex.DomainError) as err:
        MetricField(dom, 2, [["1 + 1/(1/(x1 - 0.5))", "0"], ["0", "1"]])
    assert str(err.value) == (
        f"division by zero in '1/(x1 - 0.5)' at {(0.5, 1.0 / 6.0)}"
    )


def test_a_metric_is_evaluated_on_its_grid_once(monkeypatch):
    """Construction's symmetry check evaluates the sample grid;
    is_regular and regularity_margin read those matrices again instead
    of evaluating it a second time, and give the margin of a fresh
    evaluation bit for bit."""
    dom = ChartDomain((-1.0, 0.75), (1.0, 1.75), (5, 5))
    entries = [["1 + x1*x1", "x1*x2/4"], ["x1*x2/4", "x2"]]
    calls = []
    evaluate = ex.Evaluator.__call__
    monkeypatch.setattr(
        ex.Evaluator, "__call__", lambda self, x: calls.append(len(x)) or evaluate(self, x)
    )
    metric = MetricField(dom, 2, entries)
    assert metric.is_regular()
    margin = metric.regularity_margin()
    assert calls == [25]
    mats = ex.Evaluator([[ex.parse(e) for e in row] for row in entries])(dom.sample_points())
    s = np.linalg.svd(mats, compute_uv=False)
    assert margin == (
        float(np.abs(np.linalg.det(mats)).min()),
        float((s[:, 0] / s[:, -1]).max()),
    )


def test_metric_rank_verification():
    dom = square_domain(3)
    singular = MetricField(dom, 2, (("1", "1"), ("1", "1")))
    assert not singular.is_regular()
    regular = constant_metric(dom, np.diag([1.0, 2.0]))
    assert regular.is_regular()


def test_stacked_rank_with_per_matrix_scale_matches_each_call():
    """numerical_rank of a stack with one scale per matrix reads each
    matrix as alone: a roundoff-sized matrix with a large scale is rank
    zero, the same matrix with no scale keeps its full rank."""
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((5, 3, 3))
    stack[1, 2] = stack[1, 0] + stack[1, 1]  # rank 2
    stack[2] *= 1e-12
    stack[3] = 0.0
    scales = np.array([1.0, 2.0, 1.0, 0.0, 1e-6])
    ranks = numerical_rank(stack, scale=scales)
    assert ranks.tolist() == [numerical_rank(m, scale=s) for m, s in zip(stack, scales)]
    assert ranks.tolist() == [3, 2, 0, 0, 3]
    assert numerical_rank(stack).tolist() == [3, 2, 3, 0, 3]
    assert numerical_rank(stack, scale=2.0).tolist() == [
        numerical_rank(m, scale=2.0) for m in stack
    ]


def test_transport_preserves_metric_pairing():
    """Dynamic witness of compatibility: transport a vector with the
    metric's own connection and watch g(v, v) stay constant."""
    conn, metric = half_plane_levi_civita()
    path = (np.array([-0.5, 1.0]), np.array([0.5, 1.2]), np.array([0.6, 1.5]))
    v0 = np.array([0.3, -0.7])
    v1 = transport_along(zero_connection(conn.domain, 1), conn, path, v0[None], steps=32)[0]
    g_start = metric.matrix_at(path[0])
    g_end = metric.matrix_at(path[-1])
    before = v0 @ g_start @ v0
    after = v1 @ g_end @ v1
    assert abs(after - before) <= 1e-7 * (1.0 + abs(before))
