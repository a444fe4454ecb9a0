import json
from pathlib import Path

import numpy as np
import pytest

from metron.bundle import identity_metric, dual_connection, zero_connection
from metron.transport import MIN_STEPS_PER_SEGMENT, Grid, GridTransporter
from metron import expr as ex
from metron import statmodels, transport
from metron.bundle import ChartDomain, Connection, MetricField, conjugate_connection
from oracles import constant_hom_transport, rk4_flow_operator
from support import (
    NILPOTENT_MATRIX,
    flat_connection,
    half_plane_levi_civita,
    nilpotent_connection,
    path_operator,
    random_constant_metric,
    random_polynomial_connection,
    square_domain,
    transport_along,
)


def _constant_connection(dom, matrices):
    """Connection with constant coefficient matrices (one per axis)."""
    entries = tuple(
        tuple(tuple(ex.const(m[a][b]) for b in range(len(m))) for a in range(len(m)))
        for m in matrices
    )
    return Connection(dom, len(matrices[0]), entries)


def test_zero_connection_transport_is_identity():
    conn = flat_connection()
    path = (np.array([-0.5, -0.5]), np.array([0.5, 0.3]), np.array([0.0, 0.6]))
    phi0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(transport_along(conn, conn, path, phi0), phi0)


def test_constant_coefficients_match_matrix_exponential():
    dom = square_domain(5)
    rng = np.random.default_rng(2)
    g1 = 0.4 * rng.standard_normal((2, 2))
    g2 = 0.4 * rng.standard_normal((2, 2))
    gs1 = 0.4 * rng.standard_normal((2, 2))
    gs2 = 0.4 * rng.standard_normal((2, 2))
    conn = _constant_connection(dom, [g1, g2])
    dual = _constant_connection(dom, [gs1, gs2])
    length = 0.8
    path = (np.array([-0.4, 0.1]), np.array([-0.4 + length, 0.1]))
    phi0 = rng.standard_normal((2, 2))
    got = transport_along(conn, dual, path, phi0, steps=32)
    want = constant_hom_transport(g1, gs1, length, phi0)
    assert np.abs(got - want).max() <= 1e-8


def test_transport_reversibility():
    conn, _ = half_plane_levi_civita()
    g0 = identity_metric(conn.domain, 2)
    dual = dual_connection(g0, conn)
    path = (np.array([-0.5, 1.0]), np.array([0.3, 1.4]), np.array([0.7, 1.1]))
    phi0 = np.array([[0.2, -1.0], [0.5, 0.9]])
    there = transport_along(conn, dual, path, phi0, steps=32)
    back = transport_along(conn, dual, path[::-1], there, steps=32)
    assert np.abs(back - phi0).max() <= 1e-8


def test_transport_concatenation():
    conn = nilpotent_connection()
    a = np.array([-0.5, -0.5])
    b = np.array([0.2, 0.1])
    c = np.array([0.6, 0.5])
    phi0 = np.array([[1.0, 0.5], [0.0, 1.0]])
    first = transport_along(conn, conn, (a, b), phi0)
    second = transport_along(conn, conn, (b, c), first)
    joined = transport_along(conn, conn, (a, b, c), phi0)
    assert np.abs(second - joined).max() <= 1e-9


def test_rk4_order_on_three_connections():
    """Halving the step size divides the discrepancy against the next
    refinement by about 2^4."""
    rng = np.random.default_rng(77)
    cases = []
    hyp, _ = half_plane_levi_civita()
    cases.append((hyp, dual_connection(identity_metric(hyp.domain, 2), hyp)))
    for scale in (0.6, 0.9):
        rand = random_polynomial_connection(rng, square_domain(5), 2, scale=scale)
        cases.append((rand, dual_connection(identity_metric(rand.domain, 2), rand)))
    for conn, dual in cases:
        lo = np.asarray(conn.domain.lower)
        hi = np.asarray(conn.domain.upper)
        mid = (lo + hi) / 2.0
        quarter = (hi - lo) / 4.0
        verts = (
            lo + quarter,
            mid + np.array([quarter[0], -quarter[1] / 2.0]),
            hi - quarter / 2.0,
        )
        phi0 = np.array([[1.0, 0.3], [-0.2, 0.8]])
        ends = {}
        for steps in (8, 16, 32):
            ends[steps] = transport_along(conn, dual, verts, phi0, steps=steps)
        d_coarse = np.abs(ends[8] - ends[16]).max()
        d_fine = np.abs(ends[16] - ends[32]).max()
        assert d_fine > 0.0
        ratio = d_coarse / d_fine
        assert 4.0 <= ratio <= 64.0, f"order ratio {ratio}"


# ---------------------------------------------------------------------------
# loop holonomy
# ---------------------------------------------------------------------------


def _square_loop(x0, eps):
    x0 = np.asarray(x0, float)
    return (
        x0,
        x0 + np.array([eps, 0.0]),
        x0 + np.array([eps, eps]),
        x0 + np.array([0.0, eps]),
        x0,
    )


def test_flat_loop_holonomy_is_identity():
    conn = flat_connection()
    loop = _square_loop([-0.3, -0.3], 0.5)
    h = path_operator(conn, conn, loop, steps=16)
    assert np.abs(h - np.eye(4)).max() <= 1e-8


def test_loop_orientation_inverts_holonomy():
    conn = nilpotent_connection()
    loop = _square_loop([0.1, 0.0], 0.4)
    h = path_operator(conn, conn, loop, steps=16)
    h_rev = path_operator(conn, conn, loop[::-1], steps=16)
    assert np.abs(h @ h_rev - np.eye(4)).max() <= 1e-9


def test_solution_fixed_by_loop_holonomy():
    conn = nilpotent_connection()
    loop = _square_loop([0.0, -0.2], 0.5)
    h = path_operator(conn, conn, loop, steps=16)
    for solution in (np.eye(2), NILPOTENT_MATRIX):
        v = solution.reshape(-1)
        assert np.abs(h @ v - v).max() <= 1e-9


# ---------------------------------------------------------------------------
# grid and spanning-tree extension
# ---------------------------------------------------------------------------


def test_grid_tree_covers_all_nodes():
    grid = Grid(square_domain(5))
    tree, non_tree = grid.spanning_tree(grid.nearest_node(grid.domain.center()))
    assert len(tree) == len(grid.nodes) - 1
    assert len(tree) + len(non_tree) == len(grid.edges)
    assert len(grid.edges) == 2 * 5 * 4


def test_grid_too_coarse_rejected():
    with pytest.raises(ValueError):
        Grid(square_domain(2))


def _bfs_tree(counts, root):
    """Reference tree: breadth-first search from root, scanning
    neighbours axis by axis, +direction before -direction."""
    seen, order, tree = {root}, [root], []
    for u in order:
        multi = np.unravel_index(u, counts)
        for axis in range(len(counts)):
            for step in (1, -1):
                nb = list(multi)
                nb[axis] += step
                if 0 <= nb[axis] < counts[axis]:
                    v = int(np.ravel_multi_index(nb, counts))
                    if v not in seen:
                        seen.add(v)
                        order.append(v)
                        tree.append((u, v))
    return tree


@pytest.mark.parametrize("counts", [(3,), (5,), (4, 5), (9, 9), (3, 4, 5), (3, 3, 3, 3)])
def test_lattice_path_tree_is_the_breadth_first_tree(counts):
    m = len(counts)
    grid = Grid(ChartDomain((-1.0,) * m, (1.0,) * m), counts)
    n = int(np.prod(counts))
    assert np.array_equal(grid.multi, np.array(np.unravel_index(np.arange(n), counts)).T)
    for root in range(n):
        tree, non_tree = grid.spanning_tree(root)
        assert set(tree) == set(_bfs_tree(counts, root))
        in_tree = {frozenset(e) for e in tree}
        assert non_tree == [e for e in grid.edges if frozenset(e) not in in_tree]
        reached = {root}
        for parent, child in tree:
            assert parent in reached and child not in reached
            reached.add(child)


@pytest.mark.parametrize(
    "counts, message",
    [
        ((9, 2), "grid_per_axis must be an integer >= 3"),
        ((3, 4.0), "grid_per_axis must be an integer >= 3"),
        ((142, 142), "142 x 142 = 20,164 grid nodes; at most 20,000 are allowed"),
        ((10**6,) * 4, " = about 10^24 grid nodes"),
    ],
)
def test_a_grid_is_refused_before_a_node_is_built(monkeypatch, counts, message):
    """Too few nodes on an axis or too many in all: the node count comes
    from the counts, and no sample point is computed."""
    dom = ChartDomain((-1.0,) * len(counts), (1.0,) * len(counts))

    def built(*args):
        raise AssertionError("built the grid's nodes")

    monkeypatch.setattr(ChartDomain, "sample_points", built)
    with pytest.raises(ValueError) as refusal:
        Grid(dom, counts)
    assert message in str(refusal.value)
    assert transport.MAX_GRID_NODES == 20_000 and 141**2 <= transport.MAX_GRID_NODES


def _spanning_tree_extend(conn, value):
    """Extend a base-node value over the default grid through the
    spanning tree: (field over the nodes, worst non-tree mismatch)."""
    grid = Grid(conn.domain)
    transporter = GridTransporter(conn, conn, grid, grid.nearest_node(conn.domain.center()))
    fields = transporter.extend(np.asarray(value, float).reshape(1, -1))
    residual = float(np.abs(transporter.discrepancies(fields)).max())
    return fields[0].reshape(len(grid.nodes), *np.shape(value)), residual


def test_spanning_tree_extend_flat_constant_field():
    phi0 = np.array([[2.0, 1.0], [0.0, -1.0]])
    field, residual = _spanning_tree_extend(flat_connection(), phi0)
    assert residual <= 1e-10
    assert np.abs(field - phi0).max() <= 1e-10


def test_spanning_tree_extend_accepts_true_solution():
    field, residual = _spanning_tree_extend(nilpotent_connection(), NILPOTENT_MATRIX)
    assert residual <= 1e-7
    # the solution field is the constant N
    assert np.abs(field - NILPOTENT_MATRIX).max() <= 1e-7


def test_spanning_tree_extend_rejects_non_solution():
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])  # [N, bad] != 0
    _, residual = _spanning_tree_extend(nilpotent_connection(), bad)
    assert residual > 1e-3


def _oracle_cases():
    hyp, _ = half_plane_levi_civita()
    hyp_dual = dual_connection(identity_metric(hyp.domain, 2), hyp)
    rng = np.random.default_rng(11)
    dom = square_domain(4)
    rand = random_polynomial_connection(rng, dom, 3, scale=0.5)
    rand_dual = dual_connection(random_constant_metric(rng, dom, 3), rand)
    # (name, the fibre's two connections, the oracle's fibre kind and
    # connections, grid nodes per axis, steps); hyp_dual, the dual of the
    # identity metric, is the conjugate connection of hyp. The odd step
    # counts leave a factor over at some levels of the pairwise product.
    vector = (zero_connection(hyp.domain, 1), hyp)
    return [
        ("hyperbolic-hom", (hyp, hyp_dual), ("hom", hyp, hyp_dual), 5, 32),
        ("hyperbolic-form", (hyp, hyp_dual), ("form", hyp, None), 5, 32),
        ("hyperbolic-vector", vector, ("vector", hyp, None), 5, 32),
        ("hyperbolic-vector-33-steps", vector, ("vector", hyp, None), 5, 33),
        ("random-rank3-hom", (rand, rand_dual), ("hom", rand, rand_dual), 4, 16),
        ("random-rank3-hom-9-steps", (rand, rand_dual), ("hom", rand, rand_dual), 4, 9),
    ]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_grid_edge_operators_match_pointwise_rk4_oracle(case):
    """The batched operators of every grid edge agree with RK4 on the
    generator of the flattened fibre, integrated point by point per
    edge: forms are the intertwiners into the conjugate connection,
    vectors those from the trivial line."""
    _, fibre, (kind, conn, dual), per_axis, steps = case
    grid = Grid(conn.domain, (per_axis,) * conn.domain.m)
    base = grid.nearest_node(conn.domain.center())
    transporter = GridTransporter(*fibre, grid, base, steps)
    edges = transporter.tree_edges + transporter.non_tree_edges
    assert len(transporter.operators) == len(edges) == len(grid.edges)
    worst = 0.0
    for (u, v), op in zip(edges, transporter.operators):
        want = rk4_flow_operator(kind, conn, dual, grid.nodes[u], grid.nodes[v], steps)
        worst = max(worst, float(np.abs(op - want).max()))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# each distinct operator built once
# ---------------------------------------------------------------------------

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _stepwise_operators(conn, dual, starts, ends, steps):
    """Every segment integrated step by step: the generators at all its
    2s+1 nodes, their RK4 step matrices, composed."""
    starts = np.asarray(starts, dtype=float)
    u = np.asarray(ends, dtype=float) - starts
    m = conn.domain.m
    evaluate = ex.Evaluator(
        [e for i in range(m) for g in (dual.gamma[i], conn.gamma[i]) for row in g for e in row]
    )
    nodes = np.arange(2 * steps + 1) * (0.5 / steps)
    a, b = transport._generator_nodes(evaluate, conn.r, dual.r, starts, u, nodes)
    return transport._compose(transport._step_matrices(a, b, 1.0 / steps))


def _exactness_cases():
    gaussian = statmodels.get_family("gaussian1d")
    hyp, _ = half_plane_levi_civita()
    x1 = ex.var(1)
    reads_x1 = MetricField(
        hyp.domain, 2, ((ex.add(ex.const(2.0), ex.mul(x1, x1)), ex.ZERO), (ex.ZERO, ex.ONE))
    )
    problem = json.loads((PROBLEMS / "flat2x2.json").read_text(encoding="utf-8"))
    box = ChartDomain(problem["domain"]["lower"], problem["domain"]["upper"])
    flat = Connection(box, problem["rank"], problem["connection"])
    rng = np.random.default_rng(5)
    rand = random_polynomial_connection(rng, square_domain(4), 3, scale=0.5)
    cases = {}
    for alpha in (-1.0, 0.5):
        conn = statmodels.alpha_connection(gaussian, alpha)
        cases[f"gaussian{alpha:+}"] = (conn, conjugate_connection(conn))
    cases["hyperbolic-hom"] = (hyp, dual_connection(identity_metric(hyp.domain, 2), hyp))
    cases["hyperbolic-form"] = (hyp, conjugate_connection(hyp))
    cases["hyperbolic-vector"] = (zero_connection(hyp.domain, 1), hyp)
    cases["flat2x2"] = (flat, conjugate_connection(flat))
    cases["hyperbolic-dual-reads-x1"] = (hyp, dual_connection(reads_x1, hyp))
    rand_metric = random_constant_metric(rng, rand.domain, 3)
    cases["random-rank3"] = (rand, dual_connection(rand_metric, rand))
    return cases


EXACTNESS_CASES = _exactness_cases()
# polylines through the box, as fractions of it: diagonal legs, and a
# loop whose legs return along their own lines
POLYLINES = (
    ((0.25, 0.25), (0.75, 0.375), (0.875, 0.875), (0.1, 0.6)),
    ((0.2, 0.2), (0.7, 0.2), (0.7, 0.7), (0.2, 0.7), (0.2, 0.2), (0.7, 0.7)),
)


@pytest.mark.parametrize("steps", [8, 9, 32, 33, 128])
@pytest.mark.parametrize("name", list(EXACTNESS_CASES))
def test_operators_equal_step_by_step_integration(name, steps, monkeypatch):
    """Sharing operators between segments and composing a constant
    generator's one step matrix change no bit: every grid edge in both
    directions, and polylines with diagonal legs; nor does the batch
    size, down to one segment per batch (gaussian's x1-edges are
    constant runs)."""
    conn, dual = EXACTNESS_CASES[name]
    grid = Grid(conn.domain, (4, 4))
    edges = np.array(grid.edges)
    both = np.concatenate((edges, edges[:, ::-1]))  # one batch, so that u and -u meet
    lower, upper = np.asarray(conn.domain.lower), np.asarray(conn.domain.upper)
    segments = [(grid.nodes[both[:, 0]], grid.nodes[both[:, 1]])]
    for fractions in POLYLINES:
        verts = lower + np.asarray(fractions) * (upper - lower)
        segments.append((verts[:-1], verts[1:]))
    for starts, ends in segments:
        got = transport.flow_operators(conn, dual, starts, ends, steps)
        assert np.array_equal(got, _stepwise_operators(conn, dual, starts, ends, steps))
        with monkeypatch.context() as patch:
            patch.setattr(transport, "MATRIX_ENTRIES_PER_BATCH", 1)
            assert np.array_equal(transport.flow_operators(conn, dual, starts, ends, steps), got)
    path = lower + np.asarray(POLYLINES[0]) * (upper - lower)
    want = np.eye(conn.r * dual.r)
    for op in _stepwise_operators(conn, dual, path[:-1], path[1:], steps):
        want = op @ want
    assert np.array_equal(path_operator(conn, dual, path, steps), want)


@pytest.mark.parametrize("d", [1, 4])
def test_equal_factors_compose_bitwise_as_any_factors(d):
    """np.linalg.matrix_power, which a constant generator's operator
    takes, gives the bits of _compose over s copies of each matrix, for
    every step count s that SolveOptions accepts, to 70."""
    step = np.eye(d) + 0.3 * np.random.default_rng(d).standard_normal((5, d, d))
    for s in range(MIN_STEPS_PER_SEGMENT, 71):
        want = transport._compose(np.repeat(step[:, None], s, axis=1))
        assert np.array_equal(np.linalg.matrix_power(step, s), want), s


def test_each_distinct_operator_is_built_once(monkeypatch):
    """gaussian1d reads only x2. On a 4 x 4 grid the x1-edges take one
    step matrix per distinct (x2, direction), 12 in all; the x2-edges
    are integrated step by step, 3 distinct ones of the 12."""
    built = []

    def counted(a, b, h, real=transport._step_matrices):
        out = real(a, b, h)
        built.append(out.shape[0] * out.shape[1])
        return out

    monkeypatch.setattr(transport, "_step_matrices", counted)
    family = statmodels.get_family("gaussian1d")
    conn = statmodels.alpha_connection(family, 0.0)
    grid = Grid(family.domain, (4, 4))
    base = grid.nearest_node(family.domain.center())
    transporter = GridTransporter(conn, conjugate_connection(conn), grid, base, 128)
    assert len(transporter.operators) == 24
    assert sum(built) == 3 * 128 + 12
