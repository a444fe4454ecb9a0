import gc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metron import expr as ex
from metron import bundle, homsolver, metricity, transport
from metron.bundle import (
    ChartDomain,
    Connection,
    apply_gauge,
    conjugate_connection,
    dual_connection,
    identity_metric,
    numerical_rank,
)
from metron.homsolver import SolveOptions
from metron.metricity import (
    analyze,
    decide_metricity,
    gauge_index,
    index_report,
    split_symmetric,
)
from metron.statmodels import ALPHA_SCAN_OPTIONS, FAMILIES, alpha_connection, get_family
from oracles import hom_constraint_kernel
from support import (
    NILPOTENT_MATRIX,
    constant_metric,
    flat_connection,
    half_plane_levi_civita,
    involution_corpus,
    nilpotent_connection,
    random_constant_gauge,
    random_constant_metric,
    random_polynomial_connection,
    random_polynomial_gauge,
    square_domain,
)

FAST = SolveOptions(grid_per_axis=5, steps_per_segment=16)


def test_decide_metricity_leaves_caller_options_unchanged():
    options = SolveOptions(
        grid_per_axis=5, steps_per_segment=16, kernel_cutoff=1e-6, transport_tol=1e-5
    )
    decide_metricity(flat_connection(), options=options)
    assert options.kernel_cutoff == 1e-6
    assert options.transport_tol == 1e-5


def test_no_evaluator_outlives_an_analysis(monkeypatch):
    """Evaluators belong to the connections, metrics and gauge maps that
    build them, or to the one call that evaluates through them; once the
    analysis and its inputs are dropped, none is left, so no
    process-wide compile cache holds them."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, ex.Evaluator)]
    built = 0
    init = ex.Evaluator.__init__

    def counted(self, roots):
        nonlocal built
        built += 1
        init(self, roots)

    monkeypatch.setattr(ex.Evaluator, "__init__", counted)

    def new_evaluators():
        return [
            o
            for o in gc.get_objects()
            if isinstance(o, ex.Evaluator) and not any(o is b for b in before)
        ]

    conn = half_plane_levi_civita()[0]
    cert = decide_metricity(conn, options=FAST)
    assert cert.verdict == "RegularlyMetric"
    assert built  # the analysis evaluated through evaluators of its own
    del conn, cert
    gc.collect()
    assert new_evaluators() == []


def _fresh_generic_connection():
    rng = np.random.default_rng(20261019)
    return random_polynomial_connection(rng, square_domain(5), 3, scale=0.4)


def _singular_connection():
    return Connection(square_domain(5), 1, [[["0"]], [["sqrt(x1^2)"]]])


@pytest.mark.parametrize(
    "build, verdict",
    [
        (lambda: half_plane_levi_civita()[0], "RegularlyMetric"),
        (_fresh_generic_connection, "NotMetric"),
        (_singular_connection, "DomainError"),
    ],
    ids=["half-plane", "generic", "singular"],
)
def test_an_analysis_builds_no_expression(build, verdict, monkeypatch):
    """Once the conjugate's negations exist, an analysis adds no node to
    the intern table and builds no derivative: the prolongation reads
    Taylor coefficients, not symbolic generators. The half plane reaches
    order 1 and runs the transport; the fresh generic connection stops
    at order 0; the singular one fails at order 0, where sqrt(x1^2) has
    no derivative, and names it without differentiating. Every symbolic
    derivative, `differentiate`'s and the constructions' alike, goes
    through expr._differentiate, which is counted here."""
    calls = []
    differentiate = ex._differentiate
    monkeypatch.setattr(ex, "_differentiate", lambda *a: calls.append(a) or differentiate(*a))
    conn = build()
    conjugate_connection(conn)
    before, calls[:] = len(ex._INTERN), []
    try:
        got = decide_metricity(conn, options=FAST).verdict
    except ex.DomainError:
        got = "DomainError"
    assert got == verdict
    assert (len(ex._INTERN), calls) == (before, [])


def test_decide_metricity_honours_caller_tolerances():
    """Hyperbolic's genuine solutions carry roundoff-level transport
    residuals, so a 1e-30 gate must reject every one of them."""
    conn, _ = half_plane_levi_civita()
    strict = SolveOptions(grid_per_axis=5, steps_per_segment=16, transport_tol=1e-30)
    cert = decide_metricity(conn, options=strict)
    assert cert.options is strict
    assert cert.verdict == "NotMetric"
    assert cert.dim_j == cert.dim_s2 == cert.dim_omega2 == 0
    assert "transport-rejected-stabilized-directions" in cert.flags
    assert decide_metricity(conn, options=FAST).verdict == "RegularlyMetric"


def test_index_report_reads_the_certificate_hom_space_for_every_metric(monkeypatch):
    """Each declared metric is one gauge_index evaluation on the
    certificate's intertwiners into the conjugate: nothing solves,
    builds a dual connection or a transporter, the one metric built is
    the identity (the eight random members are counted rather than
    built), and no expression node is interned."""
    conn, metric = half_plane_levi_civita()
    cert = decide_metricity(conn, options=FAST)
    calls, metrics_built = [], []
    init = bundle.MetricField.__init__
    monkeypatch.setattr(
        bundle.MetricField, "__init__", lambda *a, **k: metrics_built.append(1) or init(*a, **k)
    )

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

    for owner, name in (
        (metricity, "solve_hom"),
        (metricity, "dual_connection"),
        (metricity, "gauge_index"),
        (homsolver, "_solve"),
        (transport.GridTransporter, "__init__"),
    ):
        counted(owner, name)
    before = len(ex._INTERN)
    report = index_report(conn, cert, primary_metric=metric)
    assert report.family_size == 10
    assert calls == ["gauge_index", "gauge_index"]  # the primary and the identity
    assert len(metrics_built) == 1
    assert len(ex._INTERN) == before


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_random_constant_metrics_are_regular(r):
    """The fact that lets index_report count its random members instead
    of building them: eigenvalue moduli in [0.5, 2] keep every draw far
    inside the regularity floor and the condition ceiling."""
    domain = square_domain(3)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for indefinite in (False, True):
            assert random_constant_metric(rng, domain, r, indefinite=indefinite).is_regular()


def _projector(matrices, r: int) -> np.ndarray:
    """Orthogonal projector onto the span of r x r matrices, flattened."""
    rows = np.asarray(matrices).reshape(-1, r * r)
    if rows.shape[0] == 0:
        return np.zeros((r * r, r * r))
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    u = u[:, s > 1e-10 * s[0]]
    return u @ u.T


def test_conjugate_intertwiners_map_onto_every_dual_through_the_inverse_metric():
    """J(conn, g.conn) = J(conn, conjugate) G^{-1} at the base point,
    checked against an independent solve into the g-dual connection for
    definite, indefinite and non-constant metrics. The corpus connections
    are a gauged nilpotent one and two generic ones, whose spaces are
    empty for every metric."""
    rng = np.random.default_rng(31)
    half_plane, hyperbolic = half_plane_levi_civita()
    nilpotent = nilpotent_connection(square_domain(5))
    gauged = apply_gauge(random_polynomial_gauge(rng, nilpotent.domain, 2), nilpotent)
    cases = [(half_plane, [hyperbolic]), (nilpotent, []), (gauged, [])]
    cases += [(conn, []) for conn, _ in involution_corpus(seed=11, count=2)]
    dims = []
    for conn, metrics in cases:
        metrics = metrics + [
            random_constant_metric(rng, conn.domain, conn.r, indefinite=indefinite)
            for indefinite in (False, True)
        ]
        conjugate = _conjugate_hom(conn, FAST)
        for g in metrics:
            problem = homsolver.Prolongation(conn, dual_connection(g, conn), FAST)
            direct = homsolver.solve_hom(problem)
            assert direct.base_point == conjugate.base_point
            g0_inv = np.linalg.inv(g.matrix_at(conjugate.base_point))
            mapped = [q @ g0_inv for q in conjugate.basis]
            assert direct.dimension == conjugate.dimension
            difference = _projector(mapped, conn.r) - _projector(direct.basis, conn.r)
            assert np.abs(difference).max() <= 1e-8
        dims.append(conjugate.dimension)
    assert dims == [2, 2, 2, 0, 0]


# ---------------------------------------------------------------------------
# one prolongation per analysis
# ---------------------------------------------------------------------------


def _conjugate_hom(conn, options=SolveOptions()):
    """The hom space a certificate keeps: the intertwiners into the
    conjugate, solved on a fresh problem."""
    return homsolver.solve_hom(homsolver.Prolongation(conn, conjugate_connection(conn), options))


def _forms(conn, symmetry, options=SolveOptions()):
    """A form solve on a fresh problem into the conjugate."""
    problem = homsolver.Prolongation(conn, conjugate_connection(conn), options)
    return homsolver.solve_parallel_forms(problem, symmetry)


def _generator_evaluations(monkeypatch, run):
    """(number of prolongation-order evaluations, result) of run()."""
    calls = []
    evaluate = homsolver._order_values
    monkeypatch.setattr(
        homsolver, "_order_values", lambda *a: calls.append(1) or evaluate(*a)
    )
    result = run()
    monkeypatch.setattr(homsolver, "_order_values", evaluate)
    return len(calls), result


def _standalone_solves(conn, options):
    """Zero-argument standalone solves of the three kinds of analyze,
    each on a fresh problem."""
    dual = dual_connection(identity_metric(conn.domain, conn.r), conn)
    return {
        "hom": lambda: homsolver.solve_hom(homsolver.Prolongation(conn, dual, options)),
        "symmetric": lambda: _forms(conn, "symmetric", options),
        "antisymmetric": lambda: _forms(conn, "antisymmetric", options),
    }


def test_analysis_evaluates_each_prolongation_order_once(monkeypatch):
    """hom, S2 and Omega2 read one evaluation per order: a generic
    connection stops every kind at order 0, so analyze evaluates once
    where three standalone solves evaluate three times."""
    rng = np.random.default_rng(20240811)
    conn = random_polynomial_connection(rng, square_domain(5), 2, scale=0.4)
    shared, spaces = _generator_evaluations(monkeypatch, lambda: analyze(conn, options=FAST))
    alone = sum(
        _generator_evaluations(monkeypatch, solve)[0]
        for solve in _standalone_solves(conn, FAST).values()
    )
    assert spaces["symmetric"].dimension == spaces["hom"].dimension == 0
    assert (shared, alone) == (1, 3)


ONE_BUILD_CASES = {
    "half plane": lambda: half_plane_levi_civita()[0],
    "gaussian alpha 0": lambda: alpha_connection(get_family("gaussian1d"), 0.0),
    "corpus": lambda: random_polynomial_connection(
        np.random.default_rng(7), square_domain(5), 3, scale=0.4
    ),
}


@pytest.mark.parametrize("case", list(ONE_BUILD_CASES))
def test_each_generator_operator_is_built_once(monkeypatch, case):
    """decide_metricity builds the operator P -> B P - P B* of every
    generator of every order it reaches exactly once; hom, S2 and Omega2
    each restrict that one operator to their own subspace."""
    conn = ONE_BUILD_CASES[case]()
    built, orders, problems = [], [], []
    build, evaluate = homsolver._intertwining_operator, homsolver._order_values
    monkeypatch.setattr(
        homsolver,
        "_intertwining_operator",
        lambda b, bs: built.append(np.asarray(b)[..., 0, 0].size) or build(b, bs),
    )
    monkeypatch.setattr(homsolver, "_order_values", lambda *a: orders.append(1) or evaluate(*a))
    prolongation = metricity.Prolongation
    monkeypatch.setattr(
        metricity, "Prolongation", lambda *a: problems.append(prolongation(*a)) or problems[-1]
    )
    decide_metricity(conn, options=FAST)
    (problem,) = problems
    generators = sum(evaluate(problem, k).shape[1] for k in range(len(orders)))
    assert generators > 0
    assert sum(built) == generators


@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_shared_prolongation_matches_standalone_solves(monkeypatch, alpha):
    """Each kind keeps its own stopping order in the shared loop, and its
    space is exactly what the standalone solver returns."""
    conn = alpha_connection(get_family("gaussian1d"), alpha)
    shared, spaces = _generator_evaluations(monkeypatch, lambda: analyze(conn, options=FAST))
    alone = {
        kind: _generator_evaluations(monkeypatch, solve)
        for kind, solve in _standalone_solves(conn, FAST).items()
    }
    assert [space.stabilization_order for space in spaces.values()] == [1, 1, 0]
    assert shared == max(calls for calls, _ in alone.values())
    for kind, space in spaces.items():
        other = alone[kind][1]
        assert np.array_equal(space.basis, other.basis)
        assert np.array_equal(space.extensions, other.extensions)
        assert space.base_point == other.base_point
        assert space.stabilization_order == other.stabilization_order
        assert space.constraint_dim == other.constraint_dim
        assert space.flags == other.flags
        assert space.certified_residual == other.certified_residual


def test_rank_one_spaces_share_the_base_point():
    """The antisymmetric space of a rank-1 bundle is zero; it still comes
    from the shared grid and base node, like hom and S2."""
    dom = ChartDomain((0.1, 0.1), (1.0, 1.3), (6, 6))
    conn = Connection(dom, 1, ((("x2",),), (("x1*x1",),)))
    cert = decide_metricity(conn)
    points = {kind: space.base_point for kind, space in cert.spaces.items()}
    assert cert.spaces["antisymmetric"].dimension == 0
    assert points["hom"] == points["symmetric"] == points["antisymmetric"] == cert.base_point
    alone = _forms(conn, "antisymmetric")
    assert alone.base_point == cert.base_point
    assert (alone.stabilized, alone.stabilization_order, alone.constraint_dim) == (True, 0, 0)


def test_no_transporter_outlives_an_analysis():
    """The analysis owns its grid transporters: with the connection still
    held after decide_metricity, none is alive and the connection keeps
    no transporter state."""
    conn, _ = half_plane_levi_civita()
    decide_metricity(conn, options=FAST)
    gc.collect()
    assert [o for o in gc.get_objects() if isinstance(o, transport.GridTransporter)] == []
    assert not any("transporter" in key for key in conn.__dict__)


def test_each_analysis_builds_one_transporter(monkeypatch):
    """hom, S2 and Omega2 are intertwiners into the same conjugate
    connection, so they share one transporter; a second analysis of the
    same connection builds its own."""
    conn, _ = half_plane_levi_civita()
    built = []
    init = transport.GridTransporter.__init__
    monkeypatch.setattr(
        transport.GridTransporter,
        "__init__",
        lambda self, *a: built.append(self) or init(self, *a),
    )
    for analysis in range(2):
        cert = decide_metricity(conn, options=FAST)
        assert (cert.dim_j, cert.dim_s2, cert.dim_omega2) == (2, 1, 1)
        assert len(built) == analysis + 1
    assert built[0] is not built[1]


def test_generic_not_metric_analysis_builds_no_transporter(monkeypatch):
    """A generic connection leaves every kind without candidates at order
    0: its solves run on empty arrays, build no grid transporter and
    return empty spaces, and the NotMetric verdict is certified."""
    rng = np.random.default_rng(20240811)
    conn = random_polynomial_connection(rng, square_domain(5), 2, scale=0.4)
    built = []
    init = transport.GridTransporter.__init__
    monkeypatch.setattr(
        transport.GridTransporter,
        "__init__",
        lambda self, *a: built.append(self) or init(self, *a),
    )
    cert = decide_metricity(conn, options=FAST)
    assert (cert.verdict, cert.certified) == ("NotMetric", True)
    assert built == []
    for space in cert.spaces.values():
        assert (space.dimension, space.constraint_dim) == (0, 0)
        assert space.certified_residual == 0.0
        assert space.basis.shape == (0, 2, 2)
        assert space.extensions.shape == (0, len(space.grid.nodes), 2, 2)


def test_rank_drop_on_the_grid_is_not_certified(monkeypatch):
    """Transport is invertible, so a genuine parallel form keeps its rank
    over the grid. With one node's rank dropped no candidate has
    constant rank: the verdict is flagged and not certified."""
    conn, _ = half_plane_levi_civita()
    rank = metricity.numerical_rank

    def drop_at_last_node(values, *args, **kwargs):
        ranks = rank(values, *args, **kwargs)
        if np.ndim(values) == 3:
            ranks = np.array(ranks)
            ranks[-1] -= 1
        return ranks

    monkeypatch.setattr(metricity, "numerical_rank", drop_at_last_node)
    cert = decide_metricity(conn, options=FAST)
    assert (cert.dim_s2, cert.stabilized, cert.exact_sequence_ok) == (1, True, True)
    assert "witness-rank-not-constant-on-grid" in cert.flags
    assert cert.witness_rank is None
    assert not cert.certified


def _sequential_witness(s2, r, seed):
    """The witness search as one loop over the candidates, in order: a
    candidate replaces the best only at a strictly higher rank, and only
    when it keeps that rank at every grid node. Returns (best, maximal
    rank at the base point), best = (rank, matrix) or None."""
    best, max_rank = None, 0
    for cand in metricity._rank_candidates(s2, seed):
        rank = numerical_rank(cand)
        max_rank = max(max_rank, rank)
        if best is not None and best[0] >= r:
            continue
        if rank > (best[0] if best else -1):
            fld = metricity._combo_field(s2, cand)
            if np.all(numerical_rank(fld) == rank):
                best = (rank, cand)
    return best, max_rank


def test_witness_matches_the_sequential_loop():
    """Ranking the candidate stack once and scanning it by (-rank, index)
    finds the witness the one-candidate-at-a-time loop finds: the same
    matrix, rank, maximal rank and verdict, on 35 connections."""
    conns = _index_connections()
    assert len(conns) == 35
    for conn in conns:
        cert = decide_metricity(conn, options=FAST)
        s2 = cert.spaces["symmetric"]
        if s2.dimension == 0:
            assert (cert.verdict, cert.witness_base) == ("NotMetric", None)
            continue
        best, max_rank = _sequential_witness(s2, conn.r, FAST.seed)
        assert cert.max_witness_rank == max_rank
        assert best is not None
        assert cert.witness_rank == best[0]
        assert np.array_equal(cert.witness_base, best[1])
        regular = best[0] == conn.r
        assert cert.verdict == ("RegularlyMetric" if regular else "SingularMetricOnly")


def test_rank_candidates_are_distinct_unit_norm_and_seeded():
    """The candidate stack is one array of distinct unit-norm matrices:
    identity/sqrt(r), the basis, then 64 combinations that the seed
    selects, finite for any seed >= 0."""
    space = decide_metricity(flat_connection(r=3), options=FAST).spaces["hom"]
    assert space.dimension == 9
    stack = metricity._rank_candidates(space, 0)
    assert stack.shape == (1 + 9 + metricity.RANK_SEARCH_DRAWS, 3, 3)
    assert np.array_equal(stack[0], np.eye(3) / np.sqrt(3))
    assert np.array_equal(stack[1:10], space.basis)
    assert np.allclose(np.linalg.norm(stack, axis=(1, 2)), 1.0, rtol=0, atol=1e-12)
    flat = stack.reshape(len(stack), -1)
    gaps = np.linalg.norm(flat[:, None] - flat[None], axis=-1)
    assert gaps[~np.eye(len(flat), dtype=bool)].min() > 1e-3
    other = metricity._rank_candidates(space, 1)
    assert np.array_equal(other[:10], stack[:10])
    assert np.abs(other[10:] - stack[10:]).max() > 1e-3
    huge = metricity._rank_candidates(space, 10**30)
    assert np.isfinite(huge).all()
    assert np.allclose(np.linalg.norm(huge, axis=(1, 2)), 1.0, rtol=0, atol=1e-12)


def test_stacked_split_symmetric_matches_each_matrix():
    rng = np.random.default_rng(11)
    p = rng.standard_normal((6, 3, 3))
    g = random_constant_metric(rng, square_domain(3), 3).matrix_at(np.zeros(2))
    sym, alt = split_symmetric(g, p)
    for k in range(len(p)):
        one_sym, one_alt = split_symmetric(g, p[k])
        assert np.allclose(sym[k], one_sym, rtol=0, atol=1e-12)
        assert np.allclose(alt[k], one_alt, rtol=0, atol=1e-12)


def _power_connection(power):
    """Gamma_1 = 0, Gamma_2 = [[0, x1^power], [0, 0]] on [-1, 1]^2: its
    parallel forms are q11 diag(1, 0) (dimJ 2, dimS2 1), and its
    transport rejections are holonomy, not truncation."""
    domain = ChartDomain((-1.0, -1.0), (1.0, 1.0), (7, 7))
    entry = ex.parse("*".join(["x1"] * power))
    zero = ((ex.ZERO, ex.ZERO), (ex.ZERO, ex.ZERO))
    return Connection(domain, 2, (zero, ((ex.ZERO, entry), (ex.ZERO, ex.ZERO))))


def test_rk4_artefact_is_never_certified(monkeypatch):
    """gaussian1d at alpha = +1 is the flat e-connection (RegularlyMetric,
    dimS2 3). At the default 32 RK4 steps the transport gate rejects
    directions whose residual shrinks about 16x at 64 steps: truncation.
    The analysis is flagged and uncertified, never a certified
    SingularMetricOnly. The analysis builds one transporter per step
    count, the doubled one included, however many solves reject."""
    builds = []
    init = transport.GridTransporter.__init__

    def counted(self, conn, dual, grid, base_index, steps_per_segment):
        builds.append(steps_per_segment)
        init(self, conn, dual, grid, base_index, steps_per_segment)

    monkeypatch.setattr(transport.GridTransporter, "__init__", counted)
    cert = decide_metricity(alpha_connection(get_family("gaussian1d"), 1.0))
    assert "transport-under-resolved" in cert.flags
    assert not cert.certified
    assert builds == [32, 64]


def test_certificate_flags_are_unique():
    """Flags raised by several solves appear once, in order of first
    appearance."""
    cert = decide_metricity(alpha_connection(get_family("gaussian1d"), 1.0))
    assert cert.flags == (
        "transport-rejected-stabilized-directions",
        "transport-under-resolved",
    )


def test_step_doubling_leaves_geometry_and_clean_transport_alone():
    """alpha = -1 rejects nothing and stays a certified RegularlyMetric;
    the x1^4 and x1^5 rejections do not shrink when the steps double,
    so they stay a certified SingularMetricOnly."""
    cert = decide_metricity(alpha_connection(get_family("gaussian1d"), -1.0))
    assert (cert.verdict, cert.dim_s2, cert.dim_j, cert.certified) == (
        "RegularlyMetric", 3, 4, True
    )
    assert cert.flags == ()
    for power in (4, 5):
        cert = decide_metricity(_power_connection(power))
        assert (cert.verdict, cert.dim_s2, cert.dim_j, cert.certified) == (
            "SingularMetricOnly", 1, 2, True
        )
        assert "transport-rejected-stabilized-directions" in cert.flags
        assert "transport-under-resolved" not in cert.flags


@pytest.mark.parametrize(
    "scale, under_resolved", [(0.25, True), (0.6, False)], ids=["ratio-4", "ratio-1.7"]
)
def test_step_doubling_threshold_from_both_sides(monkeypatch, scale, under_resolved):
    """The x1^4 rejections are holonomy (ratio 1.00 when the steps
    double). Scaling the doubled transporter's mismatches down moves
    the ratio to 1/scale: past the 2x threshold (ratio 4) it reads as
    truncation and the analysis is uncertified; below it (ratio 1.7) it
    stays a certified SingularMetricOnly."""
    discrepancies = transport.GridTransporter.discrepancies

    def scaled(self, fields):
        out = discrepancies(self, fields)
        return scale * out if self.steps == 2 * transport.DEFAULT_STEPS_PER_SEGMENT else out

    monkeypatch.setattr(transport.GridTransporter, "discrepancies", scaled)
    cert = decide_metricity(_power_connection(4))
    assert ("transport-under-resolved" in cert.flags) is under_resolved
    assert cert.certified is not under_resolved
    if not under_resolved:
        assert (cert.verdict, cert.dim_s2, cert.dim_j) == ("SingularMetricOnly", 1, 2)


@pytest.mark.parametrize("family, alpha", [("exponential", 30.0), ("poisson", 100.0)])
def test_full_rank_witness_needs_no_determinant_floor(family, alpha):
    """The one parallel form of a 1-d family, normalised at the base
    node, reads far below 1e-8 at one end of the chart, but it has rank
    1 at every node: a certified RegularlyMetric, with the small
    determinant still reported."""
    cert = decide_metricity(alpha_connection(get_family(family), alpha), ALPHA_SCAN_OPTIONS)
    assert (cert.verdict, cert.witness_rank, cert.certified) == ("RegularlyMetric", 1, True)
    assert cert.witness_min_abs_det < 1e-8
    assert "witness-rank-not-constant-on-grid" not in cert.flags


def test_target_generators_are_its_own_recursion():
    """The B* of the hom pairs are the generators of the target's own
    recursion, bit for bit: pairing evaluates each node as alone."""
    conn, _ = half_plane_levi_civita()
    dual = dual_connection(identity_metric(conn.domain, conn.r), conn)
    pairs = homsolver.Prolongation(conn, dual, FAST)
    alone = homsolver.Prolongation(dual, conn, FAST)
    for k in range(FAST.max_order + 1):
        _, bs = homsolver._order_values(pairs, k)
        b, _ = homsolver._order_values(alone, k)
        assert len(bs) == len(b) > 0
        assert np.array_equal(bs, b)


# ---------------------------------------------------------------------------
# symmetric/antisymmetric split
# ---------------------------------------------------------------------------


def test_split_identity_endomorphism():
    g = np.diag([1.0, 3.0])
    phi_sym, phi_alt = split_symmetric(g, np.eye(2))
    assert np.allclose(phi_sym, np.eye(2))
    assert np.allclose(phi_alt, 0.0)


def test_split_euclidean_is_matrix_symmetrisation():
    rng = np.random.default_rng(1)
    p = rng.standard_normal((3, 3))
    phi_sym, phi_alt = split_symmetric(np.eye(3), p)
    assert np.allclose(phi_sym, (p + p.T) / 2.0)
    assert np.allclose(phi_alt, (p - p.T) / 2.0)
    assert np.allclose(phi_sym + phi_alt, p)


def test_split_satisfies_defining_relations():
    """Oracle: solve the defining linear relations directly and compare."""
    g = np.diag([1.0, 2.0])
    p = np.array([[0.0, 1.0], [0.0, 0.0]])
    phi_sym, phi_alt = split_symmetric(g, p)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rng.standard_normal(2)
        t = rng.standard_normal(2)
        pair = lambda a, b: a @ g @ b  # g(s, s') with coefficient vectors
        phi_of = lambda mat, v: mat.T @ v  # operator on coefficients
        lhs = pair(phi_of(phi_sym, s), t)
        rhs = 0.5 * (pair(phi_of(p, s), t) + pair(s, phi_of(p, t)))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        lhs_a = pair(phi_of(phi_alt, s), t)
        rhs_a = 0.5 * (pair(phi_of(p, s), t) - pair(s, phi_of(p, t)))
        assert lhs_a == pytest.approx(rhs_a, abs=1e-12)


def test_induced_forms_properties():
    g = np.diag([1.0, 2.0])
    q, w = np.eye(2) @ g, np.zeros((2, 2)) @ g
    assert np.allclose(q, g)
    assert np.allclose(w, 0.0)
    # nilpotent example with phi = N under the euclidean pairing
    phi_sym, phi_alt = split_symmetric(np.eye(2), NILPOTENT_MATRIX)
    q, w = phi_sym @ np.eye(2), phi_alt @ np.eye(2)
    assert np.allclose(q, (NILPOTENT_MATRIX + NILPOTENT_MATRIX.T) / 2.0)
    assert np.allclose(q, q.T)
    assert np.allclose(w, -w.T)
    assert numerical_rank(q) == 2


_entries = st.floats(-3.0, 3.0, allow_nan=False)


@given(
    st.lists(_entries, min_size=4, max_size=4),
    st.lists(st.floats(0.3, 3.0, allow_nan=False), min_size=2, max_size=2),
)
def test_split_properties_hypothesis(phi_entries, g_diag):
    """The two split parts always recombine to the input, and the induced
    forms always land in their symmetry classes."""
    p = np.array(phi_entries).reshape(2, 2)
    g = np.diag(g_diag)
    phi_sym, phi_alt = split_symmetric(g, p)
    assert np.abs(phi_sym + phi_alt - p).max() <= 1e-10
    q, w = phi_sym @ g, phi_alt @ g
    assert np.abs(q - q.T).max() <= 1e-9 * (1.0 + np.abs(q).max())
    assert np.abs(w + w.T).max() <= 1e-9 * (1.0 + np.abs(w).max())


@given(st.lists(_entries, min_size=4, max_size=4))
def test_split_idempotent_on_symmetric_part_hypothesis(phi_entries):
    p = np.array(phi_entries).reshape(2, 2)
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    phi_sym, _ = split_symmetric(g, p)
    again, alt = split_symmetric(g, phi_sym)
    assert np.abs(again - phi_sym).max() <= 1e-10 * (1.0 + np.abs(phi_sym).max())
    assert np.abs(alt).max() <= 1e-10 * (1.0 + np.abs(phi_sym).max())


def test_split_rank_equals_induced_form_rank():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = rng.standard_normal((3, 3))
        g = g @ g.T + 0.5 * np.eye(3)
        p = rng.standard_normal((3, 3))
        phi_sym, _ = split_symmetric(g, p)
        q = phi_sym @ g
        assert numerical_rank(q) == numerical_rank(phi_sym)


# ---------------------------------------------------------------------------
# metricity decisions
# ---------------------------------------------------------------------------


def test_flat_connection_regularly_metric():
    cert = decide_metricity(flat_connection())
    assert cert.verdict == "RegularlyMetric"
    assert (cert.dim_j, cert.dim_s2, cert.dim_omega2) == (4, 3, 1)
    assert cert.exact_sequence_ok
    assert cert.certified
    assert cert.witness_rank == 2
    assert cert.witness_min_abs_det >= 1e-8


def test_nilpotent_connection_singular_metric_only():
    cert = decide_metricity(nilpotent_connection())
    assert cert.verdict == "SingularMetricOnly"
    assert cert.dim_s2 == 1
    assert cert.max_witness_rank == 1
    assert cert.witness_rank == 1
    # witness is the rank-1 parallel form diag(1, 0), up to scale
    w = cert.witness_base / cert.witness_base[0, 0]
    assert np.abs(w - np.diag([1.0, 0.0])).max() <= 1e-9
    assert cert.exact_sequence_ok  # 2 = 1 + 1


def test_hyperbolic_levi_civita_regularly_metric():
    conn, metric = half_plane_levi_civita()
    cert = decide_metricity(conn)
    assert cert.verdict == "RegularlyMetric"
    assert cert.dim_s2 == 1
    # witness proportional to the metric across the grid
    grid = cert.spaces["symmetric"].grid
    for n in range(0, len(grid.nodes), 17):
        gm = metric.matrix_at(grid.nodes[n])
        wm = cert.witness_field[n]
        ratio = wm[0, 0] / gm[0, 0]
        assert np.abs(wm - ratio * gm).max() <= 1e-7
    assert cert.certified


def test_not_metric_verdict_has_zero_s2():
    """A connection with no nonzero parallel symmetric form at all."""
    from metron.statmodels import alpha_connection, get_family

    conn = alpha_connection(get_family("gaussian1d"), 0.5)
    cert = decide_metricity(conn, options=SolveOptions(grid_per_axis=5, steps_per_segment=48))
    assert cert.verdict == "NotMetric"
    assert cert.dim_s2 == 0
    assert cert.witness_base is None


# ---------------------------------------------------------------------------
# gauge index
# ---------------------------------------------------------------------------


def test_gauge_index_flat_euclidean_zero():
    conn = flat_connection()
    value, flags = gauge_index(identity_metric(conn.domain, 2), _conjugate_hom(conn), 0)
    assert value == 0
    assert flags == ()


def test_gauge_index_nilpotent_matches_enumeration_oracle():
    conn = nilpotent_connection()
    space = _conjugate_hom(conn)
    value, _ = gauge_index(identity_metric(conn.domain, 2), space, 0)
    # oracle: enumerate the constant solutions of the intertwining system
    # for the euclidean dual (constants P with N P + P N^T = 0), then
    # minimise the corank of the symmetrised part over the whole space
    kernel = hom_constraint_kernel(NILPOTENT_MATRIX, -NILPOTENT_MATRIX.T)
    assert kernel.shape[0] == space.dimension == 2
    best = 2
    rng = np.random.default_rng(0)
    for _ in range(500):
        c = rng.standard_normal(kernel.shape[0])
        p = (c @ kernel).reshape(2, 2)
        sym = (p + p.T) / 2.0
        best = min(best, 2 - numerical_rank(sym))
    assert value == best == 1


def test_gauge_index_zero_for_connection_with_its_own_metric():
    conn, metric = half_plane_levi_civita()
    space = _conjugate_hom(conn)
    value, flags = gauge_index(metric, space, 0)
    assert value == 0
    # the identity intertwines conn with its dual, which is conn itself,
    # so G (= I G) intertwines conn with its conjugate
    assert space.contains(metric.matrix_at(space.base_point))


def test_gauge_index_zero_symmetric_part_gives_full_corank():
    from metron.statmodels import alpha_connection, get_family

    conn = alpha_connection(get_family("gaussian1d"), 0.5)
    g = identity_metric(conn.domain, 2)
    space = _conjugate_hom(conn, SolveOptions(grid_per_axis=5, steps_per_segment=48))
    value, flags = gauge_index(g, space, 0)
    # J is 1-dimensional (an antisymmetric-type solution); its symmetric
    # part vanishes, so the minimal corank equals the full rank
    assert value == 2
    assert space.dimension == 1


def test_gauge_index_empty_space_returns_rank_with_flag():
    rng = np.random.default_rng(44)
    dom = square_domain(5)
    conn = random_polynomial_connection(rng, dom, 2, scale=0.4)
    space = _conjugate_hom(conn, FAST)
    value, flags = gauge_index(identity_metric(dom, 2), space, FAST.seed)
    assert space.dimension == 0
    assert value == 2
    assert "empty-solution-space" in flags


# ---------------------------------------------------------------------------
# index report
# ---------------------------------------------------------------------------


def _index(conn):
    return index_report(conn, decide_metricity(conn, FAST))


def test_index_report_flat():
    report = _index(flat_connection())
    assert report.sb == 0
    assert report.sb_given_g == 0
    assert report.ind_decision == "Zero"
    assert report.verdict == "RegularlyMetric"


def test_index_report_nilpotent():
    report = _index(nilpotent_connection())
    assert report.sb == 1
    assert report.ind_decision == "AtLeastOne"
    assert report.max_parallel_metric_rank == 1
    assert report.family_size >= 9


def test_index_report_gauge_invariance():
    conn = nilpotent_connection()
    base = _index(conn)
    rng = np.random.default_rng(17)
    for k in range(3):
        phi = (
            random_constant_gauge(rng, conn.domain, 2)
            if k % 2 == 0
            else random_polynomial_gauge(rng, conn.domain, 2)
        )
        moved = _index(apply_gauge(phi, conn))
        assert (moved.sb, moved.sb_given_g, moved.ind_decision) == (
            base.sb,
            base.sb_given_g,
            base.ind_decision,
        )
        assert moved.max_parallel_metric_rank == base.max_parallel_metric_rank
        assert moved.verdict == base.verdict


def _index_connections():
    """The four statistical families at five alphas, nilpotent, flat rank
    3, the half plane and twelve generic connections."""
    conns = [
        alpha_connection(family, alpha)
        for family in FAMILIES.values()
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0)
    ]
    conns += [nilpotent_connection(), flat_connection(r=3), half_plane_levi_civita()[0]]
    return conns + [conn for conn, _ in involution_corpus(seed=5, count=12)]


def _family_loop(conn, cert, primary=None, extra=()):
    """The index over the full declared family, every member built and
    evaluated on the certificate's hom space: the primary (identity
    unless given), the extra metrics, the identity when a primary is
    given, and the eight seeded random constant metrics."""
    identity = identity_metric(conn.domain, conn.r)
    family = [primary or identity, *extra] + ([identity] if primary is not None else [])
    rng = np.random.default_rng(FAST.seed + 1)
    family += [
        random_constant_metric(rng, conn.domain, conn.r, indefinite=(k % 3 == 2))
        for k in range(metricity.RANDOM_FAMILY_SIZE)
    ]
    values = {
        idx: gauge_index(g, cert.spaces["hom"], FAST.seed)[0]
        for idx, g in enumerate(family)
        if g.is_regular()
    }
    return min(values.values()), values.get(0, conn.r), len(family)


def test_index_report_equals_the_family_loop():
    """Counting the random members instead of building them equals the
    minimum over the identity and eight seeded random constant metrics,
    each read off the certificate's hom space, and both equal r minus
    the maximal parallel metric rank."""
    conns = _index_connections()
    assert len(conns) == 35
    for conn in conns:
        cert = decide_metricity(conn, options=FAST)
        report = index_report(conn, cert)
        sb, sb_given_g, size = _family_loop(conn, cert)
        assert (report.sb, report.sb_given_g, report.family_size) == (sb, sb_given_g, size)
        assert report.sb == conn.r - cert.max_witness_rank


def _skewed_rotation():
    """A curved connection preserving only S = diag(1, 1e-3) up to scale
    (Gamma_2 = 0.03 x1 S^{-1} K, K antisymmetric), with a regular but
    ill-conditioned metric (det 1, cond 1e6) misaligned with it."""
    domain = square_domain(5)
    gamma = 0.03 * np.diag([1.0, 1e3]) @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    x1 = ex.var(1)
    entries = tuple(tuple(ex.mul(ex.const(v), x1) for v in row) for row in gamma)
    zero = ((ex.ZERO, ex.ZERO), (ex.ZERO, ex.ZERO))
    return Connection(domain, 2, (zero, entries)), constant_metric(domain, np.diag([1e3, 1e-3]))


def test_index_report_evaluates_ill_conditioned_declared_metrics():
    """The rank cutoff is relative to |Q G0^{-1}|, so an ill-conditioned
    regular metric can read a corank the identity does not: here the
    misaligned metric reads 1 on a regularly metric connection. The
    report still matches the full family loop, as primary and as a
    user metric, and sb stays 0 through the identity."""
    conn, skewed = _skewed_rotation()
    cert = decide_metricity(conn, options=FAST)
    assert cert.verdict == "RegularlyMetric" and skewed.is_regular()
    assert gauge_index(skewed, cert.spaces["hom"], FAST.seed)[0] == 1
    singular = constant_metric(conn.domain, np.diag([1.0, 0.0]))
    for primary, extra in ((skewed, ()), (None, (skewed,)), (singular, (skewed, singular))):
        report = index_report(conn, cert, list(extra), primary_metric=primary)
        sb, sb_given_g, size = _family_loop(conn, cert, primary, extra)
        assert (report.sb, report.sb_given_g, report.family_size) == (sb, sb_given_g, size)
        assert report.sb == 0
    report = index_report(conn, cert, primary_metric=skewed)
    assert (report.sb, report.sb_given_g) == (0, 1)


# ---------------------------------------------------------------------------
# triad equivalence: verdict <-> gauge index zero <-> index decision
# ---------------------------------------------------------------------------


def test_equivalence_triad_on_named_connections():
    cases = [flat_connection(), nilpotent_connection(), half_plane_levi_civita()[0]]
    for conn in cases:
        cert = decide_metricity(conn, options=FAST)
        identity = identity_metric(conn.domain, conn.r)
        sb, _ = gauge_index(identity, _conjugate_hom(conn, FAST), FAST.seed)
        report = index_report(conn, cert)
        regular = cert.verdict == "RegularlyMetric"
        assert (sb == 0) == regular
        assert (report.ind_decision == "Zero") == regular
