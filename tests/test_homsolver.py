import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from metron import expr as ex
from metron.bundle import (
    ChartDomain,
    Connection,
    apply_gauge,
    conjugate_connection,
    curvature,
    dual_connection,
    identity_metric,
)
from metron.homsolver import (
    Prolongation,
    SolveOptions,
    _intertwining_operator,
    _order_values,
    antisymmetric_basis,
    solve_hom,
    solve_parallel_forms,
    stabilized_constraint_subspace,
    symmetric_basis,
)
from metron.statmodels import alpha_connection, get_family
from metron.transport import MIN_STEPS_PER_SEGMENT
from oracles import (
    holonomy_fixed_dim,
    hom_constraint_kernel,
    nilpotent_parallel_forms,
)
from support import (
    NILPOTENT_MATRIX,
    flat_connection,
    half_plane_levi_civita,
    involution_corpus,
    local_system_residual,
    nilpotent_connection,
    random_constant_metric,
    random_polynomial_connection,
    random_polynomial_gauge,
    square_domain,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@pytest.mark.parametrize("steps", [-4, 0, 1, MIN_STEPS_PER_SEGMENT - 1])
def test_solve_options_reject_too_few_steps(steps):
    """Too few RK4 steps per edge is refused where the options are made,
    not divided by inside transport or certified from one step."""
    with pytest.raises(ValueError, match="steps_per_segment"):
        SolveOptions(steps_per_segment=steps)
    assert SolveOptions(steps_per_segment=MIN_STEPS_PER_SEGMENT).steps_per_segment == 8


def test_solve_options_reject_a_negative_max_order():
    """With no prolongation order to run, the solver never bound its
    kernel and raised UnboundLocalError; the options refuse the value."""
    with pytest.raises(ValueError, match="max_order"):
        SolveOptions(grid_per_axis=5, steps_per_segment=16, max_order=-1)
    assert SolveOptions(max_order=0).max_order == 0


@pytest.mark.parametrize("name", ["kernel_cutoff", "transport_tol"])
@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_solve_options_reject_a_tolerance_that_is_not_positive_and_finite(name, value):
    """A negative or NaN transport tolerance made the half plane a
    certified NotMetric; the options refuse every such tolerance."""
    with pytest.raises(ValueError, match=name):
        SolveOptions(grid_per_axis=5, steps_per_segment=16, **{name: value})
    assert getattr(SolveOptions(**{name: 1e-3}), name) == 1e-3


def _span_dim(rows):
    if len(rows) == 0:
        return 0
    mat = np.array([r.reshape(-1) for r in rows])
    s = np.linalg.svd(mat, compute_uv=False)
    return int((s > 1e-8 * s[0]).sum()) if s[0] > 0 else 0


def _forms(conn, symmetry, options=SolveOptions()):
    """A standalone form solve: a fresh problem into the conjugate."""
    return solve_parallel_forms(Prolongation(conn, conjugate_connection(conn), options), symmetry)


def _same_span(basis_a, basis_b, tol=1e-8) -> bool:
    a = np.array([b.reshape(-1) for b in basis_a])
    b = np.array([b.reshape(-1) for b in basis_b])
    if a.shape[0] != b.shape[0]:
        return False
    stacked = np.vstack([a, b])
    return _span_dim(stacked) == a.shape[0]


def test_a_form_solve_names_its_symmetry():
    with pytest.raises(ValueError, match="'symmetric' or 'antisymmetric'"):
        _forms(flat_connection(), "hermitian")


# ---------------------------------------------------------------------------
# curvature operator on endomorphisms
# ---------------------------------------------------------------------------


def _curvature_operator(conn, dual):
    """P -> R_12 P - P R*_12 at the base node, from order zero of the
    prolongation."""
    (b,), (bs,) = _order_values(Prolongation(conn, dual, SolveOptions()), 0)
    return _intertwining_operator(b, bs)


def test_hom_curvature_operator_flat_is_zero():
    conn = flat_connection()
    op = _curvature_operator(conn, conn)
    assert np.abs(op).max() == 0.0


def test_hom_curvature_operator_self_dual_is_commutator():
    conn = nilpotent_connection()
    op = _curvature_operator(conn, conn)
    # identity always in the kernel
    assert np.abs(op @ np.eye(2).reshape(-1)).max() <= 1e-14
    # action agrees with the commutator with R_12 = N
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2))
    want = NILPOTENT_MATRIX @ a - a @ NILPOTENT_MATRIX
    got = (op @ a.reshape(-1)).reshape(2, 2)
    assert np.abs(got - want).max() <= 1e-12


def test_hom_curvature_kernel_matches_brute_force():
    conn = nilpotent_connection()
    op = _curvature_operator(conn, conn)
    u, s, vt = np.linalg.svd(op)
    kernel_dim = int((s <= 1e-10 * max(s[0], 1e-30)).sum())
    oracle = hom_constraint_kernel(NILPOTENT_MATRIX, NILPOTENT_MATRIX)
    assert kernel_dim == oracle.shape[0] == 2
    # kernel is exactly span{I, N}
    expected = [np.eye(2), NILPOTENT_MATRIX]
    got = [v.reshape(2, 2) for v in vt[2:]]
    assert _same_span(got, expected)


@pytest.mark.parametrize("r1, r2", [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 1), (1, 4)])
def test_intertwining_operator_is_the_kronecker_form(r1, r2):
    """The strided build of P -> B P - P B* on the row-major vec is
    kron(B, I) - kron(I, B*^T), for one pair and for a stack of pairs."""
    rng = np.random.default_rng(10 * r1 + r2)
    b, bs = rng.standard_normal((3, r1, r1)), rng.standard_normal((3, r2, r2))
    want = np.array([np.kron(x, np.eye(r2)) - np.kron(np.eye(r1), y.T) for x, y in zip(b, bs)])
    assert np.array_equal(_intertwining_operator(b[0], bs[0]), want[0])
    assert np.array_equal(_intertwining_operator(b, bs), want)
    p = rng.standard_normal((r1, r2))
    got = (_intertwining_operator(b[1], bs[1]) @ p.reshape(-1)).reshape(r1, r2)
    assert np.abs(got - (b[1] @ p - p @ bs[1])).max() <= 1e-12


# ---------------------------------------------------------------------------
# stabilised candidate subspace
# ---------------------------------------------------------------------------


def test_flat_stabilizes_immediately_with_full_space():
    conn = flat_connection()
    dual = dual_connection(identity_metric(conn.domain, 2), conn)
    k, stabilized, order = stabilized_constraint_subspace(Prolongation(conn, dual, SolveOptions()))
    assert stabilized and order == 0
    assert k.shape[0] == 4


def test_nilpotent_stabilizes_at_order_zero():
    """Covariant derivatives of the constant curvature add nothing."""
    conn = nilpotent_connection()
    k, stabilized, order = stabilized_constraint_subspace(Prolongation(conn, conn, SolveOptions()))
    assert stabilized and order == 0
    assert k.shape[0] == 2
    assert _same_span([v.reshape(2, 2) for v in k], [np.eye(2), NILPOTENT_MATRIX])


def test_generic_polynomial_kernel_matches_pointwise_intersection():
    """For a generic connection the candidate space collapses; the
    reported dimension must match a brute-force intersection of the
    curvature kernels at several sample points."""
    rng = np.random.default_rng(20240811)
    dom = square_domain(5)
    conn = random_polynomial_connection(rng, dom, 2, scale=0.4)
    dual = dual_connection(identity_metric(dom, 2), conn)
    shared = Prolongation(conn, dual, SolveOptions())
    assert np.array_equal(shared.x0, dom.center())  # odd counts: the centre is a node
    k, stabilized, _ = stabilized_constraint_subspace(shared)
    assert stabilized
    from metron.bundle import curvature

    curv, dual_curv = ex.Evaluator(curvature(conn)), ex.Evaluator(curvature(dual))
    rows = []
    for p in dom.sample_points()[::6][:5]:
        r_mat = curv(p)[0, 1]
        rs_mat = dual_curv(p)[0, 1]
        rows.append(np.kron(r_mat, np.eye(2)) - np.kron(np.eye(2), rs_mat.T))
    stacked = np.vstack(rows)
    s = np.linalg.svd(stacked, compute_uv=False)
    brute_dim = 4 - int((s > 1e-8 * s[0]).sum())
    assert k.shape[0] <= brute_dim  # derivative constraints only cut further
    assert k.shape[0] == brute_dim == 0  # generic case collapses entirely


def test_generic_connection_builds_no_prolongation_order(monkeypatch):
    """A generic connection's kernel closes on the curvature alone, so
    no covariant-derivative order is computed, and the Taylor walk stops
    at degree 1: order k needs the (k + 1)-jets of Gamma."""
    rng = np.random.default_rng(0)
    conn = random_polynomial_connection(rng, square_domain(5), 2)
    dual = dual_connection(identity_metric(conn.domain, 2), conn)
    degrees = []
    taylor = ex.taylor
    monkeypatch.setattr(ex, "taylor", lambda roots, x, d: degrees.append(d) or taylor(roots, x, d))
    space = solve_hom(Prolongation(conn, dual, SolveOptions(grid_per_axis=5, steps_per_segment=16)))
    assert space.dimension == 0 and space.stabilization_order == 0
    assert degrees == [1]


def test_an_empty_candidate_space_stops_after_its_kernel_svd(monkeypatch):
    """A generic connection leaves no candidate in hom, S2 or Omega2.
    Each solve stops after the one kernel SVD that emptied it: no
    transporter, no extension and no certification, and the empty space
    has the shapes of its kind."""
    rng = np.random.default_rng(0)
    conn = random_polynomial_connection(rng, square_domain(5), 2)
    options = SolveOptions(grid_per_axis=5, steps_per_segment=16)
    problem = Prolongation(conn, conjugate_connection(conn), options)
    calls = []
    svd, tensordot = np.linalg.svd, np.tensordot
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
    monkeypatch.setattr(
        np, "tensordot", lambda *a, **k: calls.append("tensordot") or tensordot(*a, **k)
    )
    spaces = [
        solve_hom(problem),
        solve_parallel_forms(problem, "symmetric"),
        solve_parallel_forms(problem, "antisymmetric"),
    ]
    assert calls == ["svd"] * 3
    assert problem.transporters == {}
    for space in spaces:
        assert (space.dimension, space.constraint_dim, space.certified_residual) == (0, 0, 0.0)
        assert space.basis.shape == (0, 2, 2)
        assert space.extensions.shape == (0, 25, 2, 2)
        assert space.stabilized and space.stabilization_order == 0 and space.flags == ()
        assert space.grid is problem.grid and space.base_point == (0.0, 0.0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_the_form_bases_are_built_once_per_rank_read_only(r):
    """Orthonormal rows, each a symmetric (antisymmetric) matrix, the
    whole space of them; one array per rank that no caller can write."""
    for basis, sign, count in (
        (symmetric_basis, 1.0, r * (r + 1) // 2),
        (antisymmetric_basis, -1.0, r * (r - 1) // 2),
    ):
        rows = basis(r)
        assert basis(r) is rows
        assert not rows.flags.writeable
        assert rows.shape == (count, r * r)
        np.testing.assert_allclose(rows @ rows.T, np.eye(count), atol=1e-15)
        mats = rows.reshape(-1, r, r)
        assert np.array_equal(mats.swapaxes(1, 2), sign * mats)


def test_solve_options_are_frozen():
    options = SolveOptions(grid_per_axis=5, steps_per_segment=16)
    with pytest.raises(AttributeError):
        options.transport_tol = 1.0
    with pytest.raises(AttributeError):
        del options.transport_tol
    with pytest.raises(AttributeError):
        options.unknown = 1
    assert options.transport_tol == 1e-7
    assert options == SolveOptions(5, 16)


def test_solve_options_compare_hash_and_print_by_value():
    """What the frozen dataclass gave: keyword and positional
    construction, value equality and hash, a repr naming every field."""
    options = SolveOptions(5, 16, 2, 1e-9, 1e-6, 7)
    same = SolveOptions(
        grid_per_axis=5,
        steps_per_segment=16,
        max_order=2,
        kernel_cutoff=1e-9,
        transport_tol=1e-6,
        seed=7,
    )
    assert options == same and hash(options) == hash(same)
    assert options != SolveOptions(5, 16, 2, 1e-9, 1e-6, 8)
    assert options != (5, 16, 2, 1e-9, 1e-6, 7)
    assert len({options, same, SolveOptions()}) == 2
    assert repr(SolveOptions()) == (
        "SolveOptions(grid_per_axis=None, steps_per_segment=32, max_order=3,"
        " kernel_cutoff=1e-08, transport_tol=1e-07, seed=0)"
    )


def test_solve_options_replace_changes_only_the_named_fields():
    options = SolveOptions(grid_per_axis=5, steps_per_segment=16, seed=3)
    variant = options.replace(transport_tol=1e-9, max_order=1)
    assert variant == SolveOptions(5, 16, 1, 1e-8, 1e-9, 3)
    assert options == SolveOptions(grid_per_axis=5, steps_per_segment=16, seed=3)
    assert options.replace() == options


@pytest.mark.parametrize(
    "changes", [{"steps_per_segment": 1}, {"transport_tol": float("nan")}, {"max_order": -1}]
)
def test_solve_options_replace_checks_as_construction_does(changes):
    (name,) = changes
    with pytest.raises(ValueError, match=name):
        SolveOptions(**changes)
    with pytest.raises(ValueError, match=name):
        SolveOptions(grid_per_axis=5).replace(**changes)
    with pytest.raises(TypeError):
        SolveOptions().replace(grid=5)


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


def test_flat_solution_space_dimensions():
    conn = flat_connection()
    dual = dual_connection(identity_metric(conn.domain, 2), conn)
    hom = solve_hom(Prolongation(conn, dual))
    sym = _forms(conn, "symmetric")
    alt = _forms(conn, "antisymmetric")
    assert (hom.dimension, sym.dimension, alt.dimension) == (4, 3, 1)
    assert hom.certified_residual <= 1e-10
    assert hom.stabilized and sym.stabilized and alt.stabilized


def test_nilpotent_hom_dimension_and_contents():
    conn = nilpotent_connection()
    space = solve_hom(Prolongation(conn, conn))
    assert space.dimension == 2
    assert space.contains(np.eye(2))
    assert space.contains(NILPOTENT_MATRIX)
    assert space.certified_residual <= 1e-7


def test_euclidean_dual_degenerates_to_self():
    conn = flat_connection()
    dual = dual_connection(identity_metric(conn.domain, 2), conn)
    space = solve_hom(Prolongation(conn, dual))
    assert space.dimension == 4


def test_nilpotent_parallel_forms_match_brute_force():
    conn = nilpotent_connection()
    pts = conn.domain.sample_points()[::7]
    sym = _forms(conn, "symmetric")
    alt = _forms(conn, "antisymmetric")
    sym_oracle = nilpotent_parallel_forms(conn, True, pts)
    alt_oracle = nilpotent_parallel_forms(conn, False, pts)
    assert sym.dimension == len(sym_oracle) == 1
    assert alt.dimension == len(alt_oracle) == 1
    assert _same_span(list(sym.basis), sym_oracle)
    # the parallel symmetric form is diag(1, 0) under the stated
    # coefficient convention
    normalized = sym.basis[0] / sym.basis[0][0, 0]
    assert np.abs(normalized - np.diag([1.0, 0.0])).max() <= 1e-9


def test_hyperbolic_parallel_forms_and_holonomy_oracle():
    conn, metric = half_plane_levi_civita()
    sym = _forms(conn, "symmetric")
    alt = _forms(conn, "antisymmetric")
    assert sym.dimension == 1
    assert alt.dimension == 1
    # independent upper bound: joint fixed space of loop holonomies
    loops = []
    for x0, eps in (((-0.4, 1.0), 0.5), ((0.0, 1.2), 0.35)):
        x0 = np.array(x0)
        loops.append(
            SimpleNamespace(
                vertices=(
                    x0,
                    x0 + np.array([eps, 0.0]),
                    x0 + np.array([eps, eps * 0.6]),
                    x0 + np.array([0.0, eps * 0.6]),
                    x0,
                ),
                steps_per_segment=32,
            )
        )
    assert holonomy_fixed_dim(conn, loops, symmetric=True) == 1
    # the parallel form is proportional to the metric at the base point
    g0 = metric.matrix_at(sym.base_point)
    q0 = sym.basis[0]
    ratio = q0[0, 0] / g0[0, 0]
    assert np.abs(q0 - ratio * g0).max() <= 1e-8


def test_exact_sequence_dimension_count_random_metrics():
    """dim J(conn, dual_g(conn)) = dim S2 + dim Omega2 for random regular g."""
    rng = np.random.default_rng(99)
    for conn, _ in involution_corpus(seed=2718, count=4):
        metric = random_constant_metric(rng, conn.domain, conn.r)
        hom = solve_hom(Prolongation(conn, dual_connection(metric, conn)))
        sym = _forms(conn, "symmetric")
        alt = _forms(conn, "antisymmetric")
        assert hom.dimension == sym.dimension + alt.dimension
    # and on the named examples
    for conn in (flat_connection(), nilpotent_connection(), half_plane_levi_civita()[0]):
        metric = random_constant_metric(rng, conn.domain, conn.r)
        hom = solve_hom(Prolongation(conn, dual_connection(metric, conn)))
        sym = _forms(conn, "symmetric")
        alt = _forms(conn, "antisymmetric")
        assert hom.dimension == sym.dimension + alt.dimension


def test_identity_always_solves_self_intertwining():
    rng = np.random.default_rng(123)
    for _ in range(3):
        conn = random_polynomial_connection(rng, square_domain(5), 2, scale=0.4)
        space = solve_hom(Prolongation(conn, conn))
        assert space.dimension >= 1
        assert space.contains(np.eye(2))


def test_gauge_equivariance_of_dimensions():
    rng = np.random.default_rng(31)
    conn = nilpotent_connection()
    opts = SolveOptions(grid_per_axis=5, steps_per_segment=16)
    identity = identity_metric(conn.domain, 2)
    base_dims = (
        solve_hom(Prolongation(conn, dual_connection(identity, conn), opts)).dimension,
        _forms(conn, "symmetric", opts).dimension,
        _forms(conn, "antisymmetric", opts).dimension,
    )
    for _ in range(3):
        phi = random_polynomial_gauge(rng, conn.domain, 2)
        moved = apply_gauge(phi, conn)
        dims = (
            solve_hom(Prolongation(moved, dual_connection(identity, moved), opts)).dimension,
            _forms(moved, "symmetric", opts).dimension,
            _forms(moved, "antisymmetric", opts).dimension,
        )
        assert dims[0] == base_dims[0]
        assert dims[1] == base_dims[1]
        assert dims[2] == base_dims[2]


def test_gauge_equivariance_transforming_both_connections():
    """dim J(phi.conn, phi.dual) equals dim J(conn, dual): transported
    solutions correspond one to one under conjugation by phi."""
    rng = np.random.default_rng(53)
    conn = nilpotent_connection()
    dual = dual_connection(identity_metric(conn.domain, 2), conn)
    opts = SolveOptions(grid_per_axis=5, steps_per_segment=16)
    base = solve_hom(Prolongation(conn, dual, opts)).dimension
    for _ in range(2):
        phi = random_polynomial_gauge(rng, conn.domain, 2)
        moved = solve_hom(Prolongation(apply_gauge(phi, conn), apply_gauge(phi, dual), opts))
        assert moved.dimension == base


def test_local_system_substitution_residuals():
    """Every returned basis extension satisfies the first-order system by
    direct substitution with independently produced derivatives."""
    conn = flat_connection()
    dual = dual_connection(identity_metric(conn.domain, 2), conn)
    hom = solve_hom(Prolongation(conn, dual))
    assert local_system_residual(hom.extensions, hom.grid, conn, dual) <= 1e-6

    nil = nilpotent_connection()
    nil_hom = solve_hom(Prolongation(nil, nil))
    assert local_system_residual(nil_hom.extensions, nil_hom.grid, nil, nil) <= 1e-6

    hyp, _ = half_plane_levi_civita()
    sym = _forms(hyp, "symmetric")
    assert local_system_residual(sym.extensions, sym.grid, hyp, conjugate_connection(hyp)) <= 1e-6


def test_one_dimensional_chart_line_bundle():
    """Every connection on a line bundle over an interval is parallelisable:
    the scan machinery must find the full solution space."""
    from metron.bundle import ChartDomain, Connection
    from metron import expr as ex

    dom = ChartDomain((0.5,), (2.0,), (9,))
    conn = Connection(dom, 1, ((((ex.var(1)),),),))
    sym = _forms(conn, "symmetric")
    assert sym.dimension == 1
    assert sym.stabilized


# ---------------------------------------------------------------------------
# prolongation orders against the symbolic recursion
# ---------------------------------------------------------------------------


def _symbolic_orders(conn, max_order):
    """The constraint generators built as expression trees, order by
    order: the curvature R_ij (i < j), then B -> d_l B - [Gamma_l, B]
    along every axis l, generator-major."""
    m = conn.domain.m
    entries = curvature(conn)
    gens = [entries[i][j] for i in range(m) for j in range(i + 1, m)]
    yield gens
    for _ in range(max_order):
        gens = [
            np.frompyfunc(ex.differentiate, 2, 1)(b, l + 1)
            - (conn.gamma[l] @ b - b @ conn.gamma[l])
            for b in gens
            for l in range(m)
        ]
        yield gens


def _problem_connection(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    grid = data["domain"].get("gridPerAxis", 9)
    domain = ChartDomain(data["domain"]["lower"], data["domain"]["upper"], (grid,) * data["dim"])
    return Connection(domain, data["rank"], data["connection"])


def _order_cases():
    cases = {path.name: _problem_connection(path) for path in sorted(PROBLEMS.glob("*.json"))}
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        cases[f"gaussian1d {alpha:+g}"] = alpha_connection(get_family("gaussian1d"), alpha)
    rng = np.random.default_rng(17)
    nilpotent = nilpotent_connection(square_domain(5))
    cases["gauged"] = apply_gauge(random_polynomial_gauge(rng, nilpotent.domain, 2), nilpotent)
    for k in range(12):
        r = (2, 2, 3)[k % 3]
        cases[f"corpus {k}"] = random_polynomial_connection(rng, square_domain(5), r, scale=0.4)
    return cases


ORDER_CASES = _order_cases()


@pytest.mark.parametrize("name", list(ORDER_CASES))
def test_each_order_matches_the_symbolic_recursion(name):
    """Every order of both recursions, from Taylor coefficients, agrees
    with the generators built as trees and evaluated at the base point,
    to 1e-12 of that order's largest entry. An order of a flat or
    parallel-curvature connection is roundoff on both sides, so, as in
    the solver's drop rule, the scale is at least 1."""
    conn = ORDER_CASES[name]
    problem = Prolongation(conn, conjugate_connection(conn), SolveOptions(grid_per_axis=5))
    orders = [_order_values(problem, k) for k in range(4)]  # max_order 3: orders 0..3
    reference = zip(
        _symbolic_orders(conn, 3), _symbolic_orders(conjugate_connection(conn), 3)
    )
    for values, (gens, target_gens) in zip(orders, reference, strict=True):
        assert values.shape[1] == len(gens)
        if not gens:  # a one-dimensional chart has no curvature
            continue
        want = ex.Evaluator(gens + target_gens)(problem.x0)
        got = values.reshape(-1, conn.r, conn.r)  # the B, then the B*
        want = want.reshape(got.shape)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
