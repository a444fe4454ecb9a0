import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from metron import expr as ex
from metron import statmodels
from metron.bundle import (
    conjugate_connection,
    curvature,
    dual_connection,
    levi_civita,
)
from metron.homsolver import Prolongation, SolveOptions, solve_parallel_forms
from metron.statmodels import (
    FAMILIES,
    StatisticalFamily,
    alpha_connection,
    alpha_scan,
    fisher_metric,
    get_family,
    skewness_tensor,
)
from oracles import fisher_oracle, skewness_oracle
from support import (
    entrywise_diff,
    entrywise_inverse,
    metric_covariant_derivative,
    path_operator,
)

# the sigma -> 0.5 corner of the gaussian box makes the transport flow
# stiff (rates up to ~12); 128 steps per edge keeps the integration error
# an order of magnitude under the 1e-7 certification gate
SCAN_OPTS = SolveOptions(grid_per_axis=5, steps_per_segment=128)


def _five_points(family):
    pts = family.domain.sample_points()
    idx = np.linspace(0, len(pts) - 1, 5).astype(int)
    return pts[idx]


# ---------------------------------------------------------------------------
# information metric against quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gaussian1d", "bernoulli", "poisson", "exponential"])
def test_fisher_matches_quadrature_oracle(name):
    family = get_family(name)
    metric = fisher_metric(family)
    for theta in _five_points(family):
        got = metric.matrix_at(theta)
        want = fisher_oracle(name, theta)
        assert np.abs(got - want).max() <= 1e-6, f"{name} at {theta}"


def test_fisher_closed_forms():
    gauss = fisher_metric(get_family("gaussian1d"))
    theta = (0.3, 1.2)
    want = np.diag([1.0 / 1.2 ** 2, 2.0 / 1.2 ** 2])
    assert np.allclose(gauss.matrix_at(theta), want, atol=1e-14)
    bern = fisher_metric(get_family("bernoulli"))
    assert bern.matrix_at((0.25,))[0, 0] == pytest.approx(1.0 / (0.25 * 0.75))
    pois = fisher_metric(get_family("poisson"))
    assert pois.matrix_at((2.0,))[0, 0] == pytest.approx(0.5)


def test_fisher_positive_definite_on_parameter_box():
    for name, family in FAMILIES.items():
        metric = fisher_metric(family)
        for theta in family.domain.sample_points():
            eigs = np.linalg.eigvalsh(metric.matrix_at(theta))
            assert eigs.min() > 1e-6, f"{name} at {theta}"


# ---------------------------------------------------------------------------
# cubic tensor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gaussian1d", "bernoulli", "poisson", "exponential"])
def test_skewness_matches_quadrature_oracle(name):
    family = get_family(name)
    tensor = skewness_tensor(family)
    m = family.m
    for theta in _five_points(family)[:3]:
        want = skewness_oracle(name, theta)
        for i, j, k in itertools.product(range(m), repeat=3):
            got = ex.evaluate(tensor[i][j][k], theta)
            assert got == pytest.approx(want[i, j, k], abs=2e-6), (name, i, j, k)


def test_skewness_total_symmetry():
    family = get_family("gaussian1d")
    tensor = skewness_tensor(family)
    for theta in _five_points(family):
        for i, j, k in itertools.product(range(2), repeat=3):
            base = ex.evaluate(tensor[i][j][k], theta)
            for perm in itertools.permutations((i, j, k)):
                assert ex.evaluate(tensor[perm[0]][perm[1]][perm[2]], theta) == pytest.approx(
                    base, abs=1e-14
                )


def test_bernoulli_skewness_closed_form():
    tensor = skewness_tensor(get_family("bernoulli"))
    p = 0.3
    want = (1.0 - 2.0 * p) / (p * (1.0 - p)) ** 2
    assert ex.evaluate(tensor[0][0][0], (p,)) == pytest.approx(want)


# ---------------------------------------------------------------------------
# alpha connections
# ---------------------------------------------------------------------------


def test_zero_alpha_is_metric_compatible():
    for name in ("gaussian1d", "bernoulli"):
        family = get_family(name)
        conn = alpha_connection(family, 0.0)
        _, residual = metric_covariant_derivative(conn, fisher_metric(family))
        assert residual <= 1e-8, name


def test_exponential_and_mixture_connections_flat():
    for name in ("gaussian1d", "bernoulli"):
        family = get_family(name)
        for alpha in (1.0, -1.0):
            conn = alpha_connection(family, alpha)
            values = ex.Evaluator(curvature(conn))(conn.domain.sample_points())
            assert np.abs(values).max() <= 1e-8, (name, alpha)
    # cross-check flatness of the gaussian exponential connection by
    # loop transport: holonomy of a closed loop is the identity
    family = get_family("gaussian1d")
    conn = alpha_connection(family, 1.0)
    x0 = np.array([-0.3, 1.0])
    loop = (
        x0,
        x0 + np.array([0.5, 0.0]),
        x0 + np.array([0.5, 0.5]),
        x0 + np.array([0.0, 0.5]),
        x0,
    )
    h = path_operator(conn, conn, loop)
    assert np.abs(h - np.eye(4)).max() <= 1e-8


def _max_coeff_diff(a, b):
    pts = a.domain.sample_points()
    worst = 0.0
    for ga, gb in zip(a.gamma, b.gamma):
        worst = max(worst, float(np.abs(ex.Evaluator(ga - gb)(pts)).max()))
    return worst


@pytest.mark.parametrize("name", ["gaussian1d", "bernoulli", "poisson", "exponential"])
def test_dual_of_alpha_is_minus_alpha(name):
    family = get_family(name)
    fisher = fisher_metric(family)
    for alpha in (0.0, 0.5, 1.0, -0.5, -1.0):
        lhs = dual_connection(fisher, alpha_connection(family, alpha))
        rhs = alpha_connection(family, -alpha)
        assert _max_coeff_diff(lhs, rhs) <= 1e-8, (name, alpha)


def test_alpha_zero_self_dual():
    family = get_family("gaussian1d")
    fisher = fisher_metric(family)
    conn = alpha_connection(family, 0.0)
    assert _max_coeff_diff(dual_connection(fisher, conn), conn) <= 1e-9


@pytest.mark.parametrize("name", list(FAMILIES))
def test_alpha_connection_combines_the_shared_forms(name):
    """Gamma(alpha) = Gamma(0) - (alpha/2) g^{-1} T written out here entry
    by entry from the family's metric and T, with Gamma(0) the
    Levi-Civita formula 1/2 sum_l g^{kl} (d_i g_jl + d_j g_il - d_l g_ij):
    levi_civita, the shared forms and every alpha give the same interned
    nodes, and the forms hold nothing but expression nodes."""
    family = get_family(name)
    metric = fisher_metric(family)
    m, g = family.m, metric.entries
    ginv = entrywise_inverse(g)
    dg = [entrywise_diff(g, l + 1) for l in range(m)]
    t = skewness_tensor(family)
    base = levi_civita(metric).gamma
    contracted = family.alpha_forms[1]
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0, 30.0):
        got = alpha_connection(family, alpha).gamma
        for i, j, k in itertools.product(range(m), repeat=3):
            corr = lc = ex.ZERO
            for l in range(m):
                corr = ex.add(corr, ex.mul(ginv[k][l], t[i][j][l]))
                bracket = ex.sub(ex.add(dg[i][j][l], dg[j][i][l]), dg[l][i][j])
                lc = ex.add(lc, ex.mul(ginv[k][l], bracket))
            assert base[i][j][k] is ex.mul(ex.const(0.5), lc), (name, i, j, k)
            assert contracted[i][j][k] is corr, (name, i, j, k)
            want = ex.add(base[i][j][k], ex.mul(ex.const(-alpha / 2.0), corr))
            assert got[i][j][k] is want, (name, alpha, i, j, k)
    at_zero = alpha_connection(family, 0.0).gamma
    assert all(a is b for a, b in zip(at_zero.flat, base.flat))
    leaves = np.array(family.alpha_forms, dtype=object).ravel()
    assert all(isinstance(e, ex.ScalarExpression) for e in leaves)
    assert not any(form.flags.writeable for form in family.alpha_forms)


def test_a_scan_builds_the_shared_forms_once(monkeypatch):
    """Five alphas of one family object build its metric and Levi-Civita
    connection once; a second scan builds nothing."""
    calls = []
    for real in (fisher_metric, levi_civita):
        monkeypatch.setattr(
            statmodels, real.__name__, lambda *a, real=real: calls.append(real.__name__) or real(*a)
        )
    shared = get_family("bernoulli")
    family = StatisticalFamily(shared.name, shared.domain)  # a fresh object, no forms yet
    alpha_scan(family, [-1.0, -0.5, 0.0, 0.5, 1.0], options=SCAN_OPTS)
    assert calls == ["fisher_metric", "levi_civita"]
    alpha_scan(family, [2.0], options=SCAN_OPTS)
    assert calls == ["fisher_metric", "levi_civita"]


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_gaussian_scan_zero_alpha():
    report = alpha_scan(get_family("gaussian1d"), [0.0], options=SCAN_OPTS)
    cert = report.certificates[0]
    assert cert.verdict == "RegularlyMetric"
    assert cert.dim_s2 == 1


def test_gaussian_scan_flat_ends():
    report = alpha_scan(get_family("gaussian1d"), [-1.0, 1.0], options=SCAN_OPTS)
    for cert in report.certificates:
        assert cert.verdict == "RegularlyMetric"
        assert cert.dim_s2 == 3
        assert cert.dim_omega2 == 1
        assert cert.dim_j == 4
    assert report.theorem_consistent


def test_bernoulli_full_scan_all_regular():
    """On a one-dimensional parameter interval every connection on the
    line bundle preserves the positive form exp(2 integral Gamma)."""
    report = alpha_scan(get_family("bernoulli"), [0.0, 1.0, -1.0, 0.5, -0.5])
    assert report.alphas == (-1.0, -0.5, 0.0, 0.5, 1.0)
    for cert in report.certificates:
        assert cert.verdict == "RegularlyMetric"
        assert cert.dim_s2 == 1
    assert report.theorem_consistent


def test_line_bundle_parallel_form_matches_ode_oracle():
    """The 1-d parallel form is q(x) = exp(2 int Gamma); compare the
    solver's extension against direct quadrature of the coefficient."""
    family = get_family("bernoulli")
    conn = alpha_connection(family, 0.5)
    space = solve_parallel_forms(Prolongation(conn, conjugate_connection(conn)), "symmetric")
    assert space.dimension == 1
    grid = space.grid
    gamma_fn = lambda t: conn.coeff_at((t,))[0, 0, 0]
    base = space.base_point[0]
    from scipy.integrate import quad

    field = space.extensions[0][:, 0, 0]
    scale = field[grid.nearest_node(space.base_point)]
    for n in range(0, len(grid.nodes), 2):
        t = grid.nodes[n][0]
        integral, _ = quad(gamma_fn, base, t, epsabs=1e-12, epsrel=1e-12)
        want = scale * np.exp(2.0 * integral)
        assert field[n] == pytest.approx(want, rel=1e-7, abs=1e-10)


def test_gaussian_scan_matches_closed_form_dimension_table():
    """Solving the parallel-form system for the gaussian alpha-family in
    closed form (power-law separation in sigma) leaves dimensions
    3 for |alpha| = 1, 1 for alpha = 0, and 0 otherwise; the antisymmetric
    space is 1-dimensional for every alpha."""
    expected_s2 = {-1.0: 3, -0.5: 0, 0.0: 1, 0.5: 0, 1.0: 3}
    report = alpha_scan(
        get_family("gaussian1d"), list(expected_s2), options=SCAN_OPTS
    )
    for alpha, cert in zip(report.alphas, report.certificates):
        assert cert.dim_s2 == expected_s2[alpha], f"alpha={alpha}"
        assert cert.dim_omega2 == 1, f"alpha={alpha}"
        assert cert.dim_j == cert.dim_s2 + 1, f"alpha={alpha}"
        assert cert.stabilized
        if expected_s2[alpha] == 0:
            assert cert.verdict == "NotMetric"
        else:
            assert cert.verdict == "RegularlyMetric"
    # a positive scanned alpha fails to be regularly metric, so the scan
    # cannot falsify the positive-alpha implication
    assert report.theorem_consistent


def test_a_scan_flags_an_alpha_that_contradicts_the_positive_ones(monkeypatch):
    """Every scanned positive alpha regularly metric while a negative one
    is not falsifies the implication: theorem_consistent drops and the
    flag names the offending alphas. Certificates are stand-ins, in the
    sorted order of the alphas."""
    regular = iter([False, True, False, True, True])
    monkeypatch.setattr(
        statmodels,
        "decide_metricity",
        lambda conn, options: SimpleNamespace(is_regular=next(regular)),
    )
    report = alpha_scan(get_family("bernoulli"), [1.0, -1.0, 0.5, -0.5, 0.0])
    assert report.alphas == (-1.0, -0.5, 0.0, 0.5, 1.0)
    assert not report.theorem_consistent
    assert report.flags == (
        "POSITIVE-ALPHA-SCAN-REGULAR-BUT-ALPHAS--1,0-NOT-REGULAR:solver-bug-or-counter-signal",
    )


def test_scan_certificates_satisfy_certificate_invariants():
    """Every certificate a scan produces obeys the certificate contract:
    the dimension count closes, NotMetric implies no parallel symmetric
    form, and regular verdicts carry a grid-regular witness."""
    for name, alphas in (("bernoulli", [0.0, 1.0]), ("gaussian1d", [-1.0, 0.5, 0.0])):
        report = alpha_scan(get_family(name), alphas, options=SCAN_OPTS)
        for cert in report.certificates:
            assert cert.exact_sequence_ok
            assert cert.stabilized
            if cert.verdict == "NotMetric":
                assert cert.dim_s2 == 0
            if cert.verdict == "RegularlyMetric":
                assert cert.witness_min_abs_det >= 1e-8
                assert cert.witness_rank == cert.witness_base.shape[0]


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        get_family("cauchy")
