"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Known expected failure: the gaussian part of the statistical suite
asserts that every alpha in {-1, -0.5, 0, 0.5, 1} gives a regularly
metric structure. Solving the parallel-form system for the gaussian
alpha-family in closed form (power-law separation in sigma, reproduced
in test_statmodels) forces the zero form unless alpha is -1, 0 or 1, so
the +-0.5 cases are genuinely not metric and that single assertion is
red by design rather than weakened. See notes on the decision record.
"""
import numpy as np

from metron import cli
from metron import expr as ex
from metron.bundle import (
    apply_gauge,
    conjugate_connection,
    dual_connection,
    identity_metric,
    numerical_rank,
)
from metron.homsolver import Prolongation, SolveOptions, solve_hom
from metron.metricity import (
    analyze,
    decide_metricity,
    gauge_index,
    index_report,
    split_symmetric,
)
from metron.statmodels import (
    alpha_connection,
    alpha_scan,
    fisher_metric,
    get_family,
)
from oracles import (
    fisher_oracle,
    hom_constraint_kernel,
    nilpotent_parallel_forms,
)
from support import (
    NILPOTENT_MATRIX,
    flat_connection,
    half_plane_levi_civita,
    involution_corpus,
    local_system_residual,
    metric_covariant_derivative,
    nilpotent_connection,
    random_polynomial_connection,
    random_polynomial_gauge,
    square_domain,
    transport_along,
)

SEED = 20240815
CORPUS = involution_corpus(seed=SEED, count=50)
FAST = SolveOptions(grid_per_axis=5, steps_per_segment=16)
MEDIUM = SolveOptions(grid_per_axis=5, steps_per_segment=32)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE C{number:02d} {name}: {status}{suffix}")


def _max_coeff_diff(a, b) -> float:
    pts = a.domain.sample_points()
    worst = 0.0
    for ga, gb in zip(a.gamma, b.gamma):
        worst = max(worst, float(np.abs(ex.Evaluator(ga - gb)(pts)).max()))
    return worst


def test_c01_involution_suite():
    """50 seeded random (polynomial connection, constant regular metric)
    pairs with m = 2 and r in {2, 3}: applying the metric dual twice
    returns the original coefficients to 1e-9."""
    worst = 0.0
    for conn, metric in CORPUS:
        back = dual_connection(metric, dual_connection(metric, conn))
        worst = max(worst, _max_coeff_diff(back, conn))
    ok = worst <= 1e-9
    _report(1, "involution suite", ok, f"max coefficient error {worst:.3e}")
    assert ok


def test_c02_quasi_commutativity_suite():
    """Same corpus, cycled through 20 random polynomial gauge maps: the
    dual construction commutes with the gauge action to 1e-8."""
    from metron.bundle import dual_gauge_compatibility_residual

    rng = np.random.default_rng(SEED + 1)
    transforms = {}
    worst = 0.0
    for k, (conn, metric) in enumerate(CORPUS):
        key = (k % 20, conn.r)
        if key not in transforms:
            transforms[key] = random_polynomial_gauge(rng, conn.domain, conn.r)
        residual = dual_gauge_compatibility_residual(transforms[key], metric, conn)
        worst = max(worst, residual)
    ok = worst <= 1e-8
    _report(2, "quasi-commutativity suite", ok, f"max residual {worst:.3e}")
    assert ok


def test_c03_flat_baseline():
    conn = flat_connection()
    cert = decide_metricity(conn)
    report = index_report(conn, cert)
    hom = solve_hom(Prolongation(conn, conjugate_connection(conn), MEDIUM))
    sb_identity, _ = gauge_index(identity_metric(conn.domain, 2), hom, MEDIUM.seed)
    ok = (
        cert.dim_j == 4
        and cert.dim_s2 == 3
        and cert.dim_omega2 == 1
        and cert.exact_sequence_ok
        and cert.verdict == "RegularlyMetric"
        and sb_identity == 0
        and report.sb == 0
        and report.ind_decision == "Zero"
    )
    _report(
        3,
        "flat baseline",
        ok,
        f"dims J/S2/O2 = {cert.dim_j}/{cert.dim_s2}/{cert.dim_omega2}, "
        f"sb = {report.sb}, ind = {report.ind_decision}",
    )
    assert ok


def test_c04_nilpotent_obstruction():
    conn = nilpotent_connection()
    cert = decide_metricity(conn)
    report = index_report(conn, cert)
    # independent brute-force oracle: curvature-compatible forms that
    # substitute into the parallelism system, and the endomorphism kernel
    pts = conn.domain.sample_points()[::7]
    sym_oracle = nilpotent_parallel_forms(conn, True, pts)
    alt_oracle = nilpotent_parallel_forms(conn, False, pts)
    hom_oracle = hom_constraint_kernel(NILPOTENT_MATRIX, -NILPOTENT_MATRIX.T)
    ok = (
        cert.dim_s2 == 1 == len(sym_oracle)
        and cert.dim_omega2 == 1 == len(alt_oracle)
        and cert.dim_j == 2 == hom_oracle.shape[0]
        and cert.max_witness_rank == 1
        and cert.verdict == "SingularMetricOnly"
        and cert.witness_rank == 1
        and report.ind_decision == "AtLeastOne"
    )
    _report(
        4,
        "nilpotent obstruction",
        ok,
        f"dims {cert.dim_j}/{cert.dim_s2}/{cert.dim_omega2} vs oracle "
        f"{hom_oracle.shape[0]}/{len(sym_oracle)}/{len(alt_oracle)}, "
        f"verdict {cert.verdict}({cert.witness_rank})",
    )
    assert ok


def test_c05_exact_sequence_on_corpus():
    """dim J = dim S2 + dim Omega2 on every corpus item of criteria 1-4
    plus the half-plane example."""
    failures = []
    for k, (conn, _) in enumerate(CORPUS):
        spaces = analyze(conn, options=FAST)
        if spaces["hom"].dimension != (
            spaces["symmetric"].dimension + spaces["antisymmetric"].dimension
        ):
            failures.append(k)
    named = {
        "flat": flat_connection(),
        "nilpotent": nilpotent_connection(),
        "half-plane": half_plane_levi_civita()[0],
    }
    counts = {}
    for name, conn in named.items():
        spaces = analyze(conn, options=MEDIUM)
        counts[name] = (
            spaces["hom"].dimension,
            spaces["symmetric"].dimension,
            spaces["antisymmetric"].dimension,
        )
        if counts[name][0] != counts[name][1] + counts[name][2]:
            failures.append(name)
    ok = not failures
    _report(
        5,
        "exact sequence count",
        ok,
        f"50 corpus items + {counts}",
    )
    assert ok, failures


def test_c06_gauge_invariance():
    """20 random gauge transforms leave (dimJ, dimS2, dimOmega2, sb,
    verdict class) exactly unchanged on every probed corpus item: the
    three distinguished connections and three seeded random corpus
    items (the remaining random items repeat the same zero-dimension
    pattern; three representatives keep the criterion within its time
    budget)."""
    rng = np.random.default_rng(SEED + 2)
    probes = {
        "flat": flat_connection(square_domain(5)),
        "nilpotent": nilpotent_connection(square_domain(5)),
        "half-plane": half_plane_levi_civita()[0],
        "random-0": CORPUS[0][0],
        "random-1": CORPUS[1][0],
        "random-2": CORPUS[2][0],
    }
    failures = []

    def signature(c):
        cert = decide_metricity(c, options=MEDIUM)
        sb, _ = gauge_index(identity_metric(c.domain, c.r), cert.spaces["hom"], MEDIUM.seed)
        return (cert.dim_j, cert.dim_s2, cert.dim_omega2, sb, cert.verdict)

    for name, conn in probes.items():
        base = signature(conn)
        for t in range(20):
            phi = random_polynomial_gauge(rng, conn.domain, conn.r)
            got = signature(apply_gauge(phi, conn))
            if got != base:
                failures.append((name, t, base, got))
    ok = not failures
    _report(6, "gauge invariance", ok, f"6 connections x 20 transforms")
    assert ok, failures


def test_c07_induced_form_parallelism():
    """For every certified intertwiner of the three named structures,
    the induced symmetric and antisymmetric forms are parallel to 1e-6
    by direct substitution, and the symmetric part has constant rank."""
    worst_q = worst_w = 0.0
    rank_constant = True
    for conn in (
        flat_connection(),
        nilpotent_connection(),
        half_plane_levi_civita()[0],
    ):
        hom = analyze(conn)["hom"]
        g, conjugate = np.eye(conn.r), conjugate_connection(conn)
        for field_phi in hom.extensions:
            # q = g(Phi ., .) and omega = g(Phi* ., .) of the identity g,
            # substituted into the system of forms: intertwiners into the
            # conjugate
            phi_sym, phi_alt = split_symmetric(g, field_phi)
            q, w = phi_sym @ g, phi_alt @ g
            worst_q = max(worst_q, local_system_residual(q[None], hom.grid, conn, conjugate))
            worst_w = max(worst_w, local_system_residual(w[None], hom.grid, conn, conjugate))
            ranks = numerical_rank(phi_sym, scale=np.linalg.norm(field_phi, axis=(1, 2)))
            rank_constant = rank_constant and bool(np.all(ranks == ranks[0]))
    ok = worst_q <= 1e-6 and worst_w <= 1e-6 and rank_constant
    _report(
        7,
        "induced parallel forms",
        ok,
        f"max residuals q {worst_q:.2e}, omega {worst_w:.2e}, rank constant {rank_constant}",
    )
    assert ok


def test_c08a_fisher_metrics_match_quadrature():
    worst = 0.0
    for name in ("gaussian1d", "bernoulli"):
        family = get_family(name)
        metric = fisher_metric(family)
        pts = family.domain.sample_points()
        idx = np.linspace(0, len(pts) - 1, 5).astype(int)
        for theta in pts[idx]:
            worst = max(
                worst, float(np.abs(metric.matrix_at(theta) - fisher_oracle(name, theta)).max())
            )
    ok = worst <= 1e-6
    _report(8, "statistical suite / information metric", ok, f"max error {worst:.2e}")
    assert ok


def test_c08b_zero_alpha_parallel():
    worst = 0.0
    for name in ("gaussian1d", "bernoulli"):
        family = get_family(name)
        _, residual = metric_covariant_derivative(
            alpha_connection(family, 0.0), fisher_metric(family)
        )
        worst = max(worst, residual)
    ok = worst <= 1e-8
    _report(8, "statistical suite / zero-alpha parallel", ok, f"max residual {worst:.2e}")
    assert ok


def test_c08c_alpha_duality():
    worst = 0.0
    for name in ("gaussian1d", "bernoulli"):
        family = get_family(name)
        fisher = fisher_metric(family)
        for alpha in (1.0, -1.0, 0.5, -0.5):
            lhs = dual_connection(fisher, alpha_connection(family, alpha))
            rhs = alpha_connection(family, -alpha)
            worst = max(worst, _max_coeff_diff(lhs, rhs))
    ok = worst <= 1e-8
    _report(8, "statistical suite / dual pairs", ok, f"max coefficient error {worst:.2e}")
    assert ok


def test_c08d_bernoulli_scan_all_regular():
    report = alpha_scan(get_family("bernoulli"), [-1.0, -0.5, 0.0, 0.5, 1.0])
    verdicts = [c.verdict for c in report.certificates]
    ok = all(v == "RegularlyMetric" for v in verdicts) and report.theorem_consistent
    _report(
        8,
        "statistical suite / bernoulli scan",
        ok,
        f"verdicts {verdicts}, consistent {report.theorem_consistent}",
    )
    assert ok


def test_c08e_gaussian_scan_all_regular_expected_defect():
    """States the criterion verbatim: every alpha in the five-point scan
    of the gaussian family is regularly metric. The +-0.5 structures
    admit no nonzero parallel symmetric form (closed-form analysis,
    cross-checked by the solver and its oracles in test_statmodels), so
    this assertion fails; it is kept faithful rather than weakened."""
    report = alpha_scan(
        get_family("gaussian1d"),
        [-1.0, -0.5, 0.0, 0.5, 1.0],
        options=SolveOptions(grid_per_axis=5, steps_per_segment=128),
    )
    verdicts = {a: c.verdict for a, c in zip(report.alphas, report.certificates)}
    consistency_ok = report.theorem_consistent
    all_regular = all(v == "RegularlyMetric" for v in verdicts.values())
    ok = all_regular and consistency_ok
    _report(
        8,
        "statistical suite / gaussian scan",
        ok,
        f"verdicts {verdicts}, consistent {consistency_ok}"
        + ("" if ok else "; expected defect, see decision record"),
    )
    assert consistency_ok
    assert all_regular, (
        "gaussian alpha = +-0.5 structures are not metric; "
        "documented expected failure"
    )


def test_c09_transport_order():
    """Halving the integration step scales the discrepancy by 2^4 within
    a factor of 4 on three corpus connections."""
    rng = np.random.default_rng(SEED + 3)
    hyp, _ = half_plane_levi_civita()
    cases = [(hyp, dual_connection(identity_metric(hyp.domain, 2), hyp))]
    for scale in (0.6, 0.9):
        conn = random_polynomial_connection(rng, square_domain(5), 2, scale=scale)
        cases.append((conn, dual_connection(identity_metric(conn.domain, 2), conn)))
    ratios = []
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
        ends = {
            steps: transport_along(conn, dual, verts, phi0, steps=steps)
            for steps in (8, 16, 32)
        }
        ratios.append(
            float(np.abs(ends[8] - ends[16]).max() / np.abs(ends[16] - ends[32]).max())
        )
    ok = all(4.0 <= r <= 64.0 for r in ratios)
    _report(9, "transport order", ok, f"ratios {[f'{r:.1f}' for r in ratios]}")
    assert ok, ratios


def test_c10_cli_determinism(tmp_path, capsys):
    outs = []
    for k in range(2):
        path = tmp_path / f"m{k}.json"
        code = cli.main(
            [
                "metricity",
                str(
                    __import__("pathlib").Path(__file__).resolve().parents[1]
                    / "problems"
                    / "nilpotent.json"
                ),
                "--quiet",
                "--seed",
                "5",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        outs.append(path.read_bytes())
    scan_outs = []
    for k in range(2):
        path = tmp_path / f"s{k}.json"
        code = cli.main(
            [
                "alpha-scan",
                "--family",
                "bernoulli",
                "--alphas",
                "-1,0,1",
                "--quiet",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        scan_outs.append(path.read_bytes())
    capsys.readouterr()
    ok = outs[0] == outs[1] and scan_outs[0] == scan_outs[1]
    _report(10, "deterministic reports", ok)
    assert ok
