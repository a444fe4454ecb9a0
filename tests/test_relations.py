"""Relations that hold by construction: planted parallel metrics.

Gamma_i = A_i eta^{-1}, with each A_i an antisymmetric matrix of seeded
random polynomials, preserves the constant form eta
(`support.planted_metric_connection`). So the connection is regularly
metric whatever the polynomials are, and eta lies in its space S2 of
parallel symmetric forms. A gauge map P carries this over: P . nabla
preserves P^{-1} eta P^{-T}.
"""
import numpy as np
import pytest

from metron.bundle import apply_gauge, pushforward_metric
from metron.homsolver import SolveOptions
from metron.metricity import decide_metricity
from support import (
    constant_metric,
    planted_metric_connection,
    square_domain,
    unit_triangular_gauge,
)

PLANTED = [np.diag([1.0, -1.0]), np.diag([1.0, 1.0, -1.0]), np.diag([2.0, 1.0])]
OPTIONS = SolveOptions(grid_per_axis=5)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eta", PLANTED, ids=lambda eta: "diag" + str(np.diag(eta).tolist()))
def test_a_planted_metric_is_certified_and_in_s2(eta, seed):
    dom = square_domain(5)
    conn = planted_metric_connection(np.random.default_rng(seed), dom, eta)
    cert = decide_metricity(conn, OPTIONS)
    assert (cert.verdict, cert.certified) == ("RegularlyMetric", True)
    assert cert.spaces["symmetric"].contains(eta / np.linalg.norm(eta))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eta", PLANTED, ids=lambda eta: "diag" + str(np.diag(eta).tolist()))
@pytest.mark.parametrize("scale", [0.3, 2.0])
def test_a_gauged_planted_metric_is_never_certified_otherwise(eta, seed, scale):
    """Under a unit upper-triangular polynomial gauge the structure stays
    regularly metric. Transport may fail to resolve a large gauge, so the
    verdict may be uncertified, but a certified verdict is RegularlyMetric
    and its S2 holds the pushed-forward metric."""
    dom = square_domain(5)
    rng = np.random.default_rng(seed)
    conn = planted_metric_connection(rng, dom, eta)
    phi = unit_triangular_gauge(rng, dom, len(eta), scale=scale)
    cert = decide_metricity(apply_gauge(phi, conn), OPTIONS)
    if cert.certified:
        assert cert.verdict == "RegularlyMetric"
        s2 = cert.spaces["symmetric"]
        pushed = pushforward_metric(phi, constant_metric(dom, eta))
        assert s2.contains(pushed.matrix_at(s2.base_point))
