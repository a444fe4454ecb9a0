"""Reference connections and seeded random families used across the suite.

The three named examples:

* flat: Gamma = 0 on a rank-2 bundle over a square. Every constant
  endomorphism and every constant bilinear form is parallel.
* nilpotent: m = 2, r = 2, Gamma_1 = 0, Gamma_2 = x1 N with
  N = [[0, 1], [0, 0]]. Curvature R_12 = N, so the only parallel
  symmetric forms are multiples of diag(1, 0): the structure preserves a
  rank-1 form but no regular metric.
* half-plane: Levi-Civita connection of g = diag(1/x2^2, 1/x2^2) on a
  band above the x1-axis. Holonomy is irreducible, so parallel symmetric
  forms are exactly the multiples of g.
"""
from __future__ import annotations

import numpy as np

from . import expr as ex
from . import symmatrix as sm
from .bundle import (
    ChartDomain,
    Connection,
    GaugeTransform,
    MetricField,
    constant_metric,
    levi_civita,
    zero_connection,
)

__all__ = [
    "square_domain",
    "flat_connection",
    "nilpotent_connection",
    "half_plane_domain",
    "half_plane_metric",
    "half_plane_levi_civita",
    "random_polynomial_connection",
    "random_constant_metric",
    "random_polynomial_gauge",
    "random_constant_gauge",
    "involution_corpus",
]

NILPOTENT_MATRIX = np.array([[0.0, 1.0], [0.0, 0.0]])


def square_domain(samples: int = 9) -> ChartDomain:
    return ChartDomain((-1.0, -1.0), (1.0, 1.0), (samples, samples))


def flat_connection(domain: ChartDomain | None = None, r: int = 2) -> Connection:
    return zero_connection(domain or square_domain(), r)


def nilpotent_connection(domain: ChartDomain | None = None) -> Connection:
    domain = domain or square_domain()
    x1 = ex.var(1)
    gamma2 = ((ex.ZERO, x1), (ex.ZERO, ex.ZERO))
    return Connection(domain, 2, (sm.zeros_mat(2), gamma2))


def half_plane_domain(samples: int = 9) -> ChartDomain:
    return ChartDomain((-1.0, 0.75), (1.0, 1.75), (samples, samples))


def half_plane_metric(domain: ChartDomain | None = None) -> MetricField:
    domain = domain or half_plane_domain()
    inv_sq = ex.div(ex.ONE, ex.mul(ex.var(2), ex.var(2)))
    entries = ((inv_sq, ex.ZERO), (ex.ZERO, inv_sq))
    return MetricField(domain, 2, entries, declared_rank=2)


def half_plane_levi_civita(domain: ChartDomain | None = None):
    metric = half_plane_metric(domain)
    return levi_civita(metric), metric


def _random_polynomial_entry(rng: np.random.Generator, m: int, degree: int, scale: float):
    """Random polynomial of total degree <= degree with coefficients in
    [-scale, scale], built directly as an expression tree."""
    if m == 1:
        powers = [(d,) for d in range(degree + 1)]
    else:
        powers = [
            (d1, d2)
            for d1 in range(degree + 1)
            for d2 in range(degree + 1 - d1)
        ]
        if m > 2:
            powers = [p + (0,) * (m - 2) for p in powers]
    e = ex.ZERO
    for p in powers:
        coeff = float(rng.uniform(-scale, scale))
        term = ex.const(coeff)
        for axis, d in enumerate(p):
            for _ in range(d):
                term = ex.mul(term, ex.var(axis + 1))
        e = ex.add(e, term)
    return e


def random_polynomial_connection(
    rng: np.random.Generator,
    domain: ChartDomain,
    r: int,
    degree: int = 2,
    scale: float = 0.3,
) -> Connection:
    gamma = tuple(
        tuple(
            tuple(
                _random_polynomial_entry(rng, domain.m, degree, scale)
                for _ in range(r)
            )
            for _ in range(r)
        )
        for _ in range(domain.m)
    )
    return Connection(domain, r, gamma)


def random_constant_metric(
    rng: np.random.Generator,
    domain: ChartDomain,
    r: int,
    indefinite: bool = False,
) -> MetricField:
    """Well-conditioned constant regular metric: eigenvalues in [0.5, 2],
    optionally with one sign flipped."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    eigs = rng.uniform(0.5, 2.0, size=r)
    if indefinite and r >= 2:
        eigs[0] = -eigs[0]
    mat = q @ np.diag(eigs) @ q.T
    mat = (mat + mat.T) / 2.0
    return constant_metric(domain, mat)


def random_constant_gauge(rng: np.random.Generator, domain: ChartDomain, r: int) -> GaugeTransform:
    while True:
        mat = np.eye(r) + 0.4 * rng.standard_normal((r, r))
        if abs(np.linalg.det(mat)) >= 0.2:
            break
    entries = tuple(tuple(ex.const(mat[i, j]) for j in range(r)) for i in range(r))
    return GaugeTransform(domain, r, entries)


def random_polynomial_gauge(
    rng: np.random.Generator,
    domain: ChartDomain,
    r: int,
    degree: int = 2,
    scale: float = 0.03,
) -> GaugeTransform:
    """Identity plus a small polynomial perturbation, redrawn until the
    determinant stays away from zero on the sample grid."""
    for _ in range(32):
        entries = []
        for i in range(r):
            row = []
            for j in range(r):
                e = _random_polynomial_entry(rng, domain.m, degree, scale)
                if i == j:
                    e = ex.add(ex.ONE, e)
                row.append(e)
            entries.append(tuple(row))
        phi = GaugeTransform(domain, r, tuple(entries))
        if phi.min_abs_det_on_grid() >= 0.2:
            return phi
    raise RuntimeError("could not draw an invertible polynomial gauge transform")


def involution_corpus(seed: int, count: int = 50, samples: int = 5):
    """Seeded corpus of (connection, constant regular metric) pairs with
    m = 2 and rank alternating between 2 and 3."""
    rng = np.random.default_rng(seed)
    domain = square_domain(samples)
    out = []
    for k in range(count):
        r = 2 if k % 2 == 0 else 3
        conn = random_polynomial_connection(rng, domain, r, degree=2, scale=0.3)
        metric = random_constant_metric(rng, domain, r, indefinite=(k % 5 == 0))
        out.append((conn, metric))
    return out
