"""Fixtures and reference checks shared by the test suite, built on metron.

Unlike oracles.py, whose checks share no code with the implementation,
this module builds metron objects and calls into metron:

* reference connections: the three named examples and seeded random
  families of connections, metrics and gauge maps;
* `metric_covariant_derivative`: the grid residual of nabla g;
* `local_system_residual`: the intertwiner equation checked by direct
  substitution with finite-difference derivatives;
* `path_operator` and `transport_along`: RK4 transport along a polyline,
  composed from `transport.flow_operators`.

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

import itertools

import numpy as np

from metron import expr as ex
from metron import symmatrix as sm
from metron.bundle import (
    ChartDomain,
    Connection,
    GaugeTransform,
    MetricField,
    levi_civita,
    zero_connection,
)
from metron.transport import DEFAULT_STEPS_PER_SEGMENT, Grid, flow_operators

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
    return MetricField(domain, 2, entries)


def half_plane_levi_civita(domain: ChartDomain | None = None):
    metric = half_plane_metric(domain)
    return levi_civita(metric), metric


def constant_metric(domain: ChartDomain, matrix: np.ndarray) -> MetricField:
    matrix = np.asarray(matrix, dtype=float)
    r = matrix.shape[0]
    entries = tuple(tuple(ex.const(matrix[i, j]) for j in range(r)) for i in range(r))
    return MetricField(domain, r, entries)


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


def random_polynomial_text(rng: np.random.Generator, m: int, degree: int, scale: float) -> str:
    """Random polynomial in x1..xm of total degree <= degree with
    coefficients in [-scale, scale], as an expression string."""
    terms = [
        "*".join([repr(float(rng.uniform(-scale, scale)))] + [f"x{i}" for i in combo])
        for d in range(degree + 1)
        for combo in itertools.combinations_with_replacement(range(1, m + 1), d)
    ]
    return " + ".join(f"({t})" for t in terms)


def planted_metric_connection(
    rng: np.random.Generator,
    domain: ChartDomain,
    eta: np.ndarray,
    degree: int = 2,
    scale: float = 0.3,
) -> Connection:
    """A connection that preserves the constant symmetric form eta:
    Gamma_i = A_i eta^{-1} with each A_i an antisymmetric matrix of random
    polynomials, written as expression strings. With (nabla g)_i =
    d_i G - Gamma_i G - G Gamma_i^T, eta is parallel: the last two terms
    are -A_i - A_i^T = 0."""
    eta_inv = np.linalg.inv(np.asarray(eta, dtype=float))
    r = len(eta_inv)
    gamma = []
    for _ in range(domain.m):
        a = [[None] * r for _ in range(r)]
        for i, j in itertools.combinations(range(r), 2):
            p = random_polynomial_text(rng, domain.m, degree, scale)
            a[i][j], a[j][i] = f"({p})", f"-({p})"
        gamma.append(
            [
                [
                    " + ".join(
                        f"{a[i][k]}*{float(eta_inv[k, j])!r}"
                        for k in range(r)
                        if a[i][k] is not None and eta_inv[k, j] != 0.0
                    )
                    or "0"
                    for j in range(r)
                ]
                for i in range(r)
            ]
        )
    return Connection(domain, r, gamma)


def unit_triangular_gauge(
    rng: np.random.Generator, domain: ChartDomain, r: int, degree: int = 2, scale: float = 0.3
) -> GaugeTransform:
    """P = I + N with N strictly upper triangular random polynomials, as
    expression strings: det P = 1 on the whole chart."""
    entries = [["0"] * r for _ in range(r)]
    for i in range(r):
        entries[i][i] = "1"
        for j in range(i + 1, r):
            entries[i][j] = random_polynomial_text(rng, domain.m, degree, scale)
    return GaugeTransform(domain, r, entries)


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


def metric_covariant_derivative(conn: Connection, metric: MetricField):
    """(nabla g)_i = d_i G - Gamma_i G - G Gamma_i^T, plus its grid residual.

    Returns (field, residual) where field[i] is an r x r expression
    matrix and residual is the maximum absolute entry over the sample
    grid. Residual zero (to tolerance) certifies that the connection
    preserves the form on the chart.
    """
    g = metric.entries
    field_entries = []
    for i in range(conn.domain.m):
        gi = conn.gamma[i]
        field_entries.append(
            sm.mat_sub(
                sm.mat_sub(sm.mat_diff(g, i + 1), sm.mat_mul(gi, g)),
                sm.mat_mul(g, sm.mat_transpose(gi)),
            )
        )
    residual = float(np.abs(ex.Evaluator(field_entries)(conn.domain.sample_points())).max())
    return tuple(field_entries), residual


def path_operator(conn, dual, vertices, steps: int = DEFAULT_STEPS_PER_SEGMENT) -> np.ndarray:
    """Flow operator between conn and dual along the polyline through
    `vertices`: the segments' operators composed in order (first segment
    rightmost)."""
    verts = np.asarray(vertices, dtype=float)
    ops = flow_operators(conn, dual, verts[:-1], verts[1:], steps)
    op = ops[0]
    for seg in ops[1:]:
        op = seg @ op
    return op


def transport_along(conn, dual, vertices, phi0, steps: int = DEFAULT_STEPS_PER_SEGMENT) -> np.ndarray:
    """The end value of an intertwiner value phi0 (conn.r x dual.r)
    transported along the polyline through `vertices`; a vector is the
    1 x r intertwiner from the rank-1 zero connection."""
    phi0 = np.asarray(phi0, dtype=float)
    return (path_operator(conn, dual, vertices, steps) @ phi0.reshape(-1)).reshape(phi0.shape)


FD_STENCIL_FRACTION = 1.5e-3
# 6th-order central first-derivative stencil at offsets -3h..3h
_FD_OFFSETS = (-3, -2, -1, 1, 2, 3)
_FD_WEIGHTS = (-1.0, 9.0, -45.0, 45.0, -9.0, 1.0)  # divide by 60 h


def _owner_index(grid: Grid, node_multi, axis: int, direction: int):
    nb = list(node_multi)
    nb[axis] += direction
    if not 0 <= nb[axis] < grid.counts[axis]:
        nb[axis] = node_multi[axis] - direction
    return int(np.ravel_multi_index(nb, grid.counts))


def local_system_residual(
    fields: np.ndarray, grid: Grid, conn: Connection, dual: Connection
) -> float:
    """Direct-substitution residual of (k, N, r, r) fields on the grid's
    N nodes, solutions of the intertwiner equation from conn into dual
    (a form field's target is the conjugate connection).

    At each grid node the coordinate derivative of the field is taken
    with a sixth-order central stencil whose sample values are produced
    by short transports from the neighbouring grid nodes, never from the
    node under test, so a path-dependent fake cannot certify itself. The
    result is compared against the right-hand side of the first-order
    system evaluated exactly at the node; the return value is the worst
    absolute entry over nodes, axes and fields.
    """
    k = len(fields)
    if k == 0:
        return 0.0
    m, r = conn.domain.m, conn.r
    n_nodes = len(grid.nodes)
    hs = FD_STENCIL_FRACTION * (np.array(conn.domain.upper) - conn.domain.lower)
    fields = fields.reshape(k, n_nodes, r * r)
    steps = 2 * DEFAULT_STEPS_PER_SEGMENT  # for the first, longest legs
    unit = np.eye(m)
    weight_of = dict(zip(_FD_OFFSETS, _FD_WEIGHTS))
    # One stencil side per (node, axis, side): it starts at the owner
    # node and walks its three stencil points in order of distance from
    # the owner, so each leg continues the previous one.
    owners, weights, legs = [], [], []
    for node_idx, node in enumerate(grid.nodes):
        multi = grid.multi[node_idx]
        for axis in range(m):
            for side in (1, -1):
                owner = _owner_index(grid, multi, axis, side)
                pts = [node + side * s * hs[axis] * unit[axis] for s in (1, 2, 3)]
                pts.sort(key=lambda p: float(np.abs(p - grid.nodes[owner]).sum()))
                owners.append(owner)
                weights.append(
                    [weight_of[int(round(float((p - node)[axis] / hs[axis])))] for p in pts]
                )
                legs.append([grid.nodes[owner]] + pts)
    legs = np.array(legs)  # (S, 4, m): owner, then the three stencil points
    # one batch for the first legs, one for the two short legs (span h)
    first = flow_operators(conn, dual, legs[:, 0], legs[:, 1], steps)
    short = flow_operators(
        conn,
        dual,
        legs[:, 1:3].reshape(-1, m),
        legs[:, 2:4].reshape(-1, m),
        8,
    ).reshape(len(legs), 2, *first.shape[1:])
    ops = np.empty((len(legs), 3) + first.shape[1:])
    ops[:, 0] = first
    ops[:, 1] = short[:, 0] @ ops[:, 0]
    ops[:, 2] = short[:, 1] @ ops[:, 1]
    # (k, S, 3, d): each owner value carried to its three stencil points
    moved = np.einsum("sjab,ksb->ksja", ops, fields[:, owners, :])
    fd = np.einsum("sj,ksja->ksa", np.array(weights), moved)
    fd = fd.reshape(k, n_nodes, m, 2, -1).sum(axis=3)
    fd /= 60.0 * hs[None, None, :, None]
    values = fields.reshape(k, n_nodes, 1, r, r)
    rhs = conn.coeff_array(grid.nodes) @ values - values @ dual.coeff_array(grid.nodes)
    return float(np.abs(fd - rhs.reshape(fd.shape)).max())
