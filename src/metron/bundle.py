"""Gauge structures over a box chart: connections, metrics, gauge maps.

Conventions, fixed once and verified by residual tests rather than by
trusting matrix algebra:

    nabla_{d/dx_i} s_a = sum_b Gamma[i][a][b] s_b        (connection)
    phi(s_a)           = sum_b phi[a][b] s_b             (gauge map)
    g[a][b]            = g(s_a, s_b)                     (metric)

With Gamma_i the (a, b) matrix above, the induced coordinate formulas
used throughout are:

    curvature        R_ij = d_i Gamma_j - d_j Gamma_i + [Gamma_j, Gamma_i]
    metric derivative (nabla g)_i = d_i G - Gamma_i G - G Gamma_i^T
    dual connection  Gamma*_i = (d_i G - G Gamma_i^T) G^{-1}
    gauge action     Gamma'_i = P^{-1} (Gamma_i P - d_i P)
    metric pushforward  G' = P^{-1} G P^{-T}

The dual construction g.nabla is an involution with fixed points exactly
the g-preserving connections; both facts are asserted numerically in the
test suite instead of being assumed.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import expr as ex
from . import symmatrix as sm

__all__ = [
    "ChartDomain",
    "Connection",
    "MetricField",
    "GaugeTransform",
    "zero_connection",
    "identity_metric",
    "curvature",
    "dual_connection",
    "conjugate_connection",
    "apply_gauge",
    "pushforward_metric",
    "dual_gauge_compatibility_residual",
    "levi_civita",
    "numerical_rank",
]

DET_REGULARITY_FLOOR = 1e-8
CONDITION_CEILING = 1e8
RANK_REL_CUTOFF = 1e-8
IRREGULAR_METRIC = "dual connection needs a regular metric on the chart"


def numerical_rank(matrix: np.ndarray, scale: float | np.ndarray | None = None):
    """Rank by SVD with a cutoff RANK_REL_CUTOFF relative to the largest
    singular value; for a stack of matrices (..., a, b), an integer array
    of their ranks.

    Pass `scale` when the matrix is derived from data of a known size
    (for example the symmetric part of a unit-norm endomorphism): the
    cutoff is then taken relative to max(sigma_max, scale), so a matrix
    that is pure roundoff relative to its source counts as rank zero.
    For a stack, `scale` may hold one value per matrix.
    """
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.shape[-1] == 0:
        ranks = np.zeros(s.shape[:-1], dtype=int)
    else:
        floor = np.asarray(0.0 if scale is None else scale, float)[..., None]
        reference = np.maximum(s[..., :1], floor)
        ranks = ((s > RANK_REL_CUTOFF * reference) & (reference > 0.0)).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


class ChartDomain:
    """Open box chart with a deterministic interior sample grid.

    Axis i carries samples_per_axis[i] nodes at the interior fractions
    (k + 1) / (n + 1), so the grid never touches the boundary and the
    box centre is a node whenever the count is odd.
    """

    def __init__(
        self,
        lower: tuple[float, ...],
        upper: tuple[float, ...],
        samples_per_axis: tuple[int, ...] | None = None,
    ):
        self.lower = tuple(float(v) for v in lower)
        self.upper = tuple(float(v) for v in upper)
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        if not self.lower:
            raise ValueError("chart needs at least one coordinate")
        if len(self.lower) > ex.MAX_VARIABLES:
            raise ValueError(f"at most {ex.MAX_VARIABLES} coordinates supported")
        for lo, up in zip(self.lower, self.upper):
            if not -math.inf < lo < up < math.inf:
                raise ValueError(f"need finite lower < upper per axis, got [{lo}, {up}]")
        if samples_per_axis is None:
            samples_per_axis = (9,) * len(self.lower)
        self.samples_per_axis = tuple(int(n) for n in samples_per_axis)
        if len(self.samples_per_axis) != len(self.lower):
            raise ValueError("samples_per_axis must match the dimension")
        for n in self.samples_per_axis:
            if n < 1:
                raise ValueError("need at least one sample per axis")

    @property
    def m(self) -> int:
        return len(self.lower)

    def axis_points(self, i: int, count: int) -> np.ndarray:
        fractions = (np.arange(count) + 1.0) / (count + 1.0)
        return self.lower[i] + fractions * (self.upper[i] - self.lower[i])

    def sample_points(self, counts: tuple[int, ...] | None = None) -> np.ndarray:
        counts = self.samples_per_axis if counts is None else counts
        axes = [self.axis_points(i, n) for i, n in enumerate(counts)]
        grids = np.meshgrid(*axes, indexing="ij")  # the last axis runs fastest
        return np.stack([g.ravel() for g in grids], axis=-1)

    def center(self) -> np.ndarray:
        return (np.asarray(self.lower) + np.asarray(self.upper)) / 2.0


def _validate_entries(rows, domain: ChartDomain, what: str):
    """Reject coordinates beyond the chart, read from the entries' masks;
    the error names the first offending entry's lowest such coordinate."""
    for row in rows:
        for e in row:
            if bad := ex.beyond(e, domain.m):
                raise ValueError(f"{what} uses x{bad} but the chart has dimension {domain.m}")


class Connection:
    """Connection coefficients Gamma[i][a][b] over a chart domain."""

    def __init__(self, domain: ChartDomain, r: int, gamma: tuple):
        self.domain = domain
        self.r = r
        self.gamma = tuple(sm.as_matrix(g) for g in gamma)  # m x r x r ScalarExpression
        if len(self.gamma) != self.domain.m:
            raise ValueError(
                f"expected {self.domain.m} coefficient matrices, got {len(self.gamma)}"
            )
        for g in self.gamma:
            if len(g) != self.r or any(len(row) != self.r for row in g):
                raise ValueError(f"coefficient matrices must be {self.r}x{self.r}")
        _validate_entries(
            [row for g in self.gamma for row in g], self.domain, "connection coefficient"
        )

    @cached_property
    def coeff_array(self) -> ex.Evaluator:
        """The coefficients' evaluator, built on first use: at points x of
        shape (..., m) it returns shape (..., m, r, r).

        Raises DomainError naming the subtree and the point at the first
        point (in C order) where some coefficient leaves its domain,
        also where only an intermediate value does.
        """
        return ex.Evaluator(self.gamma)

    def coeff_at(self, x) -> np.ndarray:
        """Evaluate all coefficients at a point, shape (m, r, r)."""
        return self.coeff_array(x)


def zero_connection(domain: ChartDomain, r: int) -> Connection:
    return Connection(domain, r, tuple(sm.zeros_mat(r) for _ in range(domain.m)))


class MetricField:
    """Symmetric form field."""

    def __init__(self, domain: ChartDomain, r: int, entries: tuple):
        self.domain = domain
        self.r = r
        self.entries = sm.as_matrix(entries)  # r x r ScalarExpression
        if len(self.entries) != r or any(len(row) != r for row in self.entries):
            raise ValueError(f"form must be {r}x{r}")
        _validate_entries(self.entries, domain, "form coefficient")
        pts = self.domain.sample_points()
        # kept for regularity_margin, which reads the same grid
        self._grid_matrices = mats = self.matrix_at(pts)
        skew = np.abs(mats - mats.swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = np.flatnonzero(skew > 1e-9 * (1.0 + np.abs(mats).max(axis=(-2, -1))))
        if bad.size:
            raise ValueError(f"form is not symmetric at sample point {tuple(pts[bad[0]].tolist())}")

    @cached_property
    def matrix_at(self) -> ex.Evaluator:
        """The form's evaluator: its matrix at x, or at each point of a
        stack (..., m)."""
        return ex.Evaluator(self.entries)

    def regularity_margin(self) -> tuple[float, float]:
        """(min |det|, max condition number) over the sample grid."""
        mats = self._grid_matrices
        s = np.linalg.svd(mats, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(s[:, -1] == 0, np.inf, s[:, 0] / s[:, -1])
        return float(np.abs(np.linalg.det(mats)).min()), float(cond.max())

    def is_regular(self) -> bool:
        min_det, max_cond = self.regularity_margin()
        return min_det >= DET_REGULARITY_FLOOR and max_cond <= CONDITION_CEILING


def identity_metric(domain: ChartDomain, r: int) -> MetricField:
    return MetricField(domain, r, sm.identity_mat(r))


class GaugeTransform:
    """Pointwise endomorphism phi[a][b]; invertibility is only required
    when it is used as a gauge transformation, not as a solution candidate."""

    def __init__(self, domain: ChartDomain, r: int, entries: tuple):
        self.domain = domain
        self.r = r
        self.entries = sm.as_matrix(entries)
        if len(self.entries) != r or any(len(row) != r for row in self.entries):
            raise ValueError(f"gauge matrix must be {r}x{r}")
        _validate_entries(self.entries, domain, "gauge coefficient")

    @cached_property
    def matrix_at(self) -> ex.Evaluator:
        """The map's evaluator: its matrix at x, or at each point of a
        stack (..., m)."""
        return ex.Evaluator(self.entries)

    def min_abs_det_on_grid(self) -> float:
        dets = np.linalg.det(self.matrix_at(self.domain.sample_points()))
        return float(np.abs(dets).min())

    def require_invertible(self):
        worst = self.min_abs_det_on_grid()
        if worst < DET_REGULARITY_FLOOR:
            raise ValueError(
                f"gauge transform is numerically singular on the grid (|det| = {worst:.3e})"
            )


def curvature(conn: Connection) -> tuple:
    """R_ij = d_i Gamma_j - d_j Gamma_i + Gamma_j Gamma_i - Gamma_i Gamma_j,
    as the m x m nested tuple of r x r expression matrices R[i][j]; R_ji
    is -R_ij node for node, and R_ii is zero."""
    cached = conn.__dict__.get("_curvature")
    if cached is not None:
        return cached
    m, r = conn.domain.m, conn.r
    entries = [[sm.zeros_mat(r) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            gi, gj = conn.gamma[i], conn.gamma[j]
            rij = sm.mat_add(
                sm.mat_sub(sm.mat_diff(gj, i + 1), sm.mat_diff(gi, j + 1)),
                sm.mat_sub(sm.mat_mul(gj, gi), sm.mat_mul(gi, gj)),
            )
            entries[i][j] = rij
            entries[j][i] = sm.mat_neg(rij)
    field = conn.__dict__["_curvature"] = tuple(tuple(row) for row in entries)
    return field


def dual_connection(metric: MetricField, conn: Connection) -> Connection:
    """The metric-dual connection: Gamma*_i = (d_i G - G Gamma_i^T) G^{-1}.

    Defined by g(dual_X s, s') = X g(s, s') - g(s, nabla_X s'); applying
    it twice returns the original connection.
    """
    if not metric.is_regular():
        raise ValueError(IRREGULAR_METRIC)
    g = metric.entries
    ginv = sm.inverse_mat(g)
    gamma_star = []
    for i in range(conn.domain.m):
        num = sm.mat_sub(
            sm.mat_diff(g, i + 1),
            sm.mat_mul(g, sm.mat_transpose(conn.gamma[i])),
        )
        gamma_star.append(sm.mat_mul(num, ginv))
    return Connection(conn.domain, conn.r, tuple(gamma_star))


def conjugate_connection(conn: Connection) -> Connection:
    """The connection on E* in the dual frame, Gamma*_i = -Gamma_i^T: the
    dual of the identity metric, node for node, without inverting it.
    The forms of conn are its intertwiners into this one."""
    return Connection(
        conn.domain, conn.r, tuple(sm.mat_neg(sm.mat_transpose(g)) for g in conn.gamma)
    )


def apply_gauge(phi: GaugeTransform, conn: Connection) -> Connection:
    """Transformed coefficients of phi . nabla . phi^{-1}."""
    phi.require_invertible()
    p = phi.entries
    pinv = sm.inverse_mat(p)
    out = []
    for i in range(conn.domain.m):
        out.append(
            sm.mat_mul(pinv, sm.mat_sub(sm.mat_mul(conn.gamma[i], p), sm.mat_diff(p, i + 1)))
        )
    return Connection(conn.domain, conn.r, tuple(out))


def pushforward_metric(phi: GaugeTransform, metric: MetricField) -> MetricField:
    """g'(s, s') = g(phi^{-1} s, phi^{-1} s'), i.e. G' = P^{-1} G P^{-T}."""
    phi.require_invertible()
    pinv = sm.inverse_mat(phi.entries)
    entries = sm.mat_mul(pinv, sm.mat_mul(metric.entries, sm.mat_transpose(pinv)))
    return MetricField(metric.domain, metric.r, entries)


def dual_gauge_compatibility_residual(
    phi: GaugeTransform, metric: MetricField, conn: Connection
) -> float:
    """Max grid discrepancy between phi.(g.nabla) and (phi.g).(phi.nabla).

    The dual construction commutes with the gauge action in this precise
    sense; the residual should sit at numerical roundoff for any regular
    metric and invertible gauge map.
    """
    lhs = apply_gauge(phi, dual_connection(metric, conn))
    rhs = dual_connection(pushforward_metric(phi, metric), apply_gauge(phi, conn))
    pts = conn.domain.sample_points()
    return float(np.abs(lhs.coeff_array(pts) - rhs.coeff_array(pts)).max())


def levi_civita(metric: MetricField) -> Connection:
    """Torsion-free metric-preserving connection of a regular metric on
    the tangent bundle (chart dimension equals fibre rank).

    gamma[i][j][k] = 1/2 sum_l g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    """
    m = metric.domain.m
    if metric.r != m:
        raise ValueError("tangent-bundle construction needs rank == dimension")
    if not metric.is_regular():
        raise ValueError("metric must be regular")
    g = metric.entries
    ginv = sm.inverse_mat(g)
    dg = [sm.mat_diff(g, l + 1) for l in range(m)]
    gamma = []
    for i in range(m):
        rows = []
        for j in range(m):
            row = []
            for k in range(m):
                acc = ex.ZERO
                for l in range(m):
                    bracket = ex.sub(
                        ex.add(dg[i][j][l], dg[j][i][l]),
                        dg[l][i][j],
                    )
                    acc = ex.add(acc, ex.mul(ginv[k][l], bracket))
                row.append(ex.mul(ex.const(0.5), acc))
            rows.append(tuple(row))
        gamma.append(tuple(rows))
    return Connection(metric.domain, m, tuple(gamma))
