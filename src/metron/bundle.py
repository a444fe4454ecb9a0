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

Coefficients are numpy object arrays of interned expression nodes:
Gamma of shape (m, r, r), a metric or gauge map (r, r). Nodes add,
subtract, multiply and divide through the expression factories, so
these formulas are array algebra (`@` folds each sum left from its first
product); each keeps its operands in the order written here, which fixes
the nodes it interns. Inverses are adjugate over determinant, which
keeps every coefficient inside the closed-form expression class;
cofactor expansion bounds them to rank <= MAX_INVERSE_RANK.

The dual construction g.nabla is an involution with fixed points exactly
the g-preserving connections; both facts are asserted numerically in the
test suite instead of being assumed.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import expr as ex

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
    "as_expr",
    "inverse_mat",
    "MAX_INVERSE_RANK",
]

MAX_INVERSE_RANK = 4
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


def as_expr(entry) -> ex.ScalarExpression:
    """A node as given, a string parsed, a number as a constant."""
    if isinstance(entry, ex.ScalarExpression):
        return entry
    if isinstance(entry, str):
        return ex.parse(entry)
    return ex.const(float(entry))


def _expression_array(entries, shape: tuple, domain: ChartDomain, what: str) -> np.ndarray:
    """entries (nested sequences or an array of expressions, strings or
    numbers) as a read-only object array of nodes of the given shape.
    Refuses another shape, a ragged nesting included, and coordinates
    beyond the chart, read from the entries' masks: that error names the
    first offending entry's lowest such coordinate."""
    array = np.array(entries, dtype=object)
    if array.shape != shape:
        expected, got = ("x".join(map(str, dims)) for dims in (shape, array.shape))
        raise ValueError(f"{what}s must be {expected}, got {got or 'a scalar'}")
    array = np.frompyfunc(as_expr, 1, 1)(array)
    for e in array.flat:
        if bad := ex.beyond(e, domain.m):
            raise ValueError(f"{what} uses x{bad} but the chart has dimension {domain.m}")
    array.flags.writeable = False
    return array


def _diff(a: np.ndarray, k) -> np.ndarray:
    """d/dx_k of every entry of a, the coordinate numbers k broadcast
    against a."""
    return np.frompyfunc(ex.differentiate, 2, 1)(a, k)


def _gradient(a: np.ndarray, m: int) -> np.ndarray:
    """d_1 a .. d_m a of an (r, r) array, stacked as (m, r, r)."""
    return _diff(a, np.arange(1, m + 1)[:, None, None])


class Connection:
    """Connection coefficients Gamma[i][a][b] over a chart domain."""

    def __init__(self, domain: ChartDomain, r: int, gamma):
        self.domain = domain
        self.r = r
        self.gamma = _expression_array(gamma, (domain.m, r, r), domain, "connection coefficient")

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
    return Connection(domain, r, np.full((domain.m, r, r), ex.ZERO))


class MetricField:
    """Symmetric form field."""

    def __init__(self, domain: ChartDomain, r: int, entries):
        self.domain = domain
        self.r = r
        self.entries = _expression_array(entries, (r, r), domain, "form coefficient")
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
    return MetricField(domain, r, np.where(np.eye(r, dtype=bool), ex.ONE, ex.ZERO))


class GaugeTransform:
    """Pointwise endomorphism phi[a][b]; invertibility is only required
    when it is used as a gauge transformation, not as a solution candidate."""

    def __init__(self, domain: ChartDomain, r: int, entries):
        self.domain = domain
        self.r = r
        self.entries = _expression_array(entries, (r, r), domain, "gauge coefficient")

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


def det_expr(a: np.ndarray) -> ex.ScalarExpression:
    """The determinant of a square array of expressions, by cofactor
    expansion along the first row (ONE for the empty matrix)."""
    det = ex.ZERO if len(a) else ex.ONE
    for j in range(len(a)):
        term = a[0, j] * det_expr(np.delete(a[1:], j, axis=1))
        det = det + term if j % 2 == 0 else det - term
    return det


def inverse_mat(a: np.ndarray) -> np.ndarray:
    """Adjugate over determinant, for rank <= MAX_INVERSE_RANK."""
    r = len(a)
    if r > MAX_INVERSE_RANK:
        raise ValueError(
            f"symbolic inverse supported for rank <= {MAX_INVERSE_RANK}, got {r}"
        )
    adjugate = np.empty((r, r), dtype=object)
    for i, j in np.ndindex(r, r):
        cofactor = det_expr(np.delete(np.delete(a, i, axis=0), j, axis=1))
        adjugate[j, i] = cofactor if (i + j) % 2 == 0 else -cofactor
    return adjugate / det_expr(a)


def curvature(conn: Connection) -> np.ndarray:
    """R_ij = d_i Gamma_j - d_j Gamma_i + Gamma_j Gamma_i - Gamma_i Gamma_j,
    as the read-only (m, m, r, r) array R[i][j]; R_ji is -R_ij node for
    node, and R_ii is zero."""
    cached = conn.__dict__.get("_curvature")
    if cached is not None:
        return cached
    m, r = conn.domain.m, conn.r
    i, j = np.triu_indices(m, 1)
    gi, gj = conn.gamma[i], conn.gamma[j]
    rij = (_diff(gj, i[:, None, None] + 1) - _diff(gi, j[:, None, None] + 1)) + (
        gj @ gi - gi @ gj
    )
    field = np.full((m, m, r, r), ex.ZERO)
    field[i, j], field[j, i] = rij, -rij
    field.flags.writeable = False
    conn.__dict__["_curvature"] = field
    return field


def dual_connection(metric: MetricField, conn: Connection) -> Connection:
    """The metric-dual connection: Gamma*_i = (d_i G - G Gamma_i^T) G^{-1}.

    Defined by g(dual_X s, s') = X g(s, s') - g(s, nabla_X s'); applying
    it twice returns the original connection.
    """
    if not metric.is_regular():
        raise ValueError(IRREGULAR_METRIC)
    g = metric.entries
    ginv = inverse_mat(g)
    num = _gradient(g, conn.domain.m) - g @ conn.gamma.swapaxes(-1, -2)
    return Connection(conn.domain, conn.r, num @ ginv)


def conjugate_connection(conn: Connection) -> Connection:
    """The connection on E* in the dual frame, Gamma*_i = -Gamma_i^T: the
    dual of the identity metric, node for node, without inverting it.
    The forms of conn are its intertwiners into this one."""
    return Connection(conn.domain, conn.r, -conn.gamma.swapaxes(-1, -2))


def apply_gauge(phi: GaugeTransform, conn: Connection) -> Connection:
    """Transformed coefficients of phi . nabla . phi^{-1}."""
    phi.require_invertible()
    p = phi.entries
    pinv = inverse_mat(p)
    gamma = pinv @ (conn.gamma @ p - _gradient(p, conn.domain.m))
    return Connection(conn.domain, conn.r, gamma)


def pushforward_metric(phi: GaugeTransform, metric: MetricField) -> MetricField:
    """g'(s, s') = g(phi^{-1} s, phi^{-1} s'), i.e. G' = P^{-1} G P^{-T}."""
    phi.require_invertible()
    pinv = inverse_mat(phi.entries)
    return MetricField(metric.domain, metric.r, pinv @ (metric.entries @ pinv.T))


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
    ginv = inverse_mat(g)
    dg = _gradient(g, m)  # dg[l][i][j] = d_l g_ij
    bracket = (dg + dg.swapaxes(0, 1)) - np.moveaxis(dg, 0, -1)  # at [i][j][l]
    # the sums over l at [i][k][j], ginv's entry the left factor of each term
    gamma = ex.const(0.5) * (ginv @ bracket.swapaxes(-1, -2)).swapaxes(-1, -2)
    return Connection(metric.domain, m, gamma)
