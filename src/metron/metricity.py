"""Decide whether a gauge structure preserves a metric, and grade the
failure when it does not.

The decision runs through the space of parallel symmetric forms: the
connection is regularly metric when that space contains an element that
is nondegenerate across the whole chart, singular-metric-only when the
best parallel form has constant rank below the fibre rank, and not
metric when no nonzero parallel symmetric form exists at all.

Two integer gradings accompany the verdict:

* the gauge index of (conn, g): the minimal corank of the g-symmetric
  part over the certified intertwiners of conn with its g-dual g.conn,
  read off one seeded, deterministic stack of elements of the solution
  space (`_rank_candidates`), which also finds the witness;
* the overall index: the same minimum over a declared finite family of
  regular metrics: the identity, the user's metrics, and eight random
  constant regular metrics, which are counted in the family's size but
  never built, the identity standing for them.

Both vanish exactly in the regularly metric case, and both are gauge
invariants; the test suite asserts these equivalences on its named and
seeded random connections rather than assuming them. The certificate's hom solve
serves every g: J(conn, g.conn) = J(conn, conjugate) G^{-1} pointwise,
the conjugate -Gamma_i^T being the dual of the identity. So
index_report takes a certificate and solves nothing; as the
g-symmetric part of P G^{-1} is sym(P) G^{-1}, it counts its random
members rather than building them.
"""
from __future__ import annotations

import numpy as np

from .bundle import (
    Connection,
    MetricField,
    conjugate_connection,
    dual_connection,  # noqa: F401 (the benchmark's span recorder wraps it here)
    identity_metric,
    numerical_rank,
)
from .homsolver import (
    Prolongation,
    SolutionSpace,
    SolveOptions,
    solve_hom,
    solve_parallel_forms,
)

__all__ = [
    "MetricityCertificate",
    "IndexReport",
    "split_symmetric",
    "analyze",
    "decide_metricity",
    "gauge_index",
    "index_report",
]

RANK_SEARCH_DRAWS = 64
RANDOM_FAMILY_SIZE = 8


class MetricityCertificate:
    def __init__(
        self,
        verdict: str,
        max_witness_rank: int,
        dim_s2: int,
        dim_omega2: int,
        dim_j: int,
        exact_sequence_ok: bool,
        witness_base: np.ndarray | None,
        witness_field: np.ndarray | None,
        witness_rank: int | None,
        witness_min_abs_det: float | None,
        witness_transport_residual: float | None,
        residuals: dict,
        options: SolveOptions,
        stabilized: bool,
        certified: bool,
        flags: tuple[str, ...],
        base_point: tuple,
        spaces: dict | None = None,
    ):
        self.verdict = verdict  # 'RegularlyMetric' | 'SingularMetricOnly' | 'NotMetric'
        self.max_witness_rank = max_witness_rank
        self.dim_s2 = dim_s2
        self.dim_omega2 = dim_omega2
        self.dim_j = dim_j
        self.exact_sequence_ok = exact_sequence_ok
        self.witness_base = witness_base
        self.witness_field = witness_field  # values over the grid nodes
        self.witness_rank = witness_rank
        self.witness_min_abs_det = witness_min_abs_det
        self.witness_transport_residual = witness_transport_residual
        self.residuals = residuals
        self.options = options  # the tolerances and knobs the certificate ran with
        self.stabilized = stabilized
        self.certified = certified
        self.flags = flags
        self.base_point = base_point
        self.spaces = {} if spaces is None else spaces

    @property
    def is_regular(self) -> bool:
        return self.verdict == "RegularlyMetric"


class IndexReport:
    def __init__(
        self,
        sb_given_g: int,
        sb: int,
        ind_decision: str,
        max_parallel_metric_rank: int,
        family_size: int,
        flags: tuple[str, ...],
        verdict: str,
    ):
        self.sb_given_g = sb_given_g
        self.sb = sb
        self.ind_decision = ind_decision  # 'Zero' | 'AtLeastOne'
        self.max_parallel_metric_rank = max_parallel_metric_rank
        self.family_size = family_size
        self.flags = flags
        self.verdict = verdict


def split_symmetric(g: np.ndarray, p: np.ndarray):
    """g-symmetric / g-antisymmetric parts of an endomorphism value.

    Defined by g(Phi s, s') = (g(phi s, s') + g(s, phi s')) / 2 and the
    antisymmetric sibling with a minus sign; phi = Phi + Phi*.
    In matrices: Phi = (P + G P^T G^{-1}) / 2; g and p may be stacks
    (..., r, r).
    """
    g = np.asarray(g, float)
    p = np.asarray(p, float)
    conj = g @ np.swapaxes(p, -1, -2) @ np.linalg.inv(g)
    phi_sym = (p + conj) / 2.0
    phi_alt = (p - conj) / 2.0
    return phi_sym, phi_alt


def analyze(conn: Connection, options: SolveOptions | None = None) -> dict:
    """The three spaces of parallel sections keyed "hom", "symmetric"
    and "antisymmetric" (a certificate's `spaces`), solved on one
    problem: the intertwiners into the conjugate connection, the dual of
    the identity metric, on all, the symmetric and the antisymmetric
    matrices. Each space equals its solve on a fresh problem."""
    problem = Prolongation(conn, conjugate_connection(conn), options or SolveOptions())
    return {
        "hom": solve_hom(problem),
        "symmetric": solve_parallel_forms(problem, "symmetric"),
        "antisymmetric": solve_parallel_forms(problem, "antisymmetric"),
    }


def _rank_candidates(space: SolutionSpace, seed: int) -> np.ndarray:
    """One (n, r, r) stack: identity/sqrt(r) when it lies in the span,
    then the basis, then RANK_SEARCH_DRAWS unit-norm combinations: the
    points of Roberts' Kronecker sequence (steps phi_d^-1..phi_d^-d,
    phi_d^(d+1) = phi_d + 1) offset by frac(seed / golden ratio) and
    centred on [-1, 1)^d. Maximal rank fails only on a proper algebraic
    subset, which generic coefficients miss (Schwartz-Zippel)."""
    d, r = space.dimension, space.basis.shape[1]
    if d == 0:
        return space.basis
    eye = np.eye(r)[None] / np.sqrt(r)
    head = eye if space.contains(eye[0]) else eye[:0]
    phi = np.roots([1.0] + [0.0] * (d - 1) + [-1.0, -1.0]).real.max()
    offset = (int(seed) * 0x9E3779B97F4A7C15 % 2**64) / 2**64  # 0x9E... = 2^64 / golden ratio
    steps = np.arange(1, RANK_SEARCH_DRAWS + 1)[:, None] * phi ** -np.arange(1.0, d + 1)
    combos = 2.0 * ((offset + steps) % 1.0) - 1.0
    combos /= np.linalg.norm(combos, axis=1, keepdims=True)
    return np.concatenate([head, space.basis, np.tensordot(combos, space.basis, axes=(1, 0))])


def _combo_field(space: SolutionSpace, matrix: np.ndarray) -> np.ndarray:
    """Grid extension of a solution-space element given by its value at
    the base point (coefficients via the orthonormal basis)."""
    coeffs = space.basis.reshape(space.dimension, -1) @ matrix.reshape(-1)
    return np.tensordot(coeffs, space.extensions, axes=(0, 0))


def decide_metricity(
    conn: Connection, options: SolveOptions | None = None
) -> MetricityCertificate:
    """Produce a metricity certificate for the connection.

    The candidate stack of S2 is ranked once at the base point. The
    witness is the first candidate, in stack order, of the highest rank
    that it keeps at every grid node (transport is invertible, so a
    genuine parallel form keeps its rank; rank r at every node is
    nondegeneracy, no determinant floor enters). No such candidate, or
    an under-resolved transport, leaves the verdict uncertified.
    """
    opts = options or SolveOptions()
    spaces = analyze(conn, opts)
    hom, s2, o2 = spaces["hom"], spaces["symmetric"], spaces["antisymmetric"]
    dims_ok = hom.dimension == s2.dimension + o2.dimension
    stabilized = s2.stabilized and o2.stabilized and hom.stabilized
    flags = list(s2.flags) + list(o2.flags) + list(hom.flags)
    if not stabilized:
        flags.append("verdict-is-lower-bound-evidence-only")
    residuals = {
        "homTransport": hom.certified_residual,
        "symTransport": s2.certified_residual,
        "altTransport": o2.certified_residual,
    }
    base_point = s2.base_point
    r = conn.r

    witness_base = witness_field = witness_rank = witness_det = witness_transport = None
    max_rank = 0
    if s2.dimension == 0:
        verdict = "NotMetric"
    else:
        cands = _rank_candidates(s2, opts.seed)
        ranks = numerical_rank(cands)
        max_rank = int(ranks.max())
        for i in np.lexsort((np.arange(len(ranks)), -ranks)):
            fld = _combo_field(s2, cands[i])
            if np.all(numerical_rank(fld) == ranks[i]):
                witness_base, witness_field, witness_rank = cands[i], fld, int(ranks[i])
                break
        if witness_rank is None:
            verdict = "SingularMetricOnly"
            flags.append("witness-rank-not-constant-on-grid")
        else:
            witness_det = float(np.abs(np.linalg.det(witness_field)).min())
            coeffs = s2.basis.reshape(s2.dimension, -1) @ witness_base.reshape(-1)
            witness_transport = float(np.abs(coeffs).sum() * max(s2.certified_residual, 0.0))
            verdict = "RegularlyMetric" if witness_rank == r else "SingularMetricOnly"
    residuals["witnessTransport"] = witness_transport
    certified = (
        hom.certified
        and s2.certified
        and o2.certified
        and dims_ok
        and (s2.dimension == 0 or witness_rank is not None)
        and (verdict != "RegularlyMetric" or witness_transport <= opts.transport_tol)
    )
    return MetricityCertificate(
        verdict=verdict,
        max_witness_rank=max_rank,
        dim_s2=s2.dimension,
        dim_omega2=o2.dimension,
        dim_j=hom.dimension,
        exact_sequence_ok=dims_ok,
        witness_base=witness_base,
        witness_field=witness_field,
        witness_rank=witness_rank,
        witness_min_abs_det=witness_det,
        witness_transport_residual=witness_transport,
        residuals=residuals,
        options=opts,
        stabilized=stabilized,
        certified=certified,
        flags=tuple(dict.fromkeys(flags)),
        base_point=base_point,
        spaces=spaces,
    )


def gauge_index(metric: MetricField, hom_space: SolutionSpace, seed: int):
    """(value, flags): the minimal corank of the g-symmetric part over
    the certified intertwiners of a connection with its g-dual g.conn, r
    minus the largest rank over the candidate stack of `seed`, ranked in
    one call; (r, flagged) when the space is trivial so that downstream
    minima stay total.

    hom_space holds the connection's intertwiners into its conjugate (a
    certificate's `spaces["hom"]`); as J(conn, g.conn) = J(conn,
    conjugate) G^{-1}, each candidate Q is read as Q G^{-1} at the base
    point.
    """
    if hom_space.dimension == 0:
        return metric.r, ("empty-solution-space",)
    g0 = metric.matrix_at(hom_space.base_point)
    phi = _rank_candidates(hom_space, seed) @ np.linalg.inv(g0)
    phi_sym, _ = split_symmetric(g0, phi)
    ranks = numerical_rank(phi_sym, scale=np.linalg.norm(phi, axis=(1, 2)))
    flags = () if hom_space.stabilized else ("stabilization-not-reached",)
    return metric.r - int(ranks.max()), flags


def index_report(
    conn: Connection,
    certificate: MetricityCertificate,
    metric_family: list[MetricField] | None = None,
    primary_metric: MetricField | None = None,
) -> IndexReport:
    """Index summary of conn's certificate over a declared finite metric
    family: the primary metric (identity unless the caller supplies
    one), any user metrics, the identity when a primary is given, and
    eight random constant metrics. Each regular declared member is one
    gauge_index call on the certificate's hom space, with the seed of
    its options. As J(conn, g.conn) = J(conn, conjugate) G^{-1} (no
    exact sequence or stabilization assumed), members differ only where
    the rank cutoff, relative to |Q G0^{-1}|, drops a direction of an
    ill-conditioned G0. The random members (cond <= 4) are counted, not
    built: the identity stands for them."""
    identity = identity_metric(conn.domain, conn.r)
    declared = [primary_metric or identity, *(metric_family or [])]
    if primary_metric is not None:
        declared.append(identity)
    hom_space, seed = certificate.spaces["hom"], certificate.options.seed
    flags = list(certificate.flags)
    values = {}
    for idx, g in enumerate(declared):
        if not g.is_regular():
            flags.append(f"family-member-{idx}-not-regular-skipped")
            continue
        values[idx], gflags = gauge_index(g, hom_space, seed)
        flags.extend(gflags)
    return IndexReport(
        sb_given_g=values.get(0, conn.r),
        sb=min(values.values()),  # the identity is declared and regular
        ind_decision="Zero" if certificate.verdict == "RegularlyMetric" else "AtLeastOne",
        max_parallel_metric_rank=certificate.max_witness_rank,
        family_size=len(declared) + RANDOM_FAMILY_SIZE,
        flags=tuple(dict.fromkeys(flags)),
        verdict=certificate.verdict,
    )
