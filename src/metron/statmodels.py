"""Built-in one- and two-parameter statistical families as gauge
structures on the parameter chart.

For a family with log-density l(theta, x) the information metric and
the cubic (skewness) tensor are

    g_ij(theta) = E[d_i l d_j l],
    T_ijk(theta) = E[d_i l d_j l d_k l],

and the alpha-family of connections interpolates the exponential and
mixture structures through

    Gamma(alpha)^k_ij = Gamma(0)^k_ij - (alpha / 2) g^{kl} T_ijl,

with Gamma(0) the Levi-Civita connection of g. A family builds Gamma(0)
and the contraction g^{-1} T once; each alpha only combines them. The
closed forms (Amari & Nagaoka, Methods of Information Geometry, 2000)
live in one table of expression strings in chart coordinates:
gaussian1d (mu, sigma) = (x1, x2); bernoulli p = x1; poisson and
exponential lambda = x1. The test suite certifies them against direct
quadrature of the defining expectations, never trusting them as typed.

The duality g(dual of alpha) = (-alpha) and the flatness of the
exponential/mixture ends in these families are checked numerically.
"""
from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from . import expr as ex
from .bundle import ChartDomain, Connection, MetricField, inverse_mat, levi_civita
from .homsolver import SolveOptions
from .metricity import MetricityCertificate, decide_metricity

__all__ = [
    "StatisticalFamily",
    "FAMILIES",
    "get_family",
    "fisher_metric",
    "skewness_tensor",
    "alpha_connection",
    "AlphaScanReport",
    "alpha_scan",
]

ALPHA_SCAN_OPTIONS = SolveOptions(grid_per_axis=7, steps_per_segment=128)

# name -> (parameter box kept away from boundary singularities,
#          information metric entries,
#          nonzero skewness entries T[i][j][k] for i <= j <= k)
_CLOSED_FORMS = {
    "gaussian1d": (
        ChartDomain((-1.0, 0.5), (1.0, 2.0), (7, 7)),
        (("1/(x2*x2)", "0"), ("0", "2/(x2*x2)")),
        {(0, 0, 1): "2/(x2*(x2*x2))", (1, 1, 1): "8/(x2*(x2*x2))"},
    ),
    "bernoulli": (
        ChartDomain((0.2,), (0.8,), (9,)),
        (("1/(x1*(1-x1))",),),
        {(0, 0, 0): "(1-2*x1)/((x1*(1-x1))*(x1*(1-x1)))"},
    ),
    "poisson": (
        ChartDomain((0.5,), (3.0,), (9,)),
        (("1/x1",),),
        {(0, 0, 0): "1/(x1*x1)"},
    ),
    "exponential": (
        ChartDomain((0.5,), (3.0,), (9,)),
        (("1/(x1*x1)",),),
        {(0, 0, 0): "-2/(x1*(x1*x1))"},
    ),
}


class StatisticalFamily:
    """Name plus the parameter box kept away from boundary singularities.

    Every member of the alpha-family shares g, its Levi-Civita
    connection Gamma(0) and T; `alpha_forms` builds them once per family
    object."""

    def __init__(self, name: str, domain: ChartDomain):
        self.name = name
        self.domain = domain

    @property
    def m(self) -> int:
        return self.domain.m

    @cached_property
    def alpha_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """(Gamma(0)^k_ij, (g^{-1} T)^k_ij = sum_l g^{kl} T_ijl) as read-only
        (m, m, m) arrays of interned expressions, built on first use.
        Building them checks that the Fisher metric is symmetric and
        regular on the box; no evaluator outlives the call."""
        metric = fisher_metric(self)
        base = levi_civita(metric).gamma
        ginv = inverse_mat(metric.entries)
        # plane i of the contraction is (g^{-1} T_i^T)^T, T_i = T[i]
        contracted = (ginv @ skewness_tensor(self).swapaxes(-1, -2)).swapaxes(-1, -2)
        contracted.flags.writeable = False
        return base, contracted


FAMILIES = {
    name: StatisticalFamily(name, domain) for name, (domain, _, _) in _CLOSED_FORMS.items()
}


def get_family(name: str) -> StatisticalFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(FAMILIES)}"
        ) from None


def fisher_metric(family: StatisticalFamily) -> MetricField:
    entries = _CLOSED_FORMS[family.name][1]
    return MetricField(family.domain, family.m, entries)


def skewness_tensor(family: StatisticalFamily) -> np.ndarray:
    """Totally symmetric T[i][j][k] as an (m, m, m) array of expressions."""
    t = np.full((family.m,) * 3, ex.ZERO)
    for index, text in _CLOSED_FORMS[family.name][2].items():
        entry = ex.parse(text)
        for i, j, k in itertools.permutations(index):
            t[i, j, k] = entry
    return t


def alpha_connection(family: StatisticalFamily, alpha: float) -> Connection:
    """Gamma(alpha)^k_ij = Gamma(0)^k_ij - (alpha/2) g^{kl} T_ijl on the
    parameter chart (fibre = tangent bundle, rank = dimension), combined
    from the family's shared `alpha_forms`."""
    base, contracted = family.alpha_forms
    half_alpha = ex.const(-alpha / 2.0)  # at alpha 0 every sum folds to Gamma(0)'s node
    return Connection(family.domain, family.m, base + half_alpha * contracted)


class AlphaScanReport:
    def __init__(
        self,
        family: str,
        alphas: tuple[float, ...],
        certificates: list[MetricityCertificate],
        theorem_consistent: bool,
        flags: tuple[str, ...],
    ):
        self.family = family
        self.alphas = alphas
        self.certificates = certificates
        self.theorem_consistent = theorem_consistent
        self.flags = flags


def alpha_scan(
    family: StatisticalFamily,
    alphas,
    options: SolveOptions | None = None,
) -> AlphaScanReport:
    """Metricity certificates for each alpha in the scan.

    Consistency flag: a finite scan can only falsify the implication
    "every positive-alpha structure regularly metric implies all are".
    The flag drops to False exactly when every scanned positive alpha
    is regularly metric while some scanned alpha is not, and in that
    case a loud flag names the offending alphas; anything else (for
    example a positive alpha that is itself not metric) leaves the
    implication unfalsified. Without options the scan runs with
    ALPHA_SCAN_OPTIONS: grid 7 per axis, 128 RK4 steps per segment.

    An analysis that fails (ArithmeticError, ValueError, DomainError)
    propagates with its message prefixed by its alpha, "alpha 10000: ...".
    """
    alphas = tuple(sorted(float(a) for a in alphas))
    options = options or ALPHA_SCAN_OPTIONS
    certificates = []
    for a in alphas:
        try:
            certificates.append(decide_metricity(alpha_connection(family, a), options=options))
        except (ArithmeticError, ValueError, ex.DomainError) as err:
            # the same exception, so that callers still sort it by type,
            # whose message now names the alpha that failed
            err.args = (f"alpha {a:g}: {str(err) or type(err).__name__}",)
            raise
    positive = [c for a, c in zip(alphas, certificates) if a > 0.0]
    all_positive_regular = bool(positive) and all(c.is_regular for c in positive)
    some_not_regular = any(not c.is_regular for c in certificates)
    consistent = not (all_positive_regular and some_not_regular)
    flags = []
    if not consistent:
        bad = [a for a, c in zip(alphas, certificates) if not c.is_regular]
        flags.append(
            "POSITIVE-ALPHA-SCAN-REGULAR-BUT-ALPHAS-"
            + ",".join(f"{a:g}" for a in bad)
            + "-NOT-REGULAR:solver-bug-or-counter-signal"
        )
    return AlphaScanReport(
        family=family.name,
        alphas=alphas,
        certificates=certificates,
        theorem_consistent=consistent,
        flags=tuple(flags),
    )
