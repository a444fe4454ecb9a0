"""The four benchmark workloads: how each runs, and the answers it must give.

Every expectation is a closed form or follows from a pinned input; none
is read from metron's own output.
"""
from __future__ import annotations

INDEX_GRID = 5  # nodes per axis for index-hyperbolic (the file says 9)
ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
ALPHA_GRID = 4  # nodes per axis for alpha-scan-gaussian (the CLI uses 7)
ALPHA_STEPS = 128  # RK4 steps per grid segment, as in the CLI

NAMES = ("index-hyperbolic", "alpha-scan-gaussian", "gauged-flat-r4", "corpus-notmetric")


def _cert(verdict, dim_j, dim_s2, dim_omega2):
    return {
        "verdict": verdict,
        "dimJ": dim_j,
        "dimS2": dim_s2,
        "dimOmega2": dim_omega2,
        "certified": True,
        "exit": 0,
    }


# Closed-form answers per analysis.
#  * half-plane Levi-Civita connection: metric (hence regular, index zero),
#    parallel symmetric forms = multiples of the metric, one parallel
#    2-form (the area form); the index family is the primary metric, the
#    identity and eight random constant metrics.
#  * gaussian alpha-connections: a parallel form q has entries
#    A s^{2P}, B s^{P+T}, C s^{2T} with P = -(1+a), T = -(1+2a), and the
#    mixed-derivative constraints force q = 0 unless a is -1, 0 or 1
#    (dimension 3 at a = +-1 where the connection is flat, 1 at a = 0).
#  * gauged-flat-r4: flat connection on a simply connected box, so every
#    fibre value extends: r^2 = 16, r(r+1)/2 = 10, r(r-1)/2 = 6.
#  * corpus-notmetric: a generic connection keeps no nonzero form.
EXPECTED_INDEX = dict(
    _cert("RegularlyMetric", 2, 1, 1),
    sb=0,
    sb_given_g=0,
    ind_decision="Zero",
    familySize=10,
)
EXPECTED_ALPHA = [  # the closed form fixes dimS2 and the verdict only
    {
        "alpha": a,
        "verdict": verdict,
        "dimS2": dim_s2,
        "certified": True,
        "exit": 0,
        "theorem4Consistent": True,
    }
    for a, verdict, dim_s2 in zip(
        ALPHAS,
        ("RegularlyMetric", "NotMetric", "RegularlyMetric", "NotMetric", "RegularlyMetric"),
        (3, 0, 1, 0, 3),
    )
]
EXPECTED_GAUGED = _cert("RegularlyMetric", 16, 10, 6)
EXPECTED_CORPUS = _cert("NotMetric", 0, 0, 0)


def expected(workload: str, n_inputs: int) -> list[dict]:
    """One expectation per analysis of a single repetition."""
    if workload == "index-hyperbolic":
        return [EXPECTED_INDEX]
    if workload == "alpha-scan-gaussian":
        return list(EXPECTED_ALPHA)
    if workload == "gauged-flat-r4":
        return [EXPECTED_GAUGED]
    if workload == "corpus-notmetric":
        return [EXPECTED_CORPUS] * n_inputs
    raise ValueError(f"unknown workload {workload!r}")


def check(fields: dict, want: dict) -> list[str]:
    """Names of the expected fields the analysis got wrong."""
    return [key for key, value in want.items() if fields.get(key) != value]


def certificate_fields(cert: dict) -> dict:
    return {key: cert.get(key) for key in ("verdict", "dimJ", "dimS2", "dimOmega2", "certified")}


def report_fields(report: dict, code: int) -> dict:
    """Gate fields of one CLI report (metricity or index)."""
    result = report.get("result", {})
    fields = certificate_fields(result.get("certificate", {}))
    fields["exit"] = code
    fields.update(result.get("indexReport", {}))
    return fields
