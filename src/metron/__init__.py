"""metron: metricity certificates for coordinate-given connections.

Given a vector bundle with a Koszul connection presented in closed-form
coordinates over a box chart, decide whether the connection preserves a
(regular or singular) metric, produce the witness and index functions,
and certify every step with independent residual checks.
"""

__version__ = "0.1.0"

from .bundle import (  # noqa: F401
    ChartDomain,
    Connection,
    GaugeTransform,
    MetricField,
    apply_gauge,
    conjugate_connection,
    curvature,
    dual_connection,
    dual_gauge_compatibility_residual,
    identity_metric,
    levi_civita,
    pushforward_metric,
    zero_connection,
)
from .expr import (  # noqa: F401
    DomainError,
    ParseError,
    ScalarExpression,
    differentiate,
    evaluate,
    parse,
    to_string,
)
from .homsolver import (  # noqa: F401
    Prolongation,
    SolutionSpace,
    SolveOptions,
    solve_hom,
    solve_parallel_forms,
    stabilized_constraint_subspace,
)
from .metricity import (  # noqa: F401
    IndexReport,
    MetricityCertificate,
    decide_metricity,
    gauge_index,
    index_report,
)
from .statmodels import (  # noqa: F401
    alpha_connection,
    alpha_scan,
    fisher_metric,
    get_family,
    skewness_tensor,
)
from .transport import Grid  # noqa: F401
