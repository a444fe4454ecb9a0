"""An independent audit of certified answers against lasso holonomy.

A parallel form is fixed by the holonomy of every loop, and the lassos
based at a point x0 generate the holonomy group there, whose fixed
forms are the parallel ones (Ambrose & Singer, Trans. AMS 75, 1953;
Kobayashi & Nomizu I, II.4 and II.8). Finitely many lassos can only
over-count the fixed forms, so each analysis's dimS2 and dimOmega2 are
bounded above by the dimensions of the symmetric and antisymmetric
forms that the lassos at its base point fix. The expected side is
`oracles.holonomy_fixed_dim` alone: RK4 point by point on Kronecker
generators, sharing no transport code with metron.

Each lasso runs from the base point along an L-path (axis 0 first) to a
rectangle 0.07 of the box wide in the plane of axes 0 and 1, round it,
and back the same way. The rectangles sit at points of the Kronecker
sequence R_d (Roberts) from a seeded offset, so no edge of them lies on
a grid line. At STEPS = 16 RK4 steps per segment, the largest
|H q - q| over the three lassos and the unit-norm forms q of metron's
bases is 1.3e-9 (the half plane; 4.1e-11 at 32 steps), below the
oracle's tolerance of 1e-6. The planted forms are fixed to roundoff,
since their generator vanishes on them.
"""
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from metron.bundle import ChartDomain, Connection
from metron.metricity import decide_metricity
from oracles import holonomy_fixed_dim
from support import planted_metric_connection, square_domain

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
STEPS = 16
LASSO_SEED = 19


def _lassos(base, domain: ChartDomain):
    """Three lassos based at base, each round a rectangle 0.07 of the box
    wide whose corner is the k-th point of R_d, k = 1, 2, 3, from an
    offset drawn from LASSO_SEED."""
    lower, upper = np.asarray(domain.lower), np.asarray(domain.upper)
    m = len(lower)
    width = 0.07 * (upper - lower)
    phi = np.roots([1.0] + [0.0] * (m - 1) + [-1.0, -1.0]).real.max()  # phi^(m+1) = phi + 1
    offset = np.random.default_rng(LASSO_SEED).random()
    e0, e1 = np.eye(m)[0] * width[0], np.eye(m)[1] * width[1]
    loops = []
    for k in (1, 2, 3):
        fractions = (offset + k * phi ** -np.arange(1.0, m + 1)) % 1.0
        corner = lower + fractions * (upper - lower - width)
        out = [np.asarray(base, float)]
        for axis in range(m):
            point = out[-1].copy()
            point[axis] = corner[axis]
            out.append(point)
        ring = [corner + e0, corner + e0 + e1, corner + e1, corner]
        loops.append(SimpleNamespace(vertices=out + ring + out[-2::-1], steps_per_segment=STEPS))
    return loops


def _problem(path: Path) -> Connection:
    data = json.loads(path.read_text(encoding="utf-8"))
    per_axis = (data["domain"]["gridPerAxis"],) * data["dim"]
    domain = ChartDomain(data["domain"]["lower"], data["domain"]["upper"], per_axis)
    return Connection(domain, data["rank"], data["connection"])


def _planted(r: int) -> Connection:
    """A connection on [-1, 1]^2 that preserves a seeded positive-definite
    constant form of rank r."""
    rng = np.random.default_rng(r)
    a = rng.standard_normal((r, r))
    return planted_metric_connection(rng, square_domain(), a @ a.T + np.eye(r))


CASES = {path.name: (lambda path=path: _problem(path)) for path in sorted(PROBLEMS.glob("*.json"))}
CASES.update({f"planted-rank-{r}": (lambda r=r: _planted(r)) for r in (2, 3)})


@pytest.mark.parametrize("name", list(CASES))
def test_no_analysis_reports_more_forms_than_its_lassos_fix(name):
    conn = CASES[name]()
    cert = decide_metricity(conn)
    loops = _lassos(cert.base_point, conn.domain)
    assert cert.dim_s2 <= holonomy_fixed_dim(conn, loops, True)
    assert cert.dim_omega2 <= holonomy_fixed_dim(conn, loops, False)
