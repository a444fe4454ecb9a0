"""Relations that hold by construction: planted parallel metrics, chart
scaling and the exchange of two coordinates.

Gamma_i = A_i eta^{-1}, with each A_i an antisymmetric matrix of seeded
random polynomials, preserves the constant form eta
(`support.planted_metric_connection`). So the connection is regularly
metric whatever the polynomials are, and eta lies in its space S2 of
parallel symmetric forms. A gauge map P carries this over: P . nabla
preserves P^{-1} eta P^{-T}.

A connection's local forms transform under the chart change x = s y + b
as Gamma'_j(y) = s Gamma_j(s y + b) on the box mapped with it
(Kobayashi & Nomizu I, ch. II). The bundle and its parallel sections
are the same, so the verdict, the dimensions and `certified` cannot
depend on s: the prolongation's cutoffs must be unit-free. Exchanging
x1 and x2 is such a chart change too, with Gamma'_1 = Gamma_2 and
Gamma'_2 = Gamma_1 read at the swapped point; when the coefficients
read only one of the two, the coordinate transport never reads moves
from grid axis 0 to axis 1.

For a regular metric g, the g-dual connection, defined by
g(dual_X s, s') = X g(s, s') - g(s, nabla_X s'), is metric exactly when
the connection is: the duality that the paper's Amari functors build
on. Gamma*_i = (d_i G - G Gamma_i^T) G^{-1} is the connection induced on
the dual bundle, carried back through G. Its parallel symmetric forms
are those of the dual bundle, as many as the connection's own for the
holonomy groups tested here: orthogonal for the planted metrics and the
half plane (whose non-constant metric is its own connection's), trivial
for the flat connection, unipotent for the nilpotent one, generic
otherwise.
"""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from metron import expr as ex
from metron.bundle import (
    ChartDomain,
    Connection,
    apply_gauge,
    dual_connection,
    pushforward_metric,
)
from metron.homsolver import SolveOptions
from metron.metricity import decide_metricity
from metron.statmodels import alpha_connection, get_family
from support import (
    constant_metric,
    flat_connection,
    half_plane_levi_civita,
    nilpotent_connection,
    planted_metric_connection,
    random_constant_metric,
    random_polynomial_connection,
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


REPO = Path(__file__).resolve().parents[1]
SHIFT = (0.3, -0.2)
SCALES = [1e-3, 1e-2, 0.1, 10.0, 100.0, 1e3]


def _scaling_inputs() -> dict:
    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    inputs = {
        name: json.loads((REPO / "problems" / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("hyperbolic", "nilpotent", "flat2x2")
    }
    inputs["gauged-flat-r4-1"] = gen.gauged_flat_problem(1)
    for k, problem in enumerate(gen.corpus_problems(1)[:3]):
        inputs[f"corpus-1-{k:03d}"] = problem
    return inputs


SCALING_INPUTS = _scaling_inputs()


def _rescaled(problem: dict, s: float):
    """The problem's connection in the chart x = s y + SHIFT: the same
    strings with each x_i substituted, times s, on the mapped box."""
    domain = problem["domain"]
    lower = [(lo - b) / s for lo, b in zip(domain["lower"], SHIFT)]
    upper = [(hi - b) / s for hi, b in zip(domain["upper"], SHIFT)]

    def substituted(text):
        body = re.sub(r"x([1-9])", lambda m: f"({s!r}*x{m[1]} + {SHIFT[int(m[1]) - 1]!r})", text)
        return f"{s!r}*({body})"

    gamma = [[[substituted(e) for e in row] for row in g] for g in problem["connection"]]
    return Connection(ChartDomain(lower, upper), problem["rank"], gamma)


def _answer(cert) -> tuple:
    return cert.verdict, cert.dim_j, cert.dim_s2, cert.dim_omega2, cert.certified


@pytest.mark.parametrize("name", list(SCALING_INPUTS))
def test_chart_scaling_keeps_the_answer(name):
    problem = SCALING_INPUTS[name]
    want = _answer(decide_metricity(_rescaled(problem, 1.0), OPTIONS))
    got = {s: _answer(decide_metricity(_rescaled(problem, s), OPTIONS)) for s in SCALES}
    assert got == dict.fromkeys(SCALES, want)


def _swap_inputs() -> dict:
    """(connection, options) of the gaussian1d alpha connections, which
    read only x2, at grid 4 and 128 steps, and of the half plane."""
    scan = SolveOptions(grid_per_axis=4, steps_per_segment=128)
    inputs = {
        f"gaussian1d{alpha:+g}": (alpha_connection(get_family("gaussian1d"), alpha), scan)
        for alpha in (-1.0, 0.0, 0.5)
    }
    half_plane = SCALING_INPUTS["hyperbolic"]
    inputs["hyperbolic"] = (_rescaled(half_plane, 1.0), OPTIONS)
    return inputs


SWAP_INPUTS = _swap_inputs()


def _swapped(conn: Connection) -> Connection:
    """conn in the chart (x2, x1): x1 and x2 exchanged in every entry,
    Gamma_1 with Gamma_2, and the box's two axes."""

    def swap(e):
        return re.sub(r"x([12])", lambda m: f"x{3 - int(m[1])}", ex.to_string(e))

    gamma = [[[swap(e) for e in row] for row in conn.gamma[i]] for i in (1, 0)]
    box = conn.domain
    return Connection(ChartDomain(box.lower[::-1], box.upper[::-1]), conn.r, gamma)


@pytest.mark.parametrize("name", list(SWAP_INPUTS))
def test_exchanging_the_coordinates_keeps_the_answer(name):
    conn, options = SWAP_INPUTS[name]
    swapped = _swapped(conn)
    read = ex.variables(*(e for g in conn.gamma for row in g for e in row))
    assert read == {2}  # so the swapped entries read x1 alone
    assert ex.variables(*(e for g in swapped.gamma for row in g for e in row)) == {1}
    assert _answer(decide_metricity(swapped, options)) == _answer(decide_metricity(conn, options))


def _duality_inputs() -> dict:
    """(connection, regular metric) pairs: seeded planted-metric, generic,
    flat and nilpotent connections on the 5-node box, each with a seeded
    constant metric (indefinite for the names ending in 1), and the half
    plane's Levi-Civita connection with its own non-constant metric."""
    dom = square_domain(5)
    connections = {}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        connections[f"planted-{seed}"] = planted_metric_connection(rng, dom, PLANTED[seed])
        connections[f"generic-{seed}"] = random_polynomial_connection(rng, dom, 2, scale=0.4)
    for k in range(2):
        connections[f"flat-{k}"] = flat_connection(dom)
        connections[f"nilpotent-{k}"] = nilpotent_connection(dom)
    inputs = {}
    for k, (name, conn) in enumerate(connections.items()):
        rng = np.random.default_rng(100 + k)
        metric = random_constant_metric(rng, dom, conn.r, indefinite=name.endswith("1"))
        inputs[name] = conn, metric
    inputs["half-plane"] = half_plane_levi_civita()
    return inputs


DUALITY_INPUTS = _duality_inputs()


@pytest.mark.parametrize("name", list(DUALITY_INPUTS))
def test_the_metric_dual_keeps_the_answer(name):
    conn, g = DUALITY_INPUTS[name]
    dual = dual_connection(g, conn)
    want = decide_metricity(conn, OPTIONS)
    got = decide_metricity(dual, OPTIONS)
    assert (got.verdict, got.dim_s2, got.certified) == (want.verdict, want.dim_s2, want.certified)
