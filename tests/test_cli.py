import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metron import cli
from metron import expr as ex
from metron.bundle import ChartDomain, Connection
from metron.homsolver import SolveOptions
from metron.statmodels import alpha_scan, get_family
from metron.transport import Grid

REPO = Path(__file__).resolve().parents[1]
PROBLEMS = REPO / "problems"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(*argv):
    """Run a fresh interpreter from the repository root, metron's src
    first on its path."""
    paths = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, capture_output=True, text=True
    )


def _write(tmp_path, name, payload):
    """payload written as it is (str or bytes), else as JSON."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8"
        )
    return str(path)


BASE_PROBLEM = {
    "dim": 2,
    "rank": 2,
    "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "gridPerAxis": 5},
    "connection": [
        [["0", "0"], ["0", "0"]],
        [["0", "x1"], ["0", "0"]],
    ],
    "seed": 3,
}


# ---------------------------------------------------------------------------
# analysis commands on the shipped problems
# ---------------------------------------------------------------------------


def test_metricity_flat_problem(capsys):
    code, out, err = _run(capsys, "metricity", str(PROBLEMS / "flat2x2.json"))
    assert code == 0
    report = json.loads(out)
    cert = report["result"]["certificate"]
    assert cert["verdict"] == "RegularlyMetric"
    assert cert["dimS2"] == 3
    assert cert["dimOmega2"] == 1
    assert cert["dimJ"] == 4
    assert cert["exactSequenceHolds"]
    assert "verdict=RegularlyMetric" in err


def test_metricity_nilpotent_problem(capsys):
    code, out, _ = _run(capsys, "metricity", str(PROBLEMS / "nilpotent.json"), "--quiet")
    assert code == 0  # a negative verdict is still a successful analysis
    cert = json.loads(out)["result"]["certificate"]
    assert cert["verdict"] == "SingularMetricOnly"
    assert cert["maxParallelMetricRank"] == 1
    assert cert["witness"]["rank"] == 1


def test_metricity_hyperbolic_problem(capsys):
    code, out, _ = _run(capsys, "metricity", str(PROBLEMS / "hyperbolic.json"), "--quiet")
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["verdict"] == "RegularlyMetric"
    assert cert["dimS2"] == 1


def test_index_command(capsys, tmp_path):
    path = _write(tmp_path, "p.json", BASE_PROBLEM)
    code, out, _ = _run(capsys, "index", path, "--quiet", "--grid", "5")
    assert code == 0
    rep = json.loads(out)["result"]["indexReport"]
    assert rep["sb"] == 1
    assert rep["ind_decision"] == "AtLeastOne"
    assert rep["maxParallelMetricRank"] == 1


def test_index_with_metric_family_file(capsys, tmp_path):
    path = _write(tmp_path, "p.json", BASE_PROBLEM)
    family = _write(
        tmp_path,
        "metrics.json",
        [[["2", "0"], ["0", "1"]], [["1", "0.2"], ["0.2", "1"]]],
    )
    code, out, _ = _run(
        capsys, "index", path, "--quiet", "--grid", "5", "--metric-family", family
    )
    assert code == 0
    rep = json.loads(out)["result"]["indexReport"]
    assert rep["familySize"] >= 11  # identity + 2 users + 8 random
    assert rep["sb"] == 1


def test_dual_command_roundtrip_residual(capsys, tmp_path):
    problem = dict(BASE_PROBLEM)
    problem["metric"] = [["1", "0"], ["0", "2"]]
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "dual", path, "--quiet")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["involutionResidual"] <= 1e-9
    assert not result["usedIdentityMetric"]
    gamma_star = result["dualConnection"]
    assert len(gamma_star) == 2 and len(gamma_star[0]) == 2


def test_curvature_command(capsys):
    code, out, _ = _run(capsys, "curvature", str(PROBLEMS / "flat2x2.json"), "--quiet")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["flat"] is True
    assert result["maxAbsOnGrid"] == 0


def test_solve_fe_command(capsys, tmp_path):
    path = _write(tmp_path, "p.json", BASE_PROBLEM)
    code, out, _ = _run(capsys, "solve-fe", path, "--quiet")
    assert code == 0
    space = json.loads(out)["result"]["solutionSpace"]
    assert space["dimension"] == 2
    assert space["stabilized"] is True
    assert len(space["basis"]) == 2


def test_solve_fe_with_explicit_dual_connection(capsys, tmp_path):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["dualConnection"] = problem["connection"]  # self-intertwiners
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "solve-fe", path, "--quiet")
    assert code == 0
    space = json.loads(out)["result"]["solutionSpace"]
    assert space["dimension"] == 2  # identity and the nilpotent direction


def test_gauge_check_command(capsys, tmp_path):
    problem = dict(BASE_PROBLEM)
    problem["gauge"] = [["1 + 0.02*x1", "0.03*x2"], ["0.01*x1*x2", "1 - 0.02*x2"]]
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "gauge-check", path, "--quiet")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["gaugeRoundTripResidual"] <= 1e-9
    assert result["dualGaugeCompatibilityResidual"] <= 1e-8
    assert result["curvatureConjugationResidual"] <= 1e-8


def test_gauge_check_conjugation_residual_matches_a_per_pair_loop(tmp_path):
    """On a 3-coordinate chart, gauge-check's one broadcast over every
    (i, j) reads the same curvatureConjugationResidual as a loop over
    the pairs i < j, each pair's curvature evaluated on its own."""
    from metron import expr as ex
    from metron.bundle import ChartDomain, Connection, GaugeTransform, apply_gauge, curvature

    problem = {
        "dim": 3,
        "rank": 2,
        "domain": {"lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 1.0], "gridPerAxis": 3},
        "connection": [
            [["x2", "x3/2"], ["0", "x1*x2"]],
            [["x3^2/3", "0"], ["x1", "1 - x3"]],
            [["0", "x1 + x2"], ["x2/5", "x1*x3"]],
        ],
        "gauge": [["1 + 0.1*x3", "0.2*x1"], ["0.1*x2", "1"]],
    }
    path = _write(tmp_path, "p.json", problem)
    report, code = cli.run_command(cli.build_parser().parse_args(["gauge-check", path]))
    assert code == 0
    dom = ChartDomain((-1.0,) * 3, (1.0,) * 3, (3, 3, 3))
    conn = Connection(dom, 2, problem["connection"])
    phi = GaugeTransform(dom, 2, problem["gauge"])
    base, trans = curvature(conn), curvature(apply_gauge(phi, conn))
    pts = dom.sample_points()
    pm = phi.matrix_at(pts)
    pm_inv = np.linalg.inv(pm)
    conj = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            expected = pm_inv @ ex.Evaluator(base[i][j])(pts) @ pm
            conj = max(conj, float(np.abs(ex.Evaluator(trans[i][j])(pts) - expected).max()))
    assert conj > 0.0
    assert report["result"]["curvatureConjugationResidual"] == conj


def _half_plane(**changes):
    problem = json.loads((PROBLEMS / "hyperbolic.json").read_text(encoding="utf-8"))
    return {**problem, **changes}


SINGULAR_METRICS = [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "1e-12"]]]
REGULAR_GAUGE = [["1", "x1"], ["0", "1"]]


@pytest.mark.parametrize("command", ["dual", "solve-fe", "gauge-check"])
@pytest.mark.parametrize("metric", SINGULAR_METRICS)
def test_singular_metric_is_rejected_at_its_key(capsys, tmp_path, command, metric):
    """dual, solve-fe and gauge-check dualise the problem's metric; one
    that is not regular is named at `metric`, not at `$`."""
    path = _write(tmp_path, "p.json", _half_plane(metric=metric, gauge=REGULAR_GAUGE))
    code, out, _ = _run(capsys, command, path, "--quiet")
    assert code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {
            "path": "metric",
            "code": "value",
            "message": "dual connection needs a regular metric on the chart",
        }
    ]


@pytest.mark.parametrize("command", ["validate", "metricity", "index"])
def test_singular_metric_is_accepted_where_nothing_dualises_it(capsys, tmp_path, command):
    """index skips a singular metric by design; validate and metricity
    never dualise it."""
    path = _write(tmp_path, "p.json", _half_plane(metric=SINGULAR_METRICS[0]))
    code, out, _ = _run(capsys, command, path, "--quiet", "--grid", "5")
    assert code == 0
    assert json.loads(out)["result"].get("diagnostics", []) == []


def test_singular_gauge_is_rejected_at_its_key(capsys, tmp_path):
    path = _write(tmp_path, "p.json", _half_plane(gauge=[["1", "x1"], ["0", "0"]]))
    code, out, _ = _run(capsys, "gauge-check", path, "--quiet")
    assert code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {
            "path": "gauge",
            "code": "value",
            "message": "gauge transform is numerically singular on the grid (|det| = 0.000e+00)",
        }
    ]


def test_alpha_scan_honours_the_solve_flags(capsys):
    argv = ("alpha-scan", "--family", "gaussian1d", "--alphas", "0", "--quiet")
    reports = []
    for flags in ((), ("--tol-transport", "1e-30", "--seed", "9")):
        _, out, _ = _run(capsys, *argv, *flags)
        reports.append(json.loads(out))
    profiles = [r["result"]["perAlpha"][0]["certificate"]["toleranceProfile"] for r in reports]
    assert [r["seed"] for r in reports] == [0, 9]
    assert [p["transportResidual"] for p in profiles] == [1e-7, 1e-30]


def test_alpha_scan_command(capsys):
    code, out, _ = _run(
        capsys, "alpha-scan", "--family", "gaussian1d", "--alphas", "-1,0,1", "--quiet"
    )
    assert code == 0
    result = json.loads(out)["result"]
    verdicts = [p["certificate"]["verdict"] for p in result["perAlpha"]]
    assert verdicts == ["RegularlyMetric"] * 3
    assert result["theorem4Consistent"] is True


# ---------------------------------------------------------------------------
# validation and input errors
# ---------------------------------------------------------------------------


def test_validate_well_formed(capsys, tmp_path):
    path = _write(tmp_path, "p.json", BASE_PROBLEM)
    code, out, _ = _run(capsys, "validate", path, "--quiet")
    assert code == 0
    assert json.loads(out)["result"]["diagnostics"] == []


def test_validate_wrong_inner_length(capsys, tmp_path):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][0][1] = ["0"]  # should have 2 entries
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "validate", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert any(d["path"] == "connection[0][1]" and d["code"] == "shape" for d in diags)


def test_validate_unknown_variable(capsys, tmp_path):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][1][0][1] = "x3"
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "validate", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert any(
        d["code"] == "unknown-variable" and d["path"] == "connection[1][0][1]"
        for d in diags
    )


def test_unknown_variable_diagnostic_names_the_lowest_coordinate(capsys, tmp_path):
    """Each entry that mentions a coordinate beyond dim gets one
    diagnostic at its own path, naming its lowest such coordinate."""
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][1][0][1] = "x3"
    problem["connection"][0][1][0] = "x9 + x4*x2 + x1"
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "validate", path, "--quiet")
    assert code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {
            "path": "connection[0][1][0]",
            "code": "unknown-variable",
            "message": "expression uses x4 but the chart has dimension 2",
        },
        {
            "path": "connection[1][0][1]",
            "code": "unknown-variable",
            "message": "expression uses x3 but the chart has dimension 2",
        },
    ]


def test_a_corpus_analysis_walks_its_expressions_once(monkeypatch, tmp_path):
    """Loading a benchmark corpus file reads the coordinates from the
    nodes' masks and walks no expression DAG; deciding it walks the union
    DAG of the connection and its conjugate once, for the Taylor
    coefficients. Counts walks, not time."""
    from metron import expr

    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import gen

    walks = []
    topo_order = expr._topo_order
    monkeypatch.setattr(expr, "_topo_order", lambda *a: walks.append(1) or topo_order(*a))
    for k, problem in enumerate(gen.corpus_problems(1)[:3]):  # ranks 2, 2, 3
        path = _write(tmp_path, f"corpus-{k}.json", problem)
        loaded = cli.ProblemObjects(problem, cli.build_parser().parse_args(["metricity", path]))
        assert walks == []
        certificate = cli.decide_metricity(loaded.connection, loaded.options)
        assert certificate.verdict == "NotMetric"
        assert len(walks) == 1
        walks.clear()


def _string_leaves(value) -> int:
    if isinstance(value, str):
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return sum(_string_leaves(v) for v in value)
    return 0


RANK3_PROBLEM = {
    "dim": 2,
    "rank": 3,
    "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "gridPerAxis": 5},
    "connection": [
        [[f"{i + 1}/{j + 5}*x{i + 1} - {k}/7*x{2 - i}^2" for k in range(3)] for j in range(3)]
        for i in range(2)
    ],
}
GAUGED_PROBLEM = dict(
    BASE_PROBLEM,
    metric=[["2", "x1/4"], ["x1/4", "1"]],
    gauge=[["1", "x2/4"], ["0", "1"]],
    dualConnection=BASE_PROBLEM["connection"],
)


@pytest.mark.parametrize(
    "command, problem", [("metricity", RANK3_PROBLEM), ("gauge-check", GAUGED_PROBLEM)]
)
def test_each_expression_is_parsed_once(monkeypatch, tmp_path, command, problem):
    """Validation hands its parsed trees to the problem objects, so a run
    parses every expression string of the file exactly once."""
    from metron import expr as ex

    calls = []
    parse = ex.parse
    monkeypatch.setattr(ex, "parse", lambda text: calls.append(text) or parse(text))
    path = _write(tmp_path, "p.json", problem)
    _, code = cli.run_command(cli.build_parser().parse_args([command, path]))
    assert code == 0
    assert len(calls) == _string_leaves(problem) == (18 if command == "metricity" else 24)


@pytest.mark.parametrize("flag", ["--tol-transport", "--tol-kernel"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_non_positive_tolerance_flag_is_rejected(capsys, flag, value):
    """A tolerance flag gets the same check as the problem file's
    tolerances; before, --tol-transport -1 certified a NotMetric verdict
    for the RegularlyMetric half plane."""
    code, out, _ = _run(
        capsys, "metricity", str(PROBLEMS / "hyperbolic.json"), "--quiet", flag, value
    )
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [(flag, "value")]


@pytest.mark.parametrize(
    "flag, value", [("--grid", "0"), ("--grid", "2"), ("--max-order", "-1"), ("--seed", "-5")]
)
def test_out_of_range_integer_flag_is_rejected(capsys, flag, value):
    """Before, --grid 0 fell back to gridPerAxis and certified, --max-order
    -1 ran to exit 3, and --grid 2 and --seed -5 were rejected at $."""
    code, out, _ = _run(
        capsys, "metricity", str(PROBLEMS / "hyperbolic.json"), "--quiet", flag, value
    )
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [(flag, "value")]


def test_negative_file_seed_is_rejected(capsys, tmp_path):
    path = _write(tmp_path, "p.json", dict(BASE_PROBLEM, seed=-1))
    code, out, _ = _run(capsys, "metricity", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [("seed", "value")]


REJECTED_STRUCTURES = {
    "not-an-object": ([2, 1], "$", "type", "problem file must be a JSON object"),
    "domain-not-an-object": (
        dict(BASE_PROBLEM, domain=[-1.0, 1.0]),
        "domain",
        "type",
        "domain must be an object",
    ),
    "lower-not-below-upper": (
        dict(BASE_PROBLEM, domain={"lower": [-1.0, 1.0], "upper": [1.0, 1.0]}),
        "domain.lower[1]",
        "value",
        "need lower < upper",
    ),
    "missing-connection": (
        {k: v for k, v in BASE_PROBLEM.items() if k != "connection"},
        "connection",
        "missing",
        "connection array is required",
    ),
    "tolerances-not-an-object": (
        dict(BASE_PROBLEM, tolerances=[1e-7]),
        "tolerances",
        "type",
        "tolerances must be an object",
    ),
}


@pytest.mark.parametrize("command", ["metricity", "validate"])
@pytest.mark.parametrize("name", list(REJECTED_STRUCTURES))
def test_a_malformed_structure_is_rejected_at_its_key(capsys, tmp_path, name, command):
    problem, path, code, message = REJECTED_STRUCTURES[name]
    exit_code, out, _ = _run(capsys, command, _write(tmp_path, "p.json", problem), "--quiet")
    assert exit_code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {"path": path, "code": code, "message": message}
    ]


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("x1 $ 2", "unexpected character '$'", 3),
        ("x1 + .", "malformed number '.'", 5),
        ("x1 x2", "unexpected trailing input", 3),
    ],
)
def test_a_parse_error_is_named_with_its_offset(capsys, tmp_path, text, message, offset):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][1][0][1] = text
    code, out, _ = _run(capsys, "metricity", _write(tmp_path, "p.json", problem), "--quiet")
    assert code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {"path": "connection[1][0][1]", "code": "parse", "message": message, "offset": offset}
    ]


@pytest.mark.parametrize(
    "argv, path, code, message",
    [
        (["gauge-check", "PROBLEM"], "gauge", "missing", "gauge-check needs a gauge matrix"),
        (["alpha-scan", "--alphas=0"], "--family", "missing", "alpha-scan needs --family NAME"),
        (
            ["alpha-scan", "--family", "bernoulli", "--alphas=,"],
            "--alphas",
            "value",
            "need at least one alpha",
        ),
    ],
    ids=["gauge-check-without-gauge", "alpha-scan-without-family", "alpha-scan-no-alpha"],
)
def test_a_missing_command_input_is_named(capsys, tmp_path, argv, path, code, message):
    problem = _write(tmp_path, "p.json", BASE_PROBLEM)
    argv = [problem if arg == "PROBLEM" else arg for arg in argv]
    exit_code, out, err = _run(capsys, *argv)
    assert exit_code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {"path": path, "code": code, "message": message}
    ]
    assert err.splitlines()[1] == f"  [{code}] {path}: {message}"


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ["index", str(PROBLEMS / "hyperbolic.json")],
            [
                "metron index: exit 0",
                "  verdict=RegularlyMetric dimJ=2 dimS2=1 dimOmega2=1",
                "  sb=0 sb_given_g=0 ind=Zero",
            ],
        ),
        (
            ["solve-fe", str(PROBLEMS / "flat2x2.json")],
            ["metron solve-fe: exit 0", "  dim=4 residual=0.000e+00 stabilized=True"],
        ),
        (
            ["alpha-scan", "--family", "bernoulli", "--alphas", "1,-1"],
            [
                "metron alpha-scan: exit 0",
                "  alpha=-1: RegularlyMetric",
                "  alpha=1: RegularlyMetric",
                "  theorem4Consistent=True",
            ],
        ),
    ],
    ids=["index", "solve-fe", "alpha-scan"],
)
def test_the_summary_on_stderr(capsys, argv, lines):
    code, _, err = _run(capsys, *argv)
    assert code == 0
    assert err.splitlines() == lines


def _domain(**changes):
    return {"domain": dict(BASE_PROBLEM["domain"], **changes)}


def _zero_problem(dim, **domain):
    """The zero rank-1 connection on [-1, 1]^dim."""
    box = {"lower": [-1.0] * dim, "upper": [1.0] * dim, **domain}
    return {"dim": dim, "rank": 1, "domain": box, "connection": [[["0"]]] * dim}


OVERSIZED_GRIDS = {
    # (command line after the problem file, problem, diagnostic path, nodes)
    "file": (("metricity",), _zero_problem(5, gridPerAxis=9), "domain.gridPerAxis", "59,049"),
    "default": (("validate",), _zero_problem(9), "domain.gridPerAxis", "387,420,489"),
    "flag": (("index", "--grid", "150"), BASE_PROBLEM, "--grid", "22,500"),
    "flag-over-file": (
        ("metricity", "--grid", "4"),
        _zero_problem(9, gridPerAxis=3),
        "--grid",
        "262,144",
    ),
}


@pytest.mark.parametrize("name", list(OVERSIZED_GRIDS))
def test_an_oversized_grid_is_refused_before_evaluation(capsys, tmp_path, monkeypatch, name):
    """A grid of more than MAX_GRID_NODES nodes exits 2 at the field or
    flag that sets it, with its node count, and evaluates nothing.
    Before, the dim-5 file ran for 5 s and the dim-9 one without end."""
    (command, *flags), problem, path, count = OVERSIZED_GRIDS[name]

    def evaluated(*args):
        raise AssertionError("evaluated a coefficient")

    monkeypatch.setattr(cli.ex.Evaluator, "__call__", evaluated)
    code, out, _ = _run(capsys, command, _write(tmp_path, "p.json", problem), "--quiet", *flags)
    assert code == 2
    [diag] = json.loads(out)["result"]["diagnostics"]
    assert (diag["path"], diag["code"]) == (path, "value")
    assert f" {count} grid nodes" in diag["message"]


def test_the_largest_grids_are_allowed(capsys, tmp_path):
    """3^9 nodes keep dim 9 reachable: --grid 3 overrides the default 9
    per axis; 141^2 = 19,881 nodes at dim 2 pass too."""
    assert 3**9 <= cli.MAX_GRID_NODES < 142**2
    path = _write(tmp_path, "p.json", _zero_problem(9))
    code, _, _ = _run(capsys, "validate", path, "--quiet", "--grid", "3")
    assert code == 0
    assert cli.validate_problem(_zero_problem(2, gridPerAxis=141)) == []
    assert [d["path"] for d in cli.validate_problem(_zero_problem(2, gridPerAxis=142))] == [
        "domain.gridPerAxis"
    ]


def test_alpha_scan_refuses_an_oversized_grid(capsys):
    code, out, _ = _run(
        capsys, "alpha-scan", "--family", "gaussian1d", "--alphas=0", "--grid", "200"
    )
    assert code == 2
    [diag] = json.loads(out)["result"]["diagnostics"]
    assert (diag["path"], diag["code"]) == ("--grid", "value")
    assert " 40,000 grid nodes" in diag["message"]


NOT_NUMBERS = {
    "rank": ({"rank": True}, ("rank", "value")),
    "dim": ({"dim": True}, ("dim", "value")),
    "seed": ({"seed": True}, ("seed", "type")),
    "grid": (_domain(gridPerAxis=True), ("domain.gridPerAxis", "value")),
    "lower": (_domain(lower=[False, -1.0]), ("domain.lower", "shape")),
    "upper": (_domain(upper=[1.0, True]), ("domain.upper", "shape")),
    "kernel": ({"tolerances": {"kernel": True}}, ("tolerances.kernel", "value")),
    "infinite-upper": (_domain(upper=[1.0, "1e400"]), ("domain.upper", "shape")),
    "huge-upper": (_domain(upper=[1.0, "1" + "0" * 400]), ("domain.upper", "shape")),
    "huge-kernel": ({"tolerances": {"kernel": "1" + "0" * 400}}, ("tolerances.kernel", "value")),
}


@pytest.mark.parametrize("command", ["metricity", "validate"])
@pytest.mark.parametrize("name", list(NOT_NUMBERS))
def test_booleans_and_infinities_are_not_numbers(capsys, tmp_path, name, command):
    """JSON true and false are no integer or number, and 1e400 (read as
    inf) or an integer too large for a float is no bound or tolerance:
    each exits 2 at its own field. Before, rank true ended in a
    traceback, true and false were read as 1 and 0, an infinite bound
    passed validate, and a 400-digit integer was rejected at `$`."""
    changes, diagnostic = NOT_NUMBERS[name]
    text = re.sub(r'"(1e400|10{400})"', r"\1", json.dumps(dict(BASE_PROBLEM, **changes)))
    code, out, _ = _run(capsys, command, _write(tmp_path, "p.json", text), "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [diagnostic]


BOX = ((-1.0, -1.0), (1.0, 1.0))  # BASE_PROBLEM's domain
METRICITY = ("metricity", "p.json")
# Each refusal of a value that a library check decides: the command line
# (p.json is BASE_PROBLEM with the changes), the diagnostic's path, and
# the library call on the field that the path maps to
REFUSED_ALIKE = {
    "grid-flag": ((*METRICITY, "--grid", "2"), {}, "--grid", lambda: SolveOptions(grid_per_axis=2)),
    "grid-flag-nodes": (
        ("validate", "p.json", "--grid", "150"),
        {},
        "--grid",
        lambda: Grid(ChartDomain(*BOX), (150,) * 2),
    ),
    "alpha-scan-grid-nodes": (
        ("alpha-scan", "--family", "gaussian1d", "--alphas=0", "--grid", "200"),
        {},
        "--grid",
        lambda: Grid(get_family("gaussian1d").domain, (200,) * 2),
    ),
    "max-order-flag": (
        (*METRICITY, "--max-order", "-1"),
        {},
        "--max-order",
        lambda: SolveOptions(max_order=-1),
    ),
    "seed-flag": ((*METRICITY, "--seed", "-5"), {}, "--seed", lambda: SolveOptions(seed=-5)),
    "tol-kernel-flag": (
        (*METRICITY, "--tol-kernel", "0"),
        {},
        "--tol-kernel",
        lambda: SolveOptions(kernel_cutoff=0.0),
    ),
    "tol-transport-flag": (
        (*METRICITY, "--tol-transport", "nan"),
        {},
        "--tol-transport",
        lambda: SolveOptions(transport_tol=float("nan")),
    ),
    "seed": (METRICITY, {"seed": -1}, "seed", lambda: SolveOptions(seed=-1)),
    "seed-not-an-integer": (METRICITY, {"seed": 2.5}, "seed", lambda: SolveOptions(seed=2.5)),
    "kernel": (
        METRICITY,
        {"tolerances": {"kernel": True}},
        "tolerances.kernel",
        lambda: SolveOptions(kernel_cutoff=True),
    ),
    "transport": (
        ("validate", "p.json"),
        {"tolerances": {"transport": 0}},
        "tolerances.transport",
        lambda: SolveOptions(transport_tol=0),
    ),
    "huge-kernel": (
        METRICITY,
        {"tolerances": {"kernel": "1" + "0" * 400}},
        "tolerances.kernel",
        lambda: SolveOptions(kernel_cutoff=10**400),
    ),
    "dim": (METRICITY, {"dim": 10}, "dim", lambda: ChartDomain((0.0,) * 10, (1.0,) * 10)),
    "lower-not-below-upper": (
        METRICITY,
        _domain(lower=[-1.0, 1.0]),
        "domain.lower[1]",
        lambda: ChartDomain((-1.0, 1.0), (1.0, 1.0)),
    ),
    "infinite-upper": (
        ("validate", "p.json"),
        _domain(upper=[1.0, "1e400"]),
        "domain.upper",
        lambda: ChartDomain((-1.0, -1.0), (1.0, float("inf"))),
    ),
    "boolean-lower": (
        METRICITY,
        _domain(lower=[-1.0, False]),
        "domain.lower",
        lambda: ChartDomain((-1.0, False), (1.0, 1.0)),
    ),
    "grid-per-axis": (
        METRICITY,
        _domain(gridPerAxis=2),
        "domain.gridPerAxis",
        lambda: SolveOptions(grid_per_axis=2),
    ),
    "grid-nodes": (
        ("validate", "p.json"),
        _domain(gridPerAxis=142),
        "domain.gridPerAxis",
        lambda: Grid(ChartDomain(*BOX), (142,) * 2),
    ),
    "unknown-variable": (
        ("validate", "p.json"),
        {"connection": [[["0", "0"], ["0", "0"]], [["0", "x1 + x3"], ["0", "0"]]]},
        "connection[1][0][1]",
        lambda: Connection(ChartDomain(*BOX), 1, [[["x3"]], [["0"]]]),
    ),
    "alphas-nan": (
        ("alpha-scan", "--family", "gaussian1d", "--alphas=nan"),
        {},
        "--alphas",
        lambda: alpha_scan(get_family("gaussian1d"), [float("nan")]),
    ),
    "alphas-infinite": (
        ("alpha-scan", "--family", "gaussian1d", "--alphas=-1e400"),
        {},
        "--alphas",
        lambda: alpha_scan(get_family("gaussian1d"), [-math.inf]),
    ),
}


@pytest.mark.parametrize("name", list(REFUSED_ALIKE))
def test_the_cli_and_the_library_refuse_alike(capsys, tmp_path, monkeypatch, name):
    """Each rule about a value is one library check: the CLI reports its
    refusal at the flag or JSON path, with the message that the library
    raises for the field that the path maps to."""
    argv, changes, path, library_call = REFUSED_ALIKE[name]
    monkeypatch.chdir(tmp_path)
    text = re.sub(r'"(1e400|10{400})"', r"\1", json.dumps(dict(BASE_PROBLEM, **changes)))
    _write(tmp_path, "p.json", text)
    code, out, _ = _run(capsys, *argv, "--quiet")
    assert code == 2
    [diag] = json.loads(out)["result"]["diagnostics"]
    with pytest.raises(ValueError) as refusal:
        library_call()
    assert (diag["path"], diag["message"]) == (path, str(refusal.value))


@pytest.mark.parametrize(
    "payload, path, code",
    [
        (None, "missing.json", "io"),
        ("[[1, 2", "metrics.json", "json"),
        ({"metric": [["1", "0"], ["0", "1"]]}, "--metric-family", "type"),
        ([[["x1+", "0"], ["0", "1"]]], "--metric-family[0][0][0]", "parse"),
        ([[["1", "0"], ["0", 1]]], "--metric-family[0][1][1]", "type"),
        ([[["1", "0"]]], "--metric-family[0]", "shape"),
        ([[["1", "0"], ["0", "x3"]]], "--metric-family[0][1][1]", "unknown-variable"),
        ([[["1", "0"], ["0", "1"]], [["1", "0.2"], ["0", "1"]]], "--metric-family[1]", "value"),
        ([[["1", "0"], ["0", "1/(x1-x1)"]]], "--metric-family[0][1][1]", "error"),
        (b"\xff\xfe[", "metrics.json", "json"),
    ],
    ids=[
        "missing",
        "malformed",
        "not-a-list",
        "parse",
        "bare-number",
        "shape",
        "unknown-variable",
        "asymmetric",
        "pole",
        "not-utf-8",
    ],
)
def test_bad_metric_family_file_is_rejected(capsys, tmp_path, monkeypatch, payload, path, code):
    """Each entry follows the problem file's `metric` rules; before, a
    missing file or a parse error was a traceback with exit 1."""
    monkeypatch.chdir(tmp_path)
    problem = _write(tmp_path, "p.json", BASE_PROBLEM)
    if payload is not None:
        _write(tmp_path, "metrics.json", payload)
    family = "missing.json" if payload is None else "metrics.json"
    exit_code, out, _ = _run(
        capsys, "index", problem, "--quiet", "--grid", "5", "--metric-family", family
    )
    assert exit_code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [(path, code)]


@pytest.mark.parametrize(
    "family, alphas, path",
    [
        ("exponential", "abc", "--alphas"),
        ("exponential", "nan", "--alphas"),
        ("exponential", "inf", "--alphas"),
        ("exponential", "1e400", "--alphas"),
        ("nope", "0", "--family"),
    ],
    ids=["not-a-number", "nan", "inf", "overflowing", "unknown-family"],
)
def test_bad_alpha_scan_flag_is_rejected_at_the_flag(capsys, family, alphas, path):
    """Before, these were rejected at $, and an infinite alpha exited 3
    with an internal linear algebra failure. The message names the alpha
    as read: the text if it is no number, else the float."""
    code, out, _ = _run(capsys, "alpha-scan", "--family", family, "--alphas", alphas, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [(path, "value")]
    if path == "--alphas":
        try:
            read = float(alphas)
        except ValueError:
            read = alphas
        assert diags[0]["message"] == f"alpha {read!r} is not a finite number"


def test_linear_algebra_failure_is_internal_not_rejected_input(capsys, monkeypatch):
    """np.linalg.LinAlgError subclasses ValueError; it is a failure of
    the analysis, so exit 3, not the exit 2 of rejected input."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, out, _ = _run(capsys, "metricity", str(PROBLEMS / "hyperbolic.json"), "--quiet")
    assert code == 3
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [("$", "internal")]
    assert "SVD did not converge" in diags[0]["message"]


@pytest.mark.parametrize(
    "family, alphas, code, diagnostic",
    [
        ("bernoulli", "1e4", 3, "internal"),
        ("bernoulli", "-1,0,1e4", 3, "internal"),
        ("bernoulli", "1e300", 3, "internal"),
        ("poisson", "1e300", 3, "internal"),
        ("exponential", "1e300", 3, "internal"),
        ("gaussian1d", "1e300", 2, "error"),
    ],
)
def test_overflowing_transport_is_never_certified(capsys, family, alphas, code, diagnostic):
    """A huge alpha drives the transport out of the floating-point range.
    bernoulli used to report a certified SingularMetricOnly (a rank-1
    structure on a 1-d chart is RegularlyMetric, q = exp(2 int Gamma)),
    poisson and exponential an SVD that did not converge. The gaussian
    coefficients overflow before any transport, so that input is
    rejected as a domain failure. Either message names the alpha that
    failed, the largest, also among alphas that pass."""
    failed = f"{max(float(a) for a in alphas.split(',')):g}"
    argv = ("alpha-scan", "--family", family, f"--alphas={alphas}", "--quiet")
    exit_code, out, _ = _run(capsys, *argv)
    assert exit_code == code
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [("$", diagnostic)]
    if code == 3:
        assert diags[0]["message"] == f"alpha {failed}: transport left the floating-point range"
    else:
        assert diags[0]["message"].startswith(f"alpha {failed}: prolongation order 0 overflows")


def test_tree_transport_overflow_is_named(capsys, recwarn):
    """At alpha 1000 every gaussian edge operator is finite, but their
    products along the spanning tree are not: the run exits 3 with the
    one overflow diagnostic, not an SVD that did not converge, and
    numpy warns about nothing."""
    argv = ("alpha-scan", "--family", "gaussian1d", "--alphas", "1000", "--quiet")
    exit_code, out, err = _run(capsys, *argv)
    assert exit_code == 3
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"], d["message"]) for d in diags] == [
        ("$", "internal", "alpha 1000: transport left the floating-point range")
    ]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert "Warning" not in err


@pytest.mark.parametrize("family", ["exponential", "poisson"])
def test_tiny_determinant_full_rank_witness_is_certified(capsys, family):
    """At alpha 30 and 100 the one parallel form of a 1-d family reads
    below 1e-8 at one end of the chart, but it has rank 1 at every node:
    RegularlyMetric, certified, exit 0 (it exited 3, uncertified)."""
    argv = ("alpha-scan", "--family", family, "--alphas", "30,100", "--quiet")
    exit_code, out, _ = _run(capsys, *argv)
    assert exit_code == 0
    certs = [p["certificate"] for p in json.loads(out)["result"]["perAlpha"]]
    assert [(c["verdict"], c["certified"]) for c in certs] == [("RegularlyMetric", True)] * 2
    assert min(c["witness"]["minAbsDetOnGrid"] for c in certs) < 1e-8


def _gaussian_problem(alpha):
    """A problem file holding alpha_connection(gaussian1d, alpha) on the
    family's own chart and grid."""
    from metron import expr as ex
    from metron.statmodels import alpha_connection, get_family

    conn = alpha_connection(get_family("gaussian1d"), alpha)
    return {
        "dim": conn.domain.m,
        "rank": conn.r,
        "domain": {
            "lower": list(conn.domain.lower),
            "upper": list(conn.domain.upper),
            "gridPerAxis": conn.domain.samples_per_axis[0],
        },
        "connection": [[[ex.to_string(e) for e in row] for row in g] for g in conn.gamma],
    }


def test_under_resolved_transport_exits_3(capsys, tmp_path):
    """The flat e-connection (alpha = +1) at the default 32 RK4 steps: the
    rejected directions shrink about 16x at 64 steps, so metricity and
    solve-fe exit 3 with the flag instead of a certified wrong answer.
    The m-connection (alpha = -1) is unchanged."""
    plus = _write(tmp_path, "plus.json", _gaussian_problem(1.0))
    for command in ("metricity", "solve-fe"):
        code, out, _ = _run(capsys, command, plus, "--quiet")
        result = json.loads(out)["result"]
        section = result.get("certificate") or result["solutionSpace"]
        assert code == 3
        assert "transport-under-resolved" in section["flags"]
    minus = _write(tmp_path, "minus.json", _gaussian_problem(-1.0))
    code, out, _ = _run(capsys, "metricity", minus, "--quiet")
    cert = json.loads(out)["result"]["certificate"]
    assert code == 0
    assert (cert["verdict"], cert["dimS2"], cert["flags"]) == ("RegularlyMetric", 3, [])


def test_analyses_never_import_numpy_random():
    """The candidate search uses a closed-form sequence, so a fresh
    interpreter running metricity, index, solve-fe and alpha-scan never
    loads numpy.random."""
    script = (
        "import sys\n"
        "from metron import cli\n"
        "for argv in (\n"
        "    ['metricity', 'problems/hyperbolic.json'],\n"
        "    ['index', 'problems/nilpotent.json'],\n"
        "    ['solve-fe', 'problems/flat2x2.json'],\n"
        "    ['alpha-scan', '--family', 'gaussian1d', '--alphas=-1,0,1'],\n"
        "):\n"
        "    assert cli.run_command(cli.build_parser().parse_args(argv))[1] == 0, argv\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_every_benchmark_span_finds_its_function():
    """The benchmark's recorder wraps metron functions by name; a name
    the package no longer has would read 0 in its per-layer metrics."""
    script = (
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import spans\n"
        "rec = spans.Recorder()\n"
        "spans.install(rec)\n"
        "print(rec.missing)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_demo_script_prints_the_three_verdicts():
    """scripts/demo_metricity.py walks the public API end to end."""
    done = _python("scripts/demo_metricity.py")
    assert done.returncode == 0, done.stderr
    verdicts = [line.split()[-1] for line in done.stdout.splitlines() if "verdict" in line]
    assert verdicts == ["RegularlyMetric", "SingularMetricOnly", "RegularlyMetric"]


def test_every_export_resolves():
    """Each name in a module's `__all__` is bound in it, and each public
    name the package binds is exported by the module that defines it, so
    a deletion leaves no stale export; the test fixtures are no module
    of metron."""
    import importlib
    import pkgutil

    import metron

    names = [info.name for info in pkgutil.iter_modules(metron.__path__)]
    assert "corpus" not in names
    modules = [importlib.import_module(f"metron.{name}") for name in names]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    unexported = [
        name
        for name, value in vars(metron).items()
        if not name.startswith("_")
        and hasattr(value, "__module__")
        and name not in importlib.import_module(value.__module__).__all__
    ]
    assert (stale, unexported) == ([], [])


def test_metron_defines_no_dataclass():
    """The classes metron defines are plain classes, so importing it
    generates no methods; SolveOptions derives variants with replace()."""
    import dataclasses
    import importlib
    import pkgutil

    import metron

    modules = [
        importlib.import_module(f"metron.{info.name}")
        for info in pkgutil.iter_modules(metron.__path__)
    ]
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
    ]
    assert found == []


def test_importing_the_cli_loads_no_dataclasses():
    """A fresh interpreter that imports metron.cli, and so every module
    of metron, never loads dataclasses (neither numpy nor the standard
    modules metron reads import it)."""
    probe = "import sys, metron.cli; print(sorted(set(sys.modules) & {'dataclasses'}))"
    done = _python("-c", probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_metron_imports_only_the_stdlib_and_numpy():
    """numpy is the one runtime dependency in pyproject.toml. scipy and
    hypothesis are test extras, so an import of either under src/ would
    pass every test here and still break a plain install. Imports inside
    functions count too; relative imports are metron's own."""
    import ast

    allowed = set(sys.stdlib_module_names) | {"numpy", "metron"}
    stray = []
    for path in sorted((REPO / "src" / "metron").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert stray == []


def test_timings_are_reported_only_with_a_result(capsys, tmp_path, monkeypatch):
    """--timings fills timingMs for an analysis and for validate, its
    diagnostics included, and leaves it 0 on every error path."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "p.json", BASE_PROBLEM)
    _write(tmp_path, "asymmetric.json", dict(BASE_PROBLEM, metric=[["1", "0.2"], ["0", "1"]]))
    _write(tmp_path, "pole.json", _with_entry("1/(x1-x1)"))
    runs = {
        ("metricity", "p.json"): (0, 1500),
        ("validate", "asymmetric.json"): (2, 1500),
        ("metricity", "p.json", "--grid", "2"): (2, 0),
        ("metricity", "pole.json"): (2, 0),
        ("alpha-scan", "--family", "bernoulli", "--alphas", "1e4"): (3, 0),
    }
    for argv, expected in runs.items():
        ticks = iter(np.arange(100) * 1.5)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(ticks)))
        code, out, _ = _run(capsys, *argv, "--quiet", "--timings")
        assert (code, json.loads(out)["timingMs"]) == expected, argv

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, out, _ = _run(capsys, "metricity", "p.json", "--quiet", "--timings")
    assert (code, json.loads(out)["timingMs"]) == (3, 0)


def test_non_finite_file_tolerance_is_rejected(capsys, tmp_path):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["tolerances"] = {"transport": float("nan")}
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "validate", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [("tolerances.transport", "value")]


def test_substitution_tolerance_is_an_unknown_key(capsys, tmp_path):
    """No check reads a direct-substitution residual, so the key is
    rejected like any other unknown override, and the profile echoes only
    the gates that run; before, it was accepted and echoed."""
    path = _write(tmp_path, "p.json", dict(BASE_PROBLEM, tolerances={"substitution": 1e-6}))
    code, out, _ = _run(capsys, "metricity", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [("tolerances.substitution", "unknown-key")]
    code, out, _ = _run(capsys, "metricity", _write(tmp_path, "q.json", BASE_PROBLEM), "--quiet")
    assert code == 0
    assert sorted(json.loads(out)["result"]["certificate"]["toleranceProfile"]) == [
        "kernelCutoff",
        "metricConditionMax",
        "metricRegularDet",
        "rankRelCutoff",
        "transportResidual",
    ]


def _with_entry(text):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][0][0][0] = text
    return problem


def _nested_key(levels):
    node = {}
    for _ in range(levels):
        node = {"k": node}
    return node


DEEP_INPUTS = {
    # Gamma_1[0][0] = sum of 1000 terms in x1, a tree 1000 deep. At the
    # default 32 RK4 steps the transport gate rejects a direction whose
    # residual (3.4e-7 against 1e-7) shrinks 32x at 64 steps: truncation,
    # not holonomy, so the analyses exit 3 (flagged), validate exits 0
    "deep-sum": (
        _with_entry(" + ".join(f"x1/{k}" for k in range(1, 1001))),
        {"metricity": 3, "index": 3, "validate": 0},
        [],
    ),
    "deep-parentheses": (
        _with_entry("(" * 250 + "x1" + ")" * 250), 2, [("connection[0][0][0]", "parse")]
    ),
    "unary-minus-chain": (_with_entry("-" * 251 + "x1"), 2, [("connection[0][0][0]", "parse")]),
    "overflowing-literal": (_with_entry("1e999*x1"), 2, [("connection[0][0][0]", "parse")]),
    "superscript-digit": (_with_entry("x\u00b2"), 2, [("connection[0][0][0]", "parse")]),
    "deep-unknown-key": (dict(BASE_PROBLEM, extra=_nested_key(600)), 2, [("p.json", "json")]),
    "deep-array": ("[" * 5000 + "]" * 5000, 2, [("p.json", "json")]),
    "asymmetric-metric": (
        dict(BASE_PROBLEM, metric=[["1", "0.2"], ["0", "1"]]), 2, [("metric", "value")]
    ),
    "null-seed": (dict(BASE_PROBLEM, seed=None), 0, []),
    "not-utf-8": (b"\xff\xfe{", 2, [("p.json", "json")]),
    # more digits than Python's int() converts (4,300 by default)
    "overlong-integer": (
        json.dumps(BASE_PROBLEM).replace('"seed": 3', '"seed": ' + "1" * 5001),
        2,
        [("p.json", "json")],
    ),
}


@pytest.mark.parametrize("command", ["metricity", "index", "validate"])
@pytest.mark.parametrize("name", list(DEEP_INPUTS))
def test_no_input_exits_1(capsys, tmp_path, monkeypatch, name, command):
    """Inputs that used to end in a traceback (exit 1) or a diagnostic at
    `$` exit 0, 2 or 3 with the diagnostic at the offending entry."""
    payload, code, diagnostics = DEEP_INPUTS[name]
    code = code if isinstance(code, int) else code[command]
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "p.json", payload)
    exit_code, out, _ = _run(capsys, command, "p.json", "--quiet")
    assert exit_code == code
    result = json.loads(out)["result"]
    found = result.get("diagnostics", [])
    assert [(d["path"], d["code"]) for d in found] == diagnostics
    if code == 3:
        assert "transport-under-resolved" in result["certificate"]["flags"]
    assert all("np." not in d["message"] for d in found)


@pytest.mark.parametrize("text", ["1e300*1e300*x1", "x1*1e300*1e300"])
def test_overflowing_constant_product_is_named(capsys, tmp_path, monkeypatch, text):
    """A product of constants that overflows, in an entry or only in its
    derivatives, exits 2 at the entry naming the product and a point,
    not with a NaN or infinite constant that fails far from it. An
    overflowing derivative is named by the entry's subtree whose series
    overflows."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "p.json", _with_entry(text))
    code, out, _ = _run(capsys, "metricity", "p.json", "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [("connection[0][0][0]", "error")]
    named = {
        "1e300*1e300*x1": "non-finite value in '1e+300*1e+300' at (",
        "x1*1e300*1e300": "needs a derivative that is not finite in 'x1*1e+300*1e+300' at (",
    }[text]
    assert named in diags[0]["message"]


def test_singular_derivative_is_named_at_its_entry(capsys, tmp_path, monkeypatch):
    """A derivative that does not exist at the base point (sqrt at 0)
    exits 2 at the entry, naming the entry's subtree whose derivative it
    is, the prolongation order and the point as plain floats."""
    monkeypatch.chdir(tmp_path)
    connection = [[["0"]], [["x2*x2 + 3*sqrt(x1^2)*exp(x2)"]]]
    _write(tmp_path, "p.json", dict(BASE_PROBLEM, rank=1, connection=connection))
    code, out, _ = _run(capsys, "metricity", "p.json", "--quiet")
    assert code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {
            "path": "connection[1][0][0]",
            "code": "error",
            "message": "prolongation order 0 needs a derivative that is not finite"
            " in 'sqrt(x1^2)' at (0.0, 0.0)",
        }
    ]


@pytest.mark.parametrize("gauge", [None, [["1"]]], ids=["curvature", "gauge-check"])
def test_a_derivative_failure_is_named_at_its_entry(capsys, tmp_path, monkeypatch, gauge):
    """`curvature` and `gauge-check` evaluate the derivative trees that
    `curvature` built: a failure in one is named at the entry whose
    derivative it is, with the same message, as `metricity` names it.
    Before, it was named at `$`."""
    monkeypatch.chdir(tmp_path)
    problem = dict(BASE_PROBLEM, rank=1, connection=[[["0"]], [["sqrt(x1^2)"]]])
    problem["domain"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    if gauge:
        problem["gauge"] = gauge
    _write(tmp_path, "p.json", problem)
    command = "gauge-check" if gauge else "curvature"
    code, out, _ = _run(capsys, command, "p.json", "--quiet")
    assert code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {
            "path": "connection[1][0][0]",
            "code": "error",
            "message": "division by zero in '2*x1/(2*sqrt(x1^2))' at (0.0, -0.8)",
        }
    ]


def test_a_derived_failure_is_named_whatever_ran_before(tmp_path):
    """`curvature` on Gamma_1 = 2*sqrt(x1^2), Gamma_2 = sqrt(x1^2) + x2
    divides by zero in d_1 Gamma_2 at x1 = 0. Gamma_1 mentions x1 and its
    x1 derivative holds the same subtree, so the failure is named at
    Gamma_1, the first such entry: in a fresh process, after `curvature`
    on Gamma_2 = 2*sqrt(x1^2), and after differentiating that entry.
    Before, the name depended on which derivatives the process had
    built."""
    problem = dict(BASE_PROBLEM, rank=1)
    problems = {
        name: _write(tmp_path, f"{name}.json", dict(problem, connection=connection))
        for name, connection in (
            ("p3", [[["2*sqrt(x1^2)"]], [["sqrt(x1^2) + x2"]]]),
            ("p4", [[["0"]], [["2*sqrt(x1^2)"]]]),
        )
    }

    def diagnostics(report):
        return report["result"]["diagnostics"]

    def curvature(name):
        report, code = cli.run_command(cli.build_parser().parse_args(["curvature", problems[name]]))
        assert code == 2
        return diagnostics(report)

    fresh = _python("-m", "metron.cli", "curvature", problems["p3"], "--quiet")
    assert fresh.returncode == 2
    named = diagnostics(json.loads(fresh.stdout))
    assert [d["path"] for d in named] == ["connection[0][0][0]"]
    curvature("p4")
    assert curvature("p3") == named
    ex.differentiate(ex.parse("2*sqrt(x1^2)"), 1)
    assert curvature("p3") == named


@pytest.mark.parametrize("command", ["metricity", "index", "solve-fe"])
def test_a_prolongation_overflow_is_named_at_its_entry(capsys, tmp_path, monkeypatch, command):
    """Every entry is finite on the grid, but order 0 multiplies two of
    them past the floating-point range: the failure is named at the entry
    with the largest coefficient. Before, it was named at `$`."""
    monkeypatch.chdir(tmp_path)
    problem = dict(
        BASE_PROBLEM,
        connection=[[["0", "1e200*x2"], ["0", "0"]], [["0", "0"], ["1e200*x1", "0"]]],
    )
    problem["domain"] = {"lower": [0.5, 0.5], "upper": [1.0, 1.0], "gridPerAxis": 5}
    _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, command, "p.json", "--quiet")
    assert code == 2
    assert json.loads(out)["result"]["diagnostics"] == [
        {
            "path": "connection[0][0][1]",
            "code": "error",
            "message": "prolongation order 0 overflows in '1e+200*x2' at (0.75, 0.75)",
        }
    ]


LOCATED_FAILURES = {
    # the first entry in file order holding the failing subtree is named
    "connection": (
        {"connection": [[["0", "0"], ["sqrt(x1-0.9)", "0"]], [["sqrt(x1-0.9)", "0"], ["0", "0"]]]},
        "connection[0][1][0]",
    ),
    "metric-pole": ({"metric": [["1/(x1-x1)", "0"], ["0", "1"]]}, "metric[0][0]"),
    "dual-connection": (
        {"dualConnection": [[["0", "0"], ["0", "0"]], [["0", "log(x2-2)"], ["0", "0"]]]},
        "dualConnection[1][0][1]",
    ),
    "gauge": ({"gauge": [["1", "0"], ["0", "1/(x2-x2)"]]}, "gauge[1][1]"),
}


@pytest.mark.parametrize("command", ["metricity", "validate"])
@pytest.mark.parametrize("name", list(LOCATED_FAILURES))
def test_domain_failure_is_located_at_its_entry(capsys, tmp_path, monkeypatch, name, command):
    """A subtree that leaves its domain is reported at the first entry,
    in file order, that contains it. `validate` evaluates every entry on
    the grid; the analysis commands evaluate what they read (`metricity`
    reads no gauge or dual connection)."""
    changes, path = LOCATED_FAILURES[name]
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "p.json", dict(BASE_PROBLEM, **changes))
    code, out, _ = _run(capsys, command, "p.json", "--quiet")
    found = json.loads(out)["result"].get("diagnostics", [])
    if command == "metricity" and name in ("dual-connection", "gauge"):
        assert (code, found) == (0, [])
        return
    assert code == 2
    assert [(d["path"], d["code"]) for d in found] == [(path, "error")]
    assert " at (" in found[0]["message"]


def test_malformed_json_exit_2_with_location(capsys, tmp_path):
    path = _write(tmp_path, "bad.json", '{"dim": 2,,}')
    code, out, _ = _run(capsys, "metricity", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert any("line 1" in d["message"] and "column" in d["message"] for d in diags)


def test_expression_parse_error_offset(capsys, tmp_path):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][0][0][0] = "x1 + "
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "metricity", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert any(d["code"] == "parse" and d.get("offset") == 5 for d in diags)


def test_missing_problem_argument(capsys):
    code, out, _ = _run(capsys, "metricity", "--quiet")
    assert code == 2


def test_singularity_inside_domain_exits_2(capsys, tmp_path):
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][0][0][0] = "1/x1"  # pole at the centre node
    problem["domain"]["gridPerAxis"] = 9
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "metricity", path, "--quiet")
    assert code == 2
    diags = json.loads(out)["result"]["diagnostics"]
    assert any("division by zero" in d["message"] for d in diags)


@pytest.mark.parametrize("entry", ["1/x1", "exp(-1/x1^2)"])
def test_pole_at_a_runge_kutta_node_is_named(capsys, tmp_path, entry):
    """With 8 nodes per axis no grid node has x1 = 0, but the midpoint of
    the edges across x1 = 0 is a Runge-Kutta node: the diagnostic names
    the failing subtree, not only the arithmetic exception. In
    exp(-1/x1^2) only an intermediate value leaves the reals; the
    coefficient itself would come out finite (0)."""
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][0][0][0] = entry
    problem["domain"]["gridPerAxis"] = 8
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "metricity", path, "--quiet")
    assert code == 2
    messages = [d["message"] for d in json.loads(out)["result"]["diagnostics"]]
    assert any("division by zero" in m and "1/x1" in m for m in messages), messages


@pytest.mark.parametrize(
    "entry, subtree",
    [("sqrt(x1-0.99)", "sqrt(x1 - 0.99)"), ("1/exp(800*(1-x1))", "exp(800*(1 - x1))")],
)
def test_pole_at_the_base_point_is_named(capsys, tmp_path, entry, subtree):
    """The prolongation evaluates its constraints at the base point; a
    domain error there names the failing subtree and the point."""
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"][0][0][0] = entry
    problem["domain"]["gridPerAxis"] = 8
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "metricity", path, "--quiet")
    assert code == 2
    messages = [d["message"] for d in json.loads(out)["result"]["diagnostics"]]
    assert any(f"'{subtree}' at (" in m for m in messages), messages


def test_uncertified_result_exits_3(capsys, tmp_path):
    """Starving the prolongation of orders leaves the kernel unstabilised;
    the analysis must flag itself and exit 3."""
    problem = json.loads(json.dumps(BASE_PROBLEM))
    problem["connection"] = [
        [["0.2*x2", "0.3*x1"], ["0.1*x1*x1", "0"]],
        [["0", "0.4*x2*x2"], ["0.2 + 0.1*x1", "0.3*x2"]],
    ]
    path = _write(tmp_path, "p.json", problem)
    code, out, _ = _run(capsys, "metricity", path, "--quiet", "--max-order", "0")
    report = json.loads(out)
    if code == 3:
        assert report["result"]["certificate"]["stabilized"] is False
    else:
        # if the kernel is already empty at order zero the verdict is certified
        assert code == 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeated_runs_byte_identical(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = _run(
            capsys,
            "metricity",
            str(PROBLEMS / "nilpotent.json"),
            "--quiet",
            "--seed",
            "11",
            "--out",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("out", ["missing-dir/r.json", "."], ids=["missing-dir", "directory"])
def test_an_out_path_that_cannot_be_written_is_refused(capsys, tmp_path, monkeypatch, out):
    """A missing directory or a directory is refused at --out before the
    analysis runs, not raised from `main` (exit 1); the report goes to
    stdout."""
    monkeypatch.chdir(tmp_path)
    code, stdout, err = _run(capsys, "metricity", str(PROBLEMS / "flat2x2.json"), "--out", out)
    assert code == 2
    diags = json.loads(stdout)["result"]["diagnostics"]
    assert [(d["path"], d["code"]) for d in diags] == [("--out", "io")]
    assert "[io] --out: " in err
    assert not (tmp_path / "missing-dir").exists()


def test_out_may_name_the_problem_file(capsys, tmp_path):
    """The problem is read before --out's file is rewritten, and a
    longer file left there is replaced whole."""
    path = _write(tmp_path, "p.json", dict(BASE_PROBLEM, note="x" * 10_000))
    code, _, _ = _run(capsys, "validate", path, "--quiet", "--out", path)
    assert code == 0
    assert json.loads(Path(path).read_text())["result"] == {"diagnostics": []}


def test_problem_hash_tracks_semantics(capsys, tmp_path):
    base = json.loads(json.dumps(BASE_PROBLEM))
    p1 = _write(tmp_path, "a.json", base)
    # same semantics, different whitespace
    p2 = _write(tmp_path, "b.json", json.dumps(base, indent=4))
    changed = json.loads(json.dumps(base))
    changed["seed"] = 4
    p3 = _write(tmp_path, "c.json", changed)
    hashes = []
    for p in (p1, p2, p3):
        _, out, _ = _run(capsys, "validate", p, "--quiet")
        hashes.append(json.loads(out)["problemEcho"]["sha256"])
    assert hashes[0] == hashes[1]
    assert hashes[0] != hashes[2]


def test_canonical_json_float_formats():
    text = cli.canonical_json({"a": 0.1, "b": cli._F(0.1, 12), "c": 1.0})
    assert '"a": 0.10000000000000001' in text
    assert '"b": 0.1' in text
    assert '"c": 1' in text
    # output parses back as standard JSON
    parsed = json.loads(text)
    assert parsed["a"] == 0.1
