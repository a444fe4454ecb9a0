"""Batch front door: read problem files, dispatch analyses, emit
deterministic JSON reports plus a human summary on stderr.

Exit codes separate three situations that CI pipelines must tell apart:

    0   the analysis ran and is certified (a NotMetric verdict is a
        successful analysis, not an error)
    2   the input was rejected (malformed JSON, bad shapes, expression
        parse errors); diagnostics name the offending field
    3   the analysis ran but is not certified (kernel stabilisation not
        reached, a residual gate failed, or transport was under-resolved),
        or it failed inside its linear algebra (diagnostic code "internal")

Reports are byte-identical across runs for a fixed problem file and
seed: floats are serialised with 17 significant digits, keys are sorted,
and the timing field is zero unless --timings is passed explicitly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .bundle import (
    CONDITION_CEILING,
    DET_REGULARITY_FLOOR,
    IRREGULAR_METRIC,
    MAX_INVERSE_RANK,
    RANK_REL_CUTOFF,
    ChartDomain,
    Connection,
    GaugeTransform,
    MetricField,
    apply_gauge,
    curvature,
    dual_connection,
    dual_gauge_compatibility_residual,
    identity_metric,
    inverse_mat,
)
from .homsolver import UNDER_RESOLVED, Prolongation, SolveOptions, solve_hom
from .metricity import decide_metricity, index_report
from .statmodels import ALPHA_SCAN_OPTIONS, alpha_scan, get_family

__all__ = ["main", "run_command", "validate_problem", "canonical_json"]

TOLERANCE_MESSAGE = "tolerance must be positive and finite"
# arrays and objects inside one another: a problem file's connection
# (object > dim > rank > rank) is the deepest part of either input format
MAX_JSON_DEPTH = 4
DEFAULT_GRID_PER_AXIS = 9
# An analysis builds every node of the sample grid, per_axis^dim of them,
# and transports along each edge; 3^9 = 19,683 keeps dim 9 reachable
MAX_GRID_NODES = 20_000

COMMANDS = (
    "dual",
    "curvature",
    "solve-fe",
    "metricity",
    "index",
    "alpha-scan",
    "gauge-check",
    "validate",
)


class _F:
    """Float carrying its own significant-digit count for serialisation."""

    __slots__ = ("value", "digits")

    def __init__(self, value: float, digits: int = 12):
        self.value = float(value)
        self.digits = digits


def _format_float(v: float, digits: int = 17) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        return "null"
    text = format(v, f".{digits}g")
    return text


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    pad = " " * indent
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, _F):
        return _format_float(obj.value, obj.digits)
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(
                f"{pad}  {_json_string(str(key))}: {canonical_json(obj[key], indent + 2)}"
            )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _matrix_12(matrix: np.ndarray) -> list:
    return [[_F(float(v), 12) for v in row] for row in np.asarray(matrix)]


# ---------------------------------------------------------------------------
# Problem file loading and validation
# ---------------------------------------------------------------------------


def _diag(path: str, code: str, message: str, offset: int | None = None) -> dict:
    d = {"path": path, "code": code, "message": message}
    if offset is not None:
        d["offset"] = offset
    return d


def _parse_array(value, dims: tuple[int, ...], path: str, problems: list, entries: list):
    """value read as an array of expression strings of shape dims, each
    string parsed; (path, expression or ParseError) of each leaf goes to
    entries and the diagnostic of a wrong length or type to problems,
    both in walk order."""
    if not dims:
        if not isinstance(value, str):
            got = type(value).__name__
            problems.append(_diag(path, "type", f"expected an expression string, got {got}"))
            return None
        try:
            tree = ex.parse(value)
        except ex.ParseError as err:
            tree = err
        entries.append((path, tree))
        return tree
    if not isinstance(value, list) or len(value) != dims[0]:
        got = len(value) if isinstance(value, list) else type(value).__name__
        problems.append(_diag(path, "shape", f"expected a list of length {dims[0]}, got {got}"))
        return None
    return [
        _parse_array(item, dims[1:], f"{path}[{idx}]", problems, entries)
        for idx, item in enumerate(value)
    ]


def _expression_array(value, dims: tuple[int, ...], dim: int, path: str, diagnostics: list):
    """The parsed array and its (path, expression) entries, from one walk
    of value; None after appending to diagnostics the array's shape
    errors, or if it has none, its parse and unknown-variable errors."""
    problems: list = []
    entries: list = []
    tree = _parse_array(value, dims, path, problems, entries)
    if not problems:
        for leaf, e in entries:
            if isinstance(e, ex.ParseError):
                problems.append(_diag(leaf, "parse", e.message, e.offset))
            elif bad := ex.beyond(e, dim):
                message = f"expression uses x{bad} but the problem has dim {dim}"
                problems.append(_diag(leaf, "unknown-variable", message))
    diagnostics += problems
    return None if problems else (tree, entries)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is an int


def _is_finite(value) -> bool:
    """Whether value is a number that a float holds finitely (JSON true
    is an int, 1e400 reads as inf and a 400-digit integer overflows)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and -sys.float_info.max <= value <= sys.float_info.max


def _is_tolerance(value) -> bool:
    return _is_finite(value) and value > 0


def validate_problem(data) -> list[dict]:
    """Structural and expression diagnostics, without running analyses."""
    return _validate(data)[0]


def _oversized_grid(path: str, per_axis: int, dim: int) -> list[dict]:
    """The diagnostic of a grid with more than MAX_GRID_NODES nodes, at
    path; none for a smaller one."""
    nodes = per_axis**dim
    if nodes <= MAX_GRID_NODES:
        return []
    count = f"{nodes:,}" if nodes < 10**18 else f"about 10^{dim * math.log10(per_axis):.0f}"
    message = f"{per_axis} nodes per axis at dim {dim} make {count} grid nodes"
    return [_diag(path, "value", f"{message}; at most {MAX_GRID_NODES:,} are allowed")]


def _validate(data, grid_flag: int | None = None) -> tuple[list[dict], dict]:
    """The diagnostics, and by key each expression array's parsed array
    and entries (None for an invalid one). The grid is the one grid_flag
    (--grid) sets, else the file's."""
    diagnostics: list[dict] = []
    arrays: dict = {}
    if not isinstance(data, dict):
        return [_diag("$", "type", "problem file must be a JSON object")], arrays
    dim = data.get("dim")
    rank = data.get("rank")
    if not _is_integer(dim) or not 1 <= dim <= ex.MAX_VARIABLES:
        diagnostics.append(_diag("dim", "value", "dim must be an integer in 1..9"))
        dim = None
    if not _is_integer(rank) or not 1 <= rank <= MAX_INVERSE_RANK:
        diagnostics.append(
            _diag("rank", "value", f"rank must be an integer in 1..{MAX_INVERSE_RANK}")
        )
        rank = None
    domain = data.get("domain")
    if not isinstance(domain, dict):
        diagnostics.append(_diag("domain", "type", "domain must be an object"))
    elif dim is not None:
        for key in ("lower", "upper"):
            bounds = domain.get(key)
            if (
                not isinstance(bounds, list)
                or len(bounds) != dim
                or not all(_is_finite(v) for v in bounds)
            ):
                diagnostics.append(
                    _diag(f"domain.{key}", "shape", f"must be a list of {dim} numbers")
                )
        if (
            isinstance(domain.get("lower"), list)
            and isinstance(domain.get("upper"), list)
            and len(domain["lower"]) == len(domain["upper"]) == dim
        ):
            for i, (lo, hi) in enumerate(zip(domain["lower"], domain["upper"])):
                if _is_finite(lo) and _is_finite(hi) and not lo < hi:
                    diagnostics.append(
                        _diag(f"domain.lower[{i}]", "value", "need lower < upper")
                    )
        grid = domain.get("gridPerAxis")
        if grid is not None and (not _is_integer(grid) or grid < 3):
            diagnostics.append(
                _diag("domain.gridPerAxis", "value", "gridPerAxis must be an integer >= 3")
            )
        elif grid_flag is not None:
            diagnostics += _oversized_grid("--grid", grid_flag, dim)
        else:
            diagnostics += _oversized_grid("domain.gridPerAxis", grid or DEFAULT_GRID_PER_AXIS, dim)
    if "connection" not in data:
        diagnostics.append(_diag("connection", "missing", "connection array is required"))
    if dim is not None and rank is not None:
        for key, dims in (
            ("connection", (dim, rank, rank)),
            ("metric", (rank, rank)),
            ("gauge", (rank, rank)),
            ("dualConnection", (dim, rank, rank)),
        ):
            # a null connection is a shape error; the other arrays are optional
            if key in data and (key == "connection" or data[key] is not None):
                arrays[key] = _expression_array(data[key], dims, dim, key, diagnostics)
    seed = data.get("seed")
    if seed is not None and not _is_integer(seed):
        diagnostics.append(_diag("seed", "type", "seed must be an integer"))
    elif seed is not None and seed < 0:
        diagnostics.append(_diag("seed", "value", "seed must be an integer >= 0"))
    tolerances = data.get("tolerances")
    if tolerances is not None:
        if not isinstance(tolerances, dict):
            diagnostics.append(_diag("tolerances", "type", "tolerances must be an object"))
        else:
            for key, v in tolerances.items():
                if key not in ("transport", "kernel"):
                    diagnostics.append(
                        _diag(f"tolerances.{key}", "unknown-key", "unknown tolerance override")
                    )
                elif not _is_tolerance(v):
                    diagnostics.append(_diag(f"tolerances.{key}", "value", TOLERANCE_MESSAGE))
    return diagnostics, arrays


def _problem_hash(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _solve_options(args, defaults: SolveOptions, tolerances: dict) -> SolveOptions:
    """defaults, overridden by the problem file's tolerances and then by
    every flag that is set."""
    given = {
        "kernel_cutoff": tolerances.get("kernel"),
        "transport_tol": tolerances.get("transport"),
    }
    options = defaults.replace(**{k: float(v) for k, v in given.items() if v is not None})
    flags = {
        "grid_per_axis": args.grid,
        "max_order": args.max_order,
        "kernel_cutoff": args.tol_kernel,
        "transport_tol": args.tol_transport,
        "seed": args.seed,
    }
    return options.replace(**{k: v for k, v in flags.items() if v is not None})


def _metric_field(domain: ChartDomain, r: int, array, path: str) -> MetricField:
    """The metric of a validated (array, entries) pair, evaluated on the
    grid as it is built; a form that is not symmetric there raises
    _InputError at path, and an entry that leaves its domain raises it at
    the entry."""
    tree, entries = array
    try:
        return MetricField(domain, r, tree)
    except ValueError as err:
        raise _InputError([_diag(path, "value", str(err))]) from None
    except ex.DomainError as err:
        raise _InputError([_failure(err, entries)]) from None


def _failure(err: Exception, entries=()) -> dict:
    """The diagnostic of a failed run: at the first (path, expression)
    entry holding the subtree a DomainError names, else at the first
    entry with a derivative holding it (one that `curvature` built),
    else at `$`."""
    node = getattr(err, "node", None)
    path = next((p for p, tree in entries if ex.contains(tree, node)), None)
    if path is None:
        derived = (
            p for p, tree in entries for d in ex.built_derivatives(tree) if ex.contains(d, node)
        )
        path = next(derived, "$")
    return _diag(path, "error", str(err) or type(err).__name__)


class ProblemObjects:
    def __init__(self, data: dict, args):
        """Validate the problem and build its analysis objects from the
        expression arrays the validation parsed; an invalid problem
        raises _InputError with its diagnostics."""
        diagnostics, arrays = _validate(data, args.grid)
        if diagnostics:
            raise _InputError(diagnostics)
        # in file order, so that a failure is named at its first entry
        self.entries = [pair for key in data if key in arrays for pair in arrays[key][1]]
        trees = {key: tree for key, (tree, _) in arrays.items()}
        m, r = data["dim"], data["rank"]
        dom = data["domain"]
        grid = args.grid or dom.get("gridPerAxis") or DEFAULT_GRID_PER_AXIS
        self.domain = ChartDomain(
            tuple(dom["lower"]), tuple(dom["upper"]), (grid,) * m
        )
        self.r = r
        self.connection = Connection(self.domain, r, trees["connection"])
        self.metric = (
            _metric_field(self.domain, r, arrays["metric"], "metric")
            if data.get("metric")
            else None
        )
        self.gauge = (
            GaugeTransform(self.domain, r, trees["gauge"]) if data.get("gauge") else None
        )
        self.dual = (
            Connection(self.domain, r, trees["dualConnection"])
            if data.get("dualConnection")
            else None
        )
        tolerances = data.get("tolerances") or {}
        self.options = _solve_options(args, SolveOptions(seed=data.get("seed") or 0), tolerances)

    def base_metric(self) -> MetricField:
        """The problem's metric, else the identity; one that is not
        regular raises _InputError at `metric`."""
        if self.metric is not None and not self.metric.is_regular():
            raise _InputError([_diag("metric", "value", IRREGULAR_METRIC)])
        return self.metric or identity_metric(self.domain, self.r)

    def evaluate_entries(self):
        """Evaluate the other entries on the sample grid, as building the
        metric does; one that leaves its domain raises DomainError."""
        points = self.domain.sample_points()
        for conn in filter(None, (self.connection, self.dual)):
            conn.coeff_array(points)
        if self.gauge is not None:
            self.gauge.matrix_at(points)


# ---------------------------------------------------------------------------
# Command handlers: each returns (result_dict, certified_bool)
# ---------------------------------------------------------------------------


def _space_summary(space) -> dict:
    return {
        "dimension": space.dimension,
        "constraintDim": space.constraint_dim,
        "certifiedResidual": space.certified_residual,
        "stabilized": space.stabilized,
        "stabilizationOrder": space.stabilization_order,
        "basePoint": [_F(v, 12) for v in space.base_point],
        "basis": [_matrix_12(b) for b in space.basis],
        "flags": list(space.flags),
    }


def _certificate_dict(cert) -> dict:
    witness = None
    if cert.witness_base is not None:
        witness = {
            "basePointMatrix": _matrix_12(cert.witness_base),
            "rank": cert.witness_rank,
            "minAbsDetOnGrid": cert.witness_min_abs_det,
            "transportResidual": cert.witness_transport_residual,
        }
    return {
        "verdict": cert.verdict,
        "maxParallelMetricRank": cert.max_witness_rank,
        "dimS2": cert.dim_s2,
        "dimOmega2": cert.dim_omega2,
        "dimJ": cert.dim_j,
        "exactSequenceHolds": cert.exact_sequence_ok,
        "witness": witness,
        "residuals": {k: v for k, v in cert.residuals.items()},
        "stabilized": cert.stabilized,
        "certified": cert.certified,
        "flags": list(cert.flags),
        "basePoint": [_F(v, 12) for v in cert.base_point],
        "toleranceProfile": {
            "kernelCutoff": cert.options.kernel_cutoff,
            "transportResidual": cert.options.transport_tol,
            "metricRegularDet": DET_REGULARITY_FLOOR,
            "metricConditionMax": CONDITION_CEILING,
            "rankRelCutoff": RANK_REL_CUTOFF,
        },
    }


def _cmd_metricity(p: ProblemObjects, args):
    # the certificate's dimension bookkeeping always uses the identity
    # base metric; a user metric enters through `index` and `dual`
    cert = decide_metricity(p.connection, options=p.options)
    return {"certificate": _certificate_dict(cert)}, cert.certified


def _metric_family(p: ProblemObjects, path: str) -> list[MetricField]:
    """The metrics of a --metric-family file, each entry checked by the
    problem file's `metric` rules and parsed once; an invalid file
    raises _InputError."""
    entries = _load_json(path)
    if not isinstance(entries, list):
        raise _InputError(
            [_diag("--metric-family", "type", "metric family must be a list of matrices")]
        )
    diagnostics: list[dict] = []
    arrays = [
        _expression_array(mat, (p.r, p.r), p.domain.m, f"--metric-family[{k}]", diagnostics)
        for k, mat in enumerate(entries)
    ]
    if diagnostics:
        raise _InputError(diagnostics)
    return [
        _metric_field(p.domain, p.r, array, f"--metric-family[{k}]")
        for k, array in enumerate(arrays)
    ]


def _cmd_index(p: ProblemObjects, args):
    family = _metric_family(p, args.metric_family) if args.metric_family else []
    cert = decide_metricity(p.connection, options=p.options)
    report = index_report(p.connection, cert, family, primary_metric=p.metric)
    result = {
        "indexReport": {
            "sb_given_g": report.sb_given_g,
            "sb": report.sb,
            "ind_decision": report.ind_decision,
            "maxParallelMetricRank": report.max_parallel_metric_rank,
            "familySize": report.family_size,
            "flags": list(report.flags),
        },
        "certificate": _certificate_dict(cert),
    }
    return result, cert.certified


def _cmd_dual(p: ProblemObjects, args):
    metric = p.base_metric()
    dual = dual_connection(metric, p.connection)
    back = dual_connection(metric, dual)
    pts = p.domain.sample_points()
    residual = float(np.abs(back.coeff_array(pts) - p.connection.coeff_array(pts)).max())
    result = {
        "dualConnection": [
            [[ex.to_string(e) for e in row] for row in g] for g in dual.gamma
        ],
        "involutionResidual": residual,
        "usedIdentityMetric": p.metric is None,
    }
    return result, residual <= 1e-9


def _cmd_curvature(p: ProblemObjects, args):
    field = curvature(p.connection)
    worst = float(np.abs(ex.Evaluator(field)(p.domain.sample_points())).max())
    result = {
        "maxAbsOnGrid": worst,
        "flat": worst <= 1e-9,
        "entries": [
            [[[ex.to_string(e) for e in row] for row in rij] for rij in ri] for ri in field
        ],
    }
    return result, True


def _cmd_solve_fe(p: ProblemObjects, args):
    dual = p.dual or dual_connection(p.base_metric(), p.connection)
    space = solve_hom(Prolongation(p.connection, dual, p.options))
    ok = space.stabilized and UNDER_RESOLVED not in space.flags
    return {"solutionSpace": _space_summary(space)}, ok


def _cmd_gauge_check(p: ProblemObjects, args):
    if p.gauge is None:
        raise _InputError([_diag("gauge", "missing", "gauge-check needs a gauge matrix")])
    phi = p.gauge
    try:
        phi.require_invertible()
    except ValueError as err:
        raise _InputError([_diag("gauge", "value", str(err))]) from None
    inv_entries = inverse_mat(phi.entries)
    phi_inv = GaugeTransform(p.domain, p.r, inv_entries)
    transformed = apply_gauge(phi, p.connection)
    back = apply_gauge(phi_inv, transformed)
    pts = p.domain.sample_points()
    round_trip = float(np.abs(back.coeff_array(pts) - p.connection.coeff_array(pts)).max())
    compat = dual_gauge_compatibility_residual(phi, p.base_metric(), p.connection)
    pm = phi.matrix_at(pts)[:, None, None]
    expected = np.linalg.inv(pm) @ ex.Evaluator(curvature(p.connection))(pts) @ pm
    conj = float(np.abs(ex.Evaluator(curvature(transformed))(pts) - expected).max())
    result = {
        "gaugeRoundTripResidual": round_trip,
        "dualGaugeCompatibilityResidual": compat,
        "curvatureConjugationResidual": conj,
        "minAbsDetOnGrid": phi.min_abs_det_on_grid(),
    }
    ok = round_trip <= 1e-9 and compat <= 1e-8 and conj <= 1e-8
    return result, ok


def _cmd_alpha_scan(args, options: SolveOptions):
    diagnostics, alphas = [], []
    try:
        family = get_family(args.family)
        if args.grid is not None:
            diagnostics += _oversized_grid("--grid", args.grid, family.m)
    except ValueError as err:
        diagnostics.append(_diag("--family", "value", str(err)))
    for text in (a.strip() for a in args.alphas.split(",") if a.strip() != ""):
        try:
            alphas.append(float(text))
        except ValueError:
            alphas.append(math.nan)
        if not math.isfinite(alphas[-1]):
            diagnostics.append(_diag("--alphas", "value", f"alpha {text!r} is not a finite number"))
    if not alphas:
        diagnostics.append(_diag("--alphas", "value", "need at least one alpha"))
    if diagnostics:
        raise _InputError(diagnostics)
    report = alpha_scan(family, alphas, options)
    per_alpha = []
    certified = True
    for a, cert in zip(report.alphas, report.certificates):
        per_alpha.append({"alpha": a, "certificate": _certificate_dict(cert)})
        certified = certified and cert.certified
    result = {
        "family": report.family,
        "alphas": list(report.alphas),
        "perAlpha": per_alpha,
        "theorem4Consistent": report.theorem_consistent,
        "flags": list(report.flags),
    }
    return result, certified


class _InputError(Exception):
    def __init__(self, diagnostics: list[dict]):
        super().__init__("input rejected")
        self.diagnostics = diagnostics


_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_NOT_A_BRACKET = re.compile(r"[^][{}]+")


def _json_depth(text: str) -> int:
    """How deep arrays and objects nest in JSON text, strings skipped."""
    depth = deepest = 0
    for c in _NOT_A_BRACKET.sub("", _JSON_STRING.sub("", text)):
        depth += 1 if c in "[{" else -1
        deepest = max(deepest, depth)
    return deepest


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _InputError([_diag(path, "io", str(err))]) from None
    if _json_depth(text) > MAX_JSON_DEPTH:
        raise _InputError(
            [_diag(path, "json", f"arrays and objects nest deeper than {MAX_JSON_DEPTH} levels")]
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise _InputError(
            [
                _diag(
                    path,
                    "json",
                    f"malformed JSON: {err.msg} (line {err.lineno}, column {err.colno})",
                )
            ]
        ) from None


def run_command(args) -> tuple[dict, int]:
    """Execute one CLI command; returns (report, exit_code)."""
    started = stopped = time.perf_counter()
    report: dict = {"toolVersion": __version__, "command": args.command, "seed": 0}
    problem = None
    try:
        bad_flags = [
            _diag(flag, "value", TOLERANCE_MESSAGE)
            for flag, value in (
                ("--tol-transport", args.tol_transport),
                ("--tol-kernel", args.tol_kernel),
            )
            if value is not None and not _is_tolerance(value)
        ] + [
            _diag(flag, "value", f"{flag[2:]} must be an integer >= {low}")
            for flag, value, low in (
                ("--grid", args.grid, 3),
                ("--max-order", args.max_order, 0),
                ("--seed", args.seed, 0),
            )
            if value is not None and value < low
        ]
        if bad_flags:
            raise _InputError(bad_flags)
        if args.command == "alpha-scan":
            if not args.family:
                raise _InputError(
                    [_diag("--family", "missing", "alpha-scan needs --family NAME")]
                )
            options = _solve_options(args, ALPHA_SCAN_OPTIONS, {})
            report["seed"] = options.seed
            report["problemEcho"] = {"family": args.family, "alphas": args.alphas}
            result, ok = _cmd_alpha_scan(args, options)
        else:
            if not args.problem:
                raise _InputError(
                    [_diag("problem", "missing", f"{args.command} needs a problem file")]
                )
            data = _load_json(args.problem)
            if args.command == "validate":
                # the analysis commands' checks, the metric's included,
                # and every other entry evaluated on the grid
                try:
                    problem = ProblemObjects(data, args)
                    problem.evaluate_entries()
                    diagnostics = []
                except _InputError as err:
                    diagnostics = err.diagnostics
                except ex.DomainError as err:
                    diagnostics = [_failure(err, problem.entries)]
                report["problemEcho"] = {"sha256": _problem_hash(data)}
                result, ok = {"diagnostics": diagnostics}, not diagnostics
            else:
                problem = ProblemObjects(data, args)
                report["seed"] = problem.options.seed
                report["problemEcho"] = {
                    "sha256": _problem_hash(data),
                    "dim": data["dim"],
                    "rank": data["rank"],
                }
                handler = {
                    "metricity": _cmd_metricity,
                    "index": _cmd_index,
                    "dual": _cmd_dual,
                    "curvature": _cmd_curvature,
                    "solve-fe": _cmd_solve_fe,
                    "gauge-check": _cmd_gauge_check,
                }[args.command]
                result, ok = handler(problem, args)
        code = 0 if ok else 2 if args.command == "validate" else 3
        stopped = time.perf_counter()  # an error path reports no timing
    except _InputError as err:
        result, code = {"diagnostics": err.diagnostics}, 2
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        # failures of the analysis, not of the input (a ValueError, an
        # ArithmeticError): a non-converging SVD or an overflowing transport
        prefix = "linear algebra failed: " if isinstance(err, np.linalg.LinAlgError) else ""
        result, code = {"diagnostics": [_diag("$", "internal", f"{prefix}{err}")]}, 3
    except (ex.DomainError, ValueError, ArithmeticError) as err:
        result, code = {"diagnostics": [_failure(err, problem.entries if problem else ())]}, 2
    report["result"] = result
    report["timingMs"] = int((stopped - started) * 1000) if args.timings else 0
    return report, code


def _human_summary(report: dict, code: int) -> str:
    command = report.get("command")
    lines = [f"metron {command}: exit {code}"]
    result = report.get("result", {})
    if "diagnostics" in result:
        for d in result["diagnostics"]:
            loc = f" @{d['offset']}" if "offset" in d else ""
            lines.append(f"  [{d['code']}] {d['path']}{loc}: {d['message']}")
    if "certificate" in result:
        cert = result["certificate"]
        lines.append(
            f"  verdict={cert['verdict']} dimJ={cert['dimJ']}"
            f" dimS2={cert['dimS2']} dimOmega2={cert['dimOmega2']}"
        )
    if "indexReport" in result:
        rep = result["indexReport"]
        lines.append(
            f"  sb={rep['sb']} sb_given_g={rep['sb_given_g']} ind={rep['ind_decision']}"
        )
    if "perAlpha" in result:
        for item in result["perAlpha"]:
            lines.append(
                f"  alpha={item['alpha']:g}: {item['certificate']['verdict']}"
            )
        lines.append(f"  theorem4Consistent={result['theorem4Consistent']}")
    if "solutionSpace" in result:
        space = result["solutionSpace"]
        lines.append(
            f"  dim={space['dimension']} residual={space['certifiedResidual']:.3e}"
            f" stabilized={space['stabilized']}"
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metron",
        description="metricity certificates for coordinate-given connections",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", nargs="?", help="problem JSON file")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None, help="grid nodes per axis")
    parser.add_argument("--tol-transport", type=float, default=None)
    parser.add_argument("--tol-kernel", type=float, default=None)
    parser.add_argument("--max-order", type=int, default=None)
    parser.add_argument("--alphas", default="", help="comma-separated alpha list")
    parser.add_argument("--family", default=None, help="statistical family name")
    parser.add_argument("--metric-family", default=None, help="JSON file with extra metrics")
    parser.add_argument(
        "--timings",
        action="store_true",
        help="record wall time in the JSON (breaks byte-determinism)",
    )
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Let '--alphas -1,0,1' work even though the value starts with '-'."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--alphas" and i + 1 < len(argv):
            out.append(f"--alphas={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_normalize_argv(argv))
    report, code = run_command(args)
    text = canonical_json(report) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if not args.quiet:
        sys.stderr.write(_human_summary(report, code) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
