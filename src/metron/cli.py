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
import itertools
import json
import os
import re
import stat
import sys
import time
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .bundle import (
    CONDITION_CEILING,
    DEFAULT_SAMPLES_PER_AXIS,
    DET_REGULARITY_FLOOR,
    IRREGULAR_METRIC,
    MAX_INVERSE_RANK,
    RANK_REL_CUTOFF,
    ChartDomain,
    Connection,
    GaugeTransform,
    MetricField,
    apply_gauge,
    bounds_error,
    count_error,
    curvature,
    dual_connection,
    dual_gauge_compatibility_residual,
    identity_metric,
    interval_error,
    inverse_mat,
    variable_error,
)
from .homsolver import Prolongation, SolveOptions, option_error, solve_hom
from .metricity import decide_metricity, index_report
from .statmodels import ALPHA_SCAN_OPTIONS, alpha_error, alpha_scan, get_family
from .transport import MAX_GRID_NODES, grid_error

__all__ = ["main", "run_command", "validate_problem", "canonical_json", "MAX_GRID_NODES"]

# arrays and objects inside one another: a problem file's connection
# (object > dim > rank > rank) is the deepest part of either input format
MAX_JSON_DEPTH = 4
# the SolveOptions field that each tolerances key of a problem file sets
TOLERANCE_FIELDS = {"kernel": "kernel_cutoff", "transport": "transport_tol"}
# the SolveOptions field of each option flag, in the order refusals are reported
OPTION_FLAGS = {
    "--tol-transport": "transport_tol",
    "--tol-kernel": "kernel_cutoff",
    "--grid": "grid_per_axis",
    "--max-order": "max_order",
    "--seed": "seed",
}

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
    return format(v, f".{digits}g")


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
            elif refusal := variable_error(e, dim):
                problems.append(_diag(leaf, "unknown-variable", refusal))
    diagnostics += problems
    return None if problems else (tree, entries)


def validate_problem(data) -> list[dict]:
    """Every diagnostic of a problem file, without running analyses: the
    file format's (JSON types, unknown keys, expression syntax) and, at
    the JSON path they map to, the library's refusals of its values."""
    return _validate(data)[0]


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
    if refusal := count_error("dim", dim, 1, ex.MAX_VARIABLES):
        diagnostics.append(_diag("dim", "value", refusal))
        dim = None
    # a CLI rule: dual, index, solve-fe and gauge-check invert rank x rank
    # matrices, and every command takes the same files
    if refusal := count_error("rank", rank, 1, MAX_INVERSE_RANK):
        diagnostics.append(_diag("rank", "value", refusal))
        rank = None
    domain = data.get("domain")
    if not isinstance(domain, dict):
        diagnostics.append(_diag("domain", "type", "domain must be an object"))
    elif dim is not None:
        refusals = [(key, bounds_error(key, domain.get(key), dim)) for key in ("lower", "upper")]
        diagnostics += [_diag(f"domain.{key}", "shape", r) for key, r in refusals if r]
        if not any(r for _, r in refusals):
            for i, refusal in enumerate(map(interval_error, domain["lower"], domain["upper"])):
                if refusal:
                    diagnostics.append(_diag(f"domain.lower[{i}]", "value", refusal))
        grid = domain.get("gridPerAxis")
        if refusal := option_error("grid_per_axis", grid):
            diagnostics.append(_diag("domain.gridPerAxis", "value", refusal))
        elif refusal := grid_error((grid_flag or grid or DEFAULT_SAMPLES_PER_AXIS,) * dim):
            path = "domain.gridPerAxis" if grid_flag is None else "--grid"
            diagnostics.append(_diag(path, "value", refusal))
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
    if seed is not None and (refusal := option_error("seed", seed)):
        # a value that is no JSON integer is a type error
        code = "value" if isinstance(seed, int) and not isinstance(seed, bool) else "type"
        diagnostics.append(_diag("seed", code, refusal))
    tolerances = data.get("tolerances")
    if tolerances is not None:
        if not isinstance(tolerances, dict):
            diagnostics.append(_diag("tolerances", "type", "tolerances must be an object"))
        else:
            for key, v in tolerances.items():
                if key not in TOLERANCE_FIELDS:
                    diagnostics.append(
                        _diag(f"tolerances.{key}", "unknown-key", "unknown tolerance override")
                    )
                elif refusal := option_error(TOLERANCE_FIELDS[key], v):
                    diagnostics.append(_diag(f"tolerances.{key}", "value", refusal))
    return diagnostics, arrays


def _problem_hash(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _option_flags(args) -> dict:
    """By flag, the (SolveOptions field, value) of each option flag set."""
    values = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in OPTION_FLAGS}
    return {flag: (OPTION_FLAGS[flag], v) for flag, v in values.items() if v is not None}


def _solve_options(args, defaults: SolveOptions, tolerances: dict) -> SolveOptions:
    """defaults, overridden by the problem file's tolerances and then by
    every flag that is set."""
    options = defaults.replace(**{TOLERANCE_FIELDS[k]: v for k, v in tolerances.items()})
    return options.replace(**dict(_option_flags(args).values()))


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
    entry in file order holding the subtree a DomainError names, else at
    the first whose derivative along a coordinate it mentions holds it,
    else at `$`. Derivatives are built here, so no earlier run counts."""
    node = getattr(err, "node", None)
    derived = ((p, ex.differentiate(e, i)) for p, e in entries for i in ex.variables(e))
    trees = itertools.chain(entries, derived) if node is not None else ()
    path = next((p for p, tree in trees if ex.contains(tree, node)), "$")
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
        grid = args.grid or dom.get("gridPerAxis") or DEFAULT_SAMPLES_PER_AXIS
        self.domain = ChartDomain(dom["lower"], dom["upper"], (grid,) * m)
        self.r = r
        self.connection = Connection(self.domain, r, trees["connection"])
        self.metric = self.gauge = self.dual = None
        if data.get("metric"):
            self.metric = _metric_field(self.domain, r, arrays["metric"], "metric")
        if data.get("gauge"):
            self.gauge = GaugeTransform(self.domain, r, trees["gauge"])
        if data.get("dualConnection"):
            self.dual = Connection(self.domain, r, trees["dualConnection"])
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
        "dualConnection": np.frompyfunc(ex.to_string, 1, 1)(dual.gamma).tolist(),
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
        "entries": np.frompyfunc(ex.to_string, 1, 1)(field).tolist(),
    }
    return result, True


def _cmd_solve_fe(p: ProblemObjects, args):
    dual = p.dual or dual_connection(p.base_metric(), p.connection)
    space = solve_hom(Prolongation(p.connection, dual, p.options))
    return {"solutionSpace": _space_summary(space)}, space.certified


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
        if args.grid is not None and (refusal := grid_error((args.grid,) * family.m)):
            diagnostics.append(_diag("--grid", "value", refusal))
    except ValueError as err:
        diagnostics.append(_diag("--family", "value", str(err)))
    texts = [a.strip() for a in args.alphas.split(",") if a.strip() != ""]
    for text in texts:
        try:
            alphas.append(float(text))
        except ValueError:  # text that is no number breaks the flag's format
            refusal = f"alpha {text!r} is not a finite number"
        else:
            refusal = alpha_error(alphas[-1])
        if refusal:
            diagnostics.append(_diag("--alphas", "value", refusal))
    if not texts:
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
    except UnicodeDecodeError as err:
        message = f"not UTF-8 text: {err.reason} at byte {err.start}"
        raise _InputError([_diag(path, "json", message)]) from None
    if _json_depth(text) > MAX_JSON_DEPTH:
        message = f"arrays and objects nest deeper than {MAX_JSON_DEPTH} levels"
        raise _InputError([_diag(path, "json", message)])
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        message = f"malformed JSON: {err.msg} (line {err.lineno}, column {err.colno})"
    except ValueError:  # an integer longer than int() converts
        message = f"a JSON integer has more than {sys.get_int_max_str_digits()} digits"
    raise _InputError([_diag(path, "json", message)])


def run_command(args) -> tuple[dict, int]:
    """Execute one CLI command; returns (report, exit_code)."""
    started = stopped = time.perf_counter()
    report: dict = {"toolVersion": __version__, "command": args.command, "seed": 0}
    problem = None
    try:
        bad_flags = [
            _diag(flag, "value", refusal)
            for flag, (field, value) in _option_flags(args).items()
            if (refusal := option_error(field, value))
        ]
        if bad_flags:
            raise _InputError(bad_flags)
        if args.command == "alpha-scan":
            if not args.family:
                raise _InputError([_diag("--family", "missing", "alpha-scan needs --family NAME")])
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
        lines.append(f"  sb={rep['sb']} sb_given_g={rep['sb_given_g']} ind={rep['ind_decision']}")
    if "perAlpha" in result:
        for item in result["perAlpha"]:
            lines.append(f"  alpha={item['alpha']:g}: {item['certificate']['verdict']}")
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
    try:
        # opened before the analysis runs, so that a path that cannot be
        # written is refused first; in append mode, as the path may name
        # a file the analysis has still to read
        out = open(args.out, "a", encoding="utf-8") if args.out else sys.stdout
    except OSError as err:
        out, code = sys.stdout, 2
        result = {"diagnostics": [_diag("--out", "io", str(err))]}
        report = {"toolVersion": __version__, "command": args.command, "seed": 0}
        report.update(result=result, timingMs=0)
    else:
        report, code = run_command(args)
    text = canonical_json(report) + "\n"
    if out is sys.stdout:
        out.write(text)
    else:
        with out:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):  # not /dev/null or a pipe
                out.truncate(0)
            out.write(text)
    if not args.quiet:
        sys.stderr.write(_human_summary(report, code) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
