#!/usr/bin/env python3
"""Print the sha256 of the JSON report of a fixed set of CLI runs.

Runs, in one process and through the same code path as `metron`:
- `metricity`, `index`, `solve-fe`, `dual` and `curvature` on each
  problems/*.json (`dual` and `curvature` print expressions);
- `index problems/hyperbolic.json --metric-family` with a non-constant,
  an indefinite and an `exp` metric;
- `index` on the half plane with a singular problem `metric` and a
  `--metric-family` of an ill-conditioned regular and a singular metric,
  so that the primary is not regular and members are skipped on both
  sides of the first regular one;
- `index` on a connection that preserves only diag(1, 1e-3), with the
  regular but ill-conditioned metric diag(1e3, 1e-3) as its `metric`,
  and again with a singular `metric` and that metric as the first
  regular `--metric-family` member: it alone reads a corank the
  identity does not;
- `alpha-scan --alphas -1,-0.5,0,0.5,1` for every statistical family;
- with --bench-inputs, the benchmark inputs of seed 1: `metricity` on
  gauged-flat-r4 and on each corpus-notmetric file, `solve-fe` on
  gauged-flat-r4 and `index --grid 5` on perfbench/inputs/hyperbolic.json;
- with --error-paths, a fixed set of rejected or extreme inputs: bad
  integer flags, a negative problem seed, an expression parse error, a
  pole at the base point, a malformed problem file, bad --metric-family
  files, a 1,000-term sum, nesting past the parser's limit, an
  overflowing number literal, constant products that overflow (in an
  entry and only in its derivative), JSON nested too deep, asymmetric
  metrics (also under `validate`), a null seed, `alpha-scan` with
  alphas that are not finite numbers and with an unknown family, and
  `alpha-scan` with alphas so large that transport or the coefficients
  overflow (1e300 on every family, 1e4 on bernoulli);
- each extra command given with --also;
- last, the runs added after the set above was fixed, so that its lines
  keep their order: `metricity` on problem files holding the gaussian1d
  alpha connections at +1 (the flat e-connection, whose transport is
  under-resolved at the default RK4 steps) and -1, `alpha-scan
  --alphas=30,100` on exponential and poisson (full-rank witnesses with a
  determinant below 1e-8 at the chart's end) and, with --error-paths,
  gaussian1d at alpha 1000 (finite edge operators whose products along
  the spanning tree overflow), then `dual` and `solve-fe` on the half
  plane with a singular `metric`, `gauge-check` on it with a singular
  `gauge`, and `gauge-check` with a regular `gauge` and a singular
  `metric`, and `metricity` on two rank-1 connections on [-1, 1]^2
  whose base point x1 = 0 is where sqrt(x1^2) has no derivative: in
  Gamma_1 = sqrt(x1^2)*x2, Gamma_2 = x1 the prolongation needs it only
  along x2, where it is exactly 0 (certified NotMetric), while in
  Gamma_1 = 0, Gamma_2 = sqrt(x1^2) the curvature needs its x1
  derivative (rejected at `connection[1][0][0]`), `gauge-check` on the
  half plane with the regular `gauge` [[1, x1], [0, 1]] (certified,
  exit 0), `metricity` on the zero rank-1 connection on [-1, 1]^5 at 9
  nodes per axis, a grid of 59,049 nodes, refused at
  `domain.gridPerAxis`, `curvature` on the second sqrt connection,
  whose symbolic x1 derivative divides by zero on the grid (rejected at
  the entry it differentiates, `connection[1][0][0]`), and `metricity`
  on a rank-2 connection on [0.5, 1]^2 with the finite entries 1e200*x2
  and 1e200*x1, whose product at order 0 of the prolongation overflows
  (rejected at the entry with the largest coefficient,
  `connection[0][0][1]`), and `metricity` on a problem file holding the
  bytes ff fe 7b, which are not UTF-8 (rejected at the file's name with
  code `json`; the added runs take their temporary directory as the
  working directory, so that this file is named by a relative path),
  then six refusals of values that the library's own checks decide,
  each `metricity` on the half plane: `--tol-kernel 0`, the file's
  `tolerances.transport` 0 and `tolerances.kernel` true, a
  `domain.lower[1]` equal to its upper bound, the file's `gridPerAxis`
  2, and `--grid 150` (22,500 grid nodes at dim 2), and `metricity` on
  the half plane with a `seed` of 5,001 digits, more than Python's int()
  converts (rejected at the file's name with code `json`).

Each run prints one line, `<sha256>  <command>  (exit <code>)`, so two
checkouts can be compared with diff:

    PYTHONPATH=src python3 scripts/report_digests.py > new.txt
    (cd ../other && PYTHONPATH=src python3 /path/to/report_digests.py) > old.txt
    diff old.txt new.txt

A digest moves with any report byte. With --contract the script prints
instead one JSON record per run: its exit code and the report's
contract fields (CONTRACT_KEYS at any depth, and each diagnostic's path
and code), keyed by JSON path. tests/contract.json holds these records
for `--bench-inputs --error-paths`, and tests/test_contract.py
regenerates and compares them.

Problem paths are taken relative to the working directory, and metron is
imported from the Python path, so the script measures whichever checkout
PYTHONPATH points at. The metric family files, the singular-metric
and skewed problems and the benchmark inputs (by perfbench/gen.py of
the working directory) are written to a temporary directory, shown as
<tmp> in the output. The rejected inputs are written to a temporary directory too,
and run from inside it with relative paths, so that the file names
their diagnostics quote do not change between runs; a run that raises
prints `crash: <exception>` in place of its digest.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from metron import cli
from metron import expr as ex
from metron.statmodels import FAMILIES, alpha_connection, get_family

ALPHAS = "-1,-0.5,0,0.5,1"
BENCH_SEED = 1
TMP_SHOWN = "<tmp>"
# Report keys whose values no change may move unless it means to: the
# verdicts, dimensions, certification and flags of every certificate,
# solution space, index report and alpha scan
CONTRACT_KEYS = frozenset(
    {
        "verdict",
        "dimJ",
        "dimS2",
        "dimOmega2",
        "dimension",
        "certified",
        "stabilized",
        "flags",
        "maxParallelMetricRank",
        "sb",
        "sb_given_g",
        "ind_decision",
        "familySize",
    }
)
# regular on the half plane's chart [-1, 1] x [0.75, 1.75]
HALF_PLANE_FAMILY = [
    [["1 + x1*x1", "x1*x2/4"], ["x1*x2/4", "x2"]],
    [["1", "0.5"], ["0.5", "-2"]],
    [["exp(x1)", "0"], ["0", "exp(-x2)"]],
]
# det 2e-8 is just above the regularity floor; the second is singular
ILL_CONDITIONED_FAMILY = [[["1", "0"], ["0", "2e-8"]], [["1", "1"], ["1", "1"]]]
# Gamma_2 = 0.03 x1 S^{-1} K preserves only S = diag(1, 1e-3); the metric
# (det 1, cond 1e6) is misaligned with S
SKEWED_PROBLEM = {
    "dim": 2,
    "rank": 2,
    "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "gridPerAxis": 5},
    "connection": [[["0", "0"], ["0", "0"]], [["0", "0.03*x1"], ["-30*x1", "0"]]],
    "metric": [["1000", "0"], ["0", "0.001"]],
    "seed": 7,
}

# 9^5 = 59,049 grid nodes, more than cli.MAX_GRID_NODES
OVERSIZED_GRID = {
    "dim": 5,
    "rank": 1,
    "domain": {"lower": [-1.0] * 5, "upper": [1.0] * 5, "gridPerAxis": 9},
    "connection": [[["0"]]] * 5,
}
# rank 1 on [-1, 1]^2: the base point of the default grid is x1 = x2 = 0
SQRT_PROBLEM = {"dim": 2, "rank": 1, "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}
SQRT_AT_BASE = {
    "sqrt-structural-zero": [[["sqrt(x1^2)*x2"]], [["x1"]]],
    "sqrt-singular-derivative": [[["0"]], [["sqrt(x1^2)"]]],
}
# finite entries whose product in the curvature overflows at the base point
PROLONGATION_OVERFLOW = {
    "dim": 2,
    "rank": 2,
    "domain": {"lower": [0.5, 0.5], "upper": [1.0, 1.0], "gridPerAxis": 5},
    "connection": [[["0", "1e200*x2"], ["0", "0"]], [["0", "0"], ["1e200*x1", "0"]]],
}


def default_commands(out: Path) -> list[list[str]]:
    """The runs on problems/*.json and the statistical families; the
    metric family files and the singular-metric and skewed problems are
    written under out."""
    family = out / "family.json"
    family.write_text(json.dumps(HALF_PLANE_FAMILY), encoding="utf-8")
    ill_family = out / "ill-family.json"
    ill_family.write_text(json.dumps(ILL_CONDITIONED_FAMILY), encoding="utf-8")
    singular = json.loads(Path("problems/hyperbolic.json").read_text(encoding="utf-8"))
    singular["metric"] = [["1", "0"], ["0", "0"]]
    singular_problem = out / "singular-metric.json"
    singular_problem.write_text(json.dumps(singular), encoding="utf-8")
    skewed = out / "skewed.json"
    skewed.write_text(json.dumps(SKEWED_PROBLEM), encoding="utf-8")
    skewed_singular = out / "skewed-singular.json"
    skewed_singular.write_text(
        json.dumps({**SKEWED_PROBLEM, "metric": singular["metric"]}), encoding="utf-8"
    )
    skewed_family = out / "skewed-family.json"
    skewed_family.write_text(json.dumps([SKEWED_PROBLEM["metric"]]), encoding="utf-8")
    commands = []
    for problem in sorted(Path("problems").glob("*.json")):
        for command in ("metricity", "index", "solve-fe", "dual", "curvature"):
            commands.append([command, str(problem)])
    commands.append(["index", "problems/hyperbolic.json", "--metric-family", str(family)])
    commands.append(["index", str(singular_problem), "--metric-family", str(ill_family)])
    commands.append(["index", str(skewed)])
    commands.append(["index", str(skewed_singular), "--metric-family", str(skewed_family)])
    for name in sorted(FAMILIES):
        commands.append(["alpha-scan", "--family", name, f"--alphas={ALPHAS}"])
    return commands


def bench_commands(out: Path) -> list[list[str]]:
    """Write the gauged-flat-r4 and corpus-notmetric inputs under out and
    return the commands that run on them."""
    sys.path.insert(0, str(Path("perfbench").resolve()))
    import gen

    gauged = sorted(gen.write_inputs("gauged-flat-r4", BENCH_SEED, out))
    corpus = sorted(gen.write_inputs("corpus-notmetric", BENCH_SEED, out))
    commands = [["metricity", str(out / name)] for name in gauged + corpus]
    commands += [["solve-fe", str(out / name)] for name in gauged]
    commands.append(["index", "perfbench/inputs/hyperbolic.json", "--grid", "5"])
    return commands


def error_commands(out: Path) -> list[list[str]]:
    """Write the rejected inputs under out and return the commands that
    run on them, with paths relative to out."""
    half_plane = json.loads(Path("problems/hyperbolic.json").read_text(encoding="utf-8"))

    def variant(**changes):
        problem = json.loads(json.dumps(half_plane))
        problem.update(changes)
        return problem

    def entry(text):
        connection = json.loads(json.dumps(half_plane["connection"]))
        connection[0][0][0] = text
        return connection

    deep = {}
    for _ in range(600):
        deep = {"k": deep}
    files = {
        "half-plane.json": half_plane,
        "negative-seed.json": variant(seed=-1),
        "parse-error.json": variant(connection=entry("x1+")),
        # x1 < 0 at the base node nearest the centre of an 8 x 8 grid
        "pole-at-base.json": variant(
            connection=entry("sqrt(x1-0.99)"),
            domain=dict(half_plane["domain"], gridPerAxis=8),
        ),
        "family-parse-error.json": [[["x1+", "0"], ["0", "1"]]],
        "family-bare-number.json": [[["1", "0"], ["0", 1]]],
        "family-not-a-list.json": {"metric": [["1", "0"], ["0", "1"]]},
        "deep-sum.json": variant(connection=entry(" + ".join(f"x1/{k}" for k in range(1, 1001)))),
        "deep-parentheses.json": variant(connection=entry("(" * 250 + "x1" + ")" * 250)),
        "unary-minus-chain.json": variant(connection=entry("-" * 251 + "x1")),
        "overflowing-literal.json": variant(connection=entry("1e999*x1")),
        "overflow-fold.json": variant(connection=entry("1e300*1e300*x1")),
        "overflow-fold-derivative.json": variant(connection=entry("x1*1e300*1e300")),
        "deep-unknown-key.json": variant(extra=deep),
        "asymmetric-metric.json": variant(metric=[["1", "0.2"], ["0", "1"]]),
        "null-seed.json": variant(seed=None),
        "family-asymmetric.json": [[["1", "0"], ["0", "1"]], [["1", "0.2"], ["0", "1"]]],
    }
    for name, payload in files.items():
        (out / name).write_text(json.dumps(payload), encoding="utf-8")
    (out / "malformed.json").write_text('{"dim": 2,,}', encoding="utf-8")
    (out / "family-malformed.json").write_text("[[1, 2", encoding="utf-8")
    (out / "deep-array.json").write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    commands = [
        ["metricity", "half-plane.json", flag, value]
        for flag, value in (
            ("--grid", "0"),
            ("--grid", "2"),
            ("--max-order", "-1"),
            ("--seed", "-5"),
        )
    ]
    for name in ("negative-seed.json", "parse-error.json", "pole-at-base.json", "malformed.json"):
        commands.append(["metricity", name])
    for name in (
        "missing.json",
        "family-parse-error.json",
        "family-bare-number.json",
        "family-not-a-list.json",
        "family-malformed.json",
    ):
        commands.append(["index", "half-plane.json", "--metric-family", name])
    for name in (
        "deep-sum.json",
        "deep-parentheses.json",
        "unary-minus-chain.json",
        "overflowing-literal.json",
        "deep-unknown-key.json",
        "deep-array.json",
    ):
        commands += [["metricity", name], ["validate", name]]
    commands += [
        ["dual", "overflowing-literal.json"],
        ["index", "asymmetric-metric.json"],
        ["index", "null-seed.json"],
        ["index", "half-plane.json", "--metric-family", "family-asymmetric.json"],
        ["metricity", "overflow-fold.json"],
        ["metricity", "overflow-fold-derivative.json"],
        ["validate", "asymmetric-metric.json"],
    ]
    commands += [
        ["alpha-scan", "--family", "exponential", f"--alphas={alphas}"]
        for alphas in ("abc", "nan", "inf", "1e400")
    ]
    commands.append(["alpha-scan", "--family", "nope", "--alphas=0"])
    commands += [["alpha-scan", "--family", name, "--alphas=1e300"] for name in sorted(FAMILIES)]
    commands.append(["alpha-scan", "--family", "bernoulli", "--alphas=1e4"])
    return commands


def added_commands(out: Path, error_paths: bool) -> list[list[str]]:
    """The runs added last; the gaussian1d and the singular half-plane
    problem files are written under out."""
    commands = []
    for alpha in (1.0, -1.0):
        conn = alpha_connection(get_family("gaussian1d"), alpha)
        domain = conn.domain
        problem = {
            "dim": domain.m,
            "rank": conn.r,
            "domain": {
                "lower": list(domain.lower),
                "upper": list(domain.upper),
                "gridPerAxis": domain.samples_per_axis[0],
            },
            "connection": [[[ex.to_string(e) for e in row] for row in g] for g in conn.gamma],
        }
        path = out / f"gaussian1d-alpha{alpha:+g}.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        commands.append(["metricity", str(path)])
    commands += [
        ["alpha-scan", "--family", name, "--alphas=30,100"] for name in ("exponential", "poisson")
    ]
    if error_paths:
        commands.append(["alpha-scan", "--family", "gaussian1d", "--alphas=1000"])
        half_plane = json.loads(Path("problems/hyperbolic.json").read_text(encoding="utf-8"))
        singular = [["1", "0"], ["0", "0"]]
        variants = {
            "singular-metric": {"metric": singular},
            "singular-gauge": {"gauge": [["1", "x1"], ["0", "0"]]},
            "gauge-singular-metric": {"metric": singular, "gauge": [["1", "x1"], ["0", "1"]]},
            "regular-gauge": {"gauge": [["1", "x1"], ["0", "1"]]},
        }
        paths = {}
        for name, changes in variants.items():
            paths[name] = str(out / f"{name}.json")
            Path(paths[name]).write_text(json.dumps({**half_plane, **changes}), encoding="utf-8")
        commands += [
            ["dual", paths["singular-metric"]],
            ["solve-fe", paths["singular-metric"]],
            ["gauge-check", paths["singular-gauge"]],
            ["gauge-check", paths["gauge-singular-metric"]],
        ]
        for name, connection in SQRT_AT_BASE.items():
            path = out / f"{name}.json"
            problem = {**SQRT_PROBLEM, "connection": connection}
            path.write_text(json.dumps(problem), encoding="utf-8")
            commands.append(["metricity", str(path)])
        commands.append(["gauge-check", paths["regular-gauge"]])
        path = out / "oversized-grid.json"
        path.write_text(json.dumps(OVERSIZED_GRID), encoding="utf-8")
        commands.append(["metricity", str(path)])
        commands.append(["curvature", str(out / "sqrt-singular-derivative.json")])
        path = out / "prolongation-overflow.json"
        path.write_text(json.dumps(PROLONGATION_OVERFLOW), encoding="utf-8")
        commands.append(["metricity", str(path)])
        # named relative to out, which the added runs take as working directory
        (out / "not-utf-8.json").write_bytes(b"\xff\xfe{")
        commands.append(["metricity", "not-utf-8.json"])
        domain = half_plane["domain"]
        refused = {
            "zero-transport-tolerance": {"tolerances": {"transport": 0}},
            "boolean-kernel-tolerance": {"tolerances": {"kernel": True}},
            "lower-not-below-upper": {"domain": {**domain, "lower": [-1.0, domain["upper"][1]]}},
            "grid-per-axis-2": {"domain": {**domain, "gridPerAxis": 2}},
        }
        for name, changes in refused.items():
            (out / f"{name}.json").write_text(json.dumps({**half_plane, **changes}), "utf-8")
        (out / "half-plane.json").write_text(json.dumps(half_plane), encoding="utf-8")
        commands.append(["metricity", "half-plane.json", "--tol-kernel", "0"])
        commands += [["metricity", f"{name}.json"] for name in refused]
        commands.append(["metricity", "half-plane.json", "--grid", "150"])
        overlong = json.dumps(half_plane).replace('"seed": 7', '"seed": ' + "1" * 5001)
        (out / "overlong-seed.json").write_text(overlong, encoding="utf-8")
        commands.append(["metricity", "overlong-seed.json"])
    return commands


def run(argv: list[str]) -> tuple[dict, int]:
    """The report and exit code of one CLI command line."""
    args = cli.build_parser().parse_args(argv)
    return cli.run_command(args)


@contextlib.contextmanager
def _inside(directory: str):
    """Run the block with directory as the working directory."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


def runs(bench_inputs: bool = False, error_paths: bool = False, also=()):
    """Run the fixed set in its order and yield (command as shown, report,
    exit code) for each. An error-path run that raises yields the
    exception as its report, with exit code 1, as `metron` would exit."""
    with tempfile.TemporaryDirectory() as tmp:
        commands = default_commands(Path(tmp))
        if bench_inputs:
            commands += bench_commands(Path(tmp))
        commands += [shlex.split(line) for line in also]
        for command in commands:
            yield (shlex.join(command).replace(tmp, TMP_SHOWN), *run(command))
    if error_paths:
        with tempfile.TemporaryDirectory() as tmp:
            commands = error_commands(Path(tmp))
            with _inside(tmp):
                for command in commands:
                    try:
                        report, code = run(command)
                    except Exception as err:  # an uncaught error exits 1 from `metron`
                        report, code = err, 1
                    yield shlex.join(command), report, code
    with tempfile.TemporaryDirectory() as tmp:
        commands = added_commands(Path(tmp), error_paths)
        with _inside(tmp):
            for command in commands:
                yield (shlex.join(command).replace(tmp, TMP_SHOWN), *run(command))


def report_digest(report) -> str:
    """sha256 of the report's canonical JSON, or `crash: <exception>`."""
    if isinstance(report, Exception):
        return f"crash: {type(report).__name__}"
    text = cli.canonical_json(report) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def contract_fields(node, path: str = "$") -> dict:
    """The contract fields of a report, keyed by their JSON path: the
    value of every CONTRACT_KEYS key at any depth, and the path and code
    of each diagnostic."""
    fields = {}
    if isinstance(node, dict):
        for key in sorted(node):
            where = f"{path}.{key}"
            if key == "diagnostics":
                for i, diagnostic in enumerate(node[key]):
                    fields[f"{where}[{i}].path"] = diagnostic["path"]
                    fields[f"{where}[{i}].code"] = diagnostic["code"]
            elif key in CONTRACT_KEYS:
                fields[where] = node[key]
            else:
                fields.update(contract_fields(node[key], where))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            fields.update(contract_fields(item, f"{path}[{i}]"))
    return fields


def contract_record(shown: str, report, code: int) -> dict:
    """One run's contract record: its exit code and contract fields, or
    the exception it raised."""
    record = {"command": shown, "exit": code}
    if isinstance(report, Exception):
        record["crash"] = type(report).__name__
    else:
        record["fields"] = contract_fields(json.loads(cli.canonical_json(report)))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--also",
        action="append",
        default=[],
        metavar="COMMAND",
        help="one more CLI command line, e.g. 'index problems/flat2x2.json --grid 5'",
    )
    parser.add_argument(
        "--bench-inputs",
        action="store_true",
        help=f"also run on the benchmark inputs of seed {BENCH_SEED}",
    )
    parser.add_argument(
        "--error-paths",
        action="store_true",
        help="also run a fixed set of rejected inputs",
    )
    parser.add_argument(
        "--contract",
        action="store_true",
        help="print the runs' contract records as one JSON list instead of digests",
    )
    args = parser.parse_args(argv)
    outcomes = runs(args.bench_inputs, args.error_paths, args.also)
    if args.contract:
        records = [contract_record(*outcome) for outcome in outcomes]
        print(json.dumps(records, indent=1, sort_keys=True))
        return 0
    for shown, report, code in outcomes:
        print(f"{report_digest(report)}  {shown}  (exit {code})", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
