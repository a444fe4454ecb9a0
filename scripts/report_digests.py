#!/usr/bin/env python3
"""Print the sha256 of the JSON report of a fixed set of CLI runs.

Runs, in one process and through the same code path as `metron`:
- `metricity`, `index` and `solve-fe` on each problems/*.json;
- `alpha-scan --alphas -1,-0.5,0,0.5,1` for every statistical family;
- with --bench-inputs, the benchmark inputs of seed 1: `metricity` on
  gauged-flat-r4 and on each corpus-notmetric file, `solve-fe` on
  gauged-flat-r4 and `index --grid 5` on perfbench/inputs/hyperbolic.json;
- each extra command given with --also.

Each run prints one line, `<sha256>  <command>  (exit <code>)`, so two
checkouts can be compared with diff:

    PYTHONPATH=src python3 scripts/report_digests.py > new.txt
    (cd ../other && PYTHONPATH=src python3 /path/to/report_digests.py) > old.txt
    diff old.txt new.txt

Problem paths are taken relative to the working directory, and metron is
imported from the Python path, so the script measures whichever checkout
PYTHONPATH points at. The benchmark inputs are written to a temporary
directory by perfbench/gen.py of the working directory, and shown as
<bench-inputs> in the output.
"""
from __future__ import annotations

import argparse
import hashlib
import shlex
import sys
import tempfile
from pathlib import Path

from metron import cli
from metron.statmodels import FAMILIES

ALPHAS = "-1,-0.5,0,0.5,1"
BENCH_SEED = 1
BENCH_SHOWN = "<bench-inputs>"


def default_commands() -> list[list[str]]:
    commands = []
    for problem in sorted(Path("problems").glob("*.json")):
        for command in ("metricity", "index", "solve-fe"):
            commands.append([command, str(problem)])
    for family in sorted(FAMILIES):
        commands.append(["alpha-scan", "--family", family, f"--alphas={ALPHAS}"])
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


def report_digest(argv: list[str]) -> tuple[str, int]:
    args = cli.build_parser().parse_args(argv)
    report, code = cli.run_command(args)
    text = cli.canonical_json(report) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), code


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
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        commands = default_commands()
        if args.bench_inputs:
            commands += bench_commands(Path(tmp))
        commands += [shlex.split(line) for line in args.also]
        for command in commands:
            digest, code = report_digest(command)
            shown = shlex.join(command).replace(tmp, BENCH_SHOWN)
            print(f"{digest}  {shown}  (exit {code})", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
