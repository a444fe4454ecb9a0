#!/usr/bin/env python3
"""Print the sha256 of the JSON report of a fixed set of CLI runs.

Runs, in one process and through the same code path as `metron`:
- `metricity`, `index` and `solve-fe` on each problems/*.json;
- `alpha-scan --alphas -1,-0.5,0,0.5,1` for every statistical family;
- each extra command given with --also.

Each run prints one line, `<sha256>  <command>  (exit <code>)`, so two
checkouts can be compared with diff:

    PYTHONPATH=src python3 scripts/report_digests.py > new.txt
    (cd ../other && PYTHONPATH=src python3 /path/to/report_digests.py) > old.txt
    diff old.txt new.txt

Problem paths are taken relative to the working directory, and metron is
imported from the Python path, so the script measures whichever checkout
PYTHONPATH points at.
"""
from __future__ import annotations

import argparse
import hashlib
import shlex
import sys
from pathlib import Path

from metron import cli
from metron.statmodels import FAMILIES

ALPHAS = "-1,-0.5,0,0.5,1"


def default_commands() -> list[list[str]]:
    commands = []
    for problem in sorted(Path("problems").glob("*.json")):
        for command in ("metricity", "index", "solve-fe"):
            commands.append([command, str(problem)])
    for family in sorted(FAMILIES):
        commands.append(["alpha-scan", "--family", family, f"--alphas={ALPHAS}"])
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
    args = parser.parse_args(argv)
    commands = default_commands() + [shlex.split(line) for line in args.also]
    for command in commands:
        digest, code = report_digest(command)
        print(f"{digest}  {shlex.join(command)}  (exit {code})", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
