#!/usr/bin/env python3
"""Walk the three bundled example problems through the `index` command
and print their certificates side by side.

Usage: python scripts/demo_metricity.py
"""
import json
from pathlib import Path

import numpy as np

from metron import cli

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def describe(name, filename):
    args = cli.build_parser().parse_args(["index", str(PROBLEMS / filename)])
    report, _ = cli.run_command(args)
    result = json.loads(cli.canonical_json(report))["result"]
    cert, index = result["certificate"], result["indexReport"]
    print(f"== {name}")
    print(f"   verdict          {cert['verdict']}")
    print(f"   dim J / S2 / O2  {cert['dimJ']} / {cert['dimS2']} / {cert['dimOmega2']}")
    print(f"   exact sequence   {'holds' if cert['exactSequenceHolds'] else 'VIOLATED'}")
    print(f"   gauge index      {index['sb_given_g']}  (family minimum {index['sb']})")
    print(f"   index decision   {index['ind_decision']}")
    witness = cert["witness"]
    if witness is not None:
        with np.printoptions(precision=6, suppress=True):
            print(f"   witness rank     {witness['rank']}")
            print("   witness at base point:")
            for row in np.array(witness["basePointMatrix"], dtype=float):
                print(f"      {row}")
    print()


def main() -> int:
    describe("flat rank-2 bundle over a square", "flat2x2.json")
    describe("nilpotent-curvature structure", "nilpotent.json")
    describe("half-plane Levi-Civita structure", "hyperbolic.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
