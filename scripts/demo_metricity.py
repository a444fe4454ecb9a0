#!/usr/bin/env python3
"""Walk the three bundled example structures through the full pipeline
and print their certificates side by side.

Usage: python scripts/demo_metricity.py
"""
import numpy as np

from metron.corpus import (
    flat_connection,
    half_plane_levi_civita,
    nilpotent_connection,
)
from metron.metricity import decide_metricity, index_report


def describe(name, conn):
    cert = decide_metricity(conn)
    report = index_report(conn, cert)
    print(f"== {name}")
    print(f"   verdict          {cert.verdict}")
    print(f"   dim J / S2 / O2  {cert.dim_j} / {cert.dim_s2} / {cert.dim_omega2}")
    print(f"   exact sequence   {'holds' if cert.exact_sequence_ok else 'VIOLATED'}")
    print(f"   gauge index      {report.sb_given_g}  (family minimum {report.sb})")
    print(f"   index decision   {report.ind_decision}")
    if cert.witness_base is not None:
        with np.printoptions(precision=6, suppress=True):
            print(f"   witness rank     {cert.witness_rank}")
            print("   witness at base point:")
            for row in cert.witness_base:
                print(f"      {row}")
    print()


def main() -> int:
    describe("flat rank-2 bundle over a square", flat_connection())
    describe("nilpotent-curvature structure", nilpotent_connection())
    describe("half-plane Levi-Civita structure", half_plane_levi_civita()[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
