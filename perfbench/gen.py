"""Seeded problem-file generator for the benchmark workloads.

Writes metron problem files as plain expression strings. It imports
nothing from metron, so a change to metron's own corpus helpers, gauge
code or printer cannot change a workload.

    python3 perfbench/gen.py gauged-flat-r4 --seed 3 --out DIR
    python3 perfbench/gen.py corpus-notmetric --seed 3 --out DIR

Each call prints one JSON object mapping every written file to its
sha256.

gauged-flat-r4
    Gamma_i = -Phi^{-1} d_i Phi with Phi = L U, where L and U are
    unit-triangular with seeded polynomial off-diagonal entries. A
    unit-triangular T = I + N has the exact polynomial inverse
    sum_{k<r} (-N)^k, so every coefficient is a polynomial, computed in
    exact rational arithmetic. The connection is flat on the box, so the
    expected answer is RegularlyMetric with dimJ = r^2,
    dimS2 = r(r+1)/2, dimOmega2 = r(r-1)/2.

corpus-notmetric
    Random dense polynomial connections of total degree 2 in two
    variables, ranks cycling 2, 2, 3 (so the median latency falls inside
    the rank-2 group, not in the gap between the two groups). A generic
    connection preserves no nonzero bilinear form, so each is NotMetric
    with every dimension zero.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_HYPERBOLIC = HERE / "inputs" / "hyperbolic.json"

GAUGED_RANK = 4
GAUGED_DEGREE = 1
GAUGED_GRID = 5
GAUGED_BOX = (-0.5, 0.5)
# off-diagonal factor coefficients, all dyadic so products print exactly
GAUGED_COEFFS = tuple(Fraction(k, 4) for k in (-2, -1, 1, 2))

CORPUS_SIZE = 50
CORPUS_DEGREE = 2
CORPUS_GRID = 9
CORPUS_SCALE = 3000  # coefficients are k / 10^4 with |k| <= this


# -- polynomials in two variables: {(a, b): Fraction} for x1^a x2^b --------


def _padd(p, q, sign=1):
    out = dict(p)
    for mono, c in q.items():
        v = out.get(mono, 0) + sign * c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


def _pmul(p, q):
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            mono = (a1 + a2, b1 + b2)
            v = out.get(mono, 0) + c1 * c2
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def _pdiff(p, axis):
    out = {}
    for (a, b), c in p.items():
        e = (a, b)[axis]
        if e:
            mono = (a - 1, b) if axis == 0 else (a, b - 1)
            out[mono] = c * e
    return out


def _mat_mul(x, y):
    r = len(x)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc: dict = {}
            for k in range(r):
                acc = _padd(acc, _pmul(x[i][k], y[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _mat_add(x, y, sign=1):
    return [[_padd(a, b, sign) for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _identity(r):
    return [[{(0, 0): Fraction(1)} if i == j else {} for j in range(r)] for i in range(r)]


def _unit_triangular_inverse(t):
    """(I + N)^{-1} = sum_{k<r} (-N)^k for strictly triangular N."""
    r = len(t)
    minus_n = _mat_add(_identity(r), t, sign=-1)
    out, power = _identity(r), _identity(r)
    for _ in range(1, r):
        power = _mat_mul(power, minus_n)
        out = _mat_add(out, power)
    return out


def _random_poly(rng: random.Random, degree: int):
    monos = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return {m: rng.choice(GAUGED_COEFFS) for m in monos}


def _fmt_number(c: Fraction) -> str:
    """Exact decimal text of a nonnegative fraction whose denominator
    has no prime factor but 2 and 5."""
    for digits in range(40):
        scaled = c * 10**digits
        if scaled.denominator == 1:
            whole, frac = divmod(scaled.numerator, 10**digits)
            return f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    raise ValueError(f"coefficient {c} has no short exact decimal")


def poly_to_string(p) -> str:
    """Sum of 'c*x1^a*x2^b' terms; every term carries its coefficient,
    so no unary minus ever applies to a power."""
    if not p:
        return "0"
    parts = []
    for (a, b) in sorted(p):
        c = p[(a, b)]
        factors = [_fmt_number(abs(c))]
        if a:
            factors.append("x1" if a == 1 else f"x1^{a}")
        if b:
            factors.append("x2" if b == 1 else f"x2^{b}")
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts)


def gauged_flat_connection(seed: int):
    """Gamma[i] as r x r polynomial matrices, i = 0, 1."""
    rng = random.Random(seed)
    r, degree = GAUGED_RANK, GAUGED_DEGREE
    lower = _identity(r)
    upper = _identity(r)
    for i in range(r):
        for j in range(r):
            if i > j:
                lower[i][j] = _random_poly(rng, degree)
            elif i < j:
                upper[i][j] = _random_poly(rng, degree)
    phi = _mat_mul(lower, upper)
    phi_inv = _mat_mul(_unit_triangular_inverse(upper), _unit_triangular_inverse(lower))
    gamma = []
    for axis in (0, 1):
        d_phi = [[_pdiff(p, axis) for p in row] for row in phi]
        prod = _mat_mul(phi_inv, d_phi)
        gamma.append([[{m: -c for m, c in p.items()} for p in row] for row in prod])
    return gamma


def gauged_flat_problem(seed: int) -> dict:
    lo, hi = GAUGED_BOX
    gamma = gauged_flat_connection(seed)
    return {
        "dim": 2,
        "rank": GAUGED_RANK,
        "domain": {"lower": [lo, lo], "upper": [hi, hi], "gridPerAxis": GAUGED_GRID},
        "connection": [[[poly_to_string(p) for p in row] for row in g] for g in gamma],
        "seed": seed,
    }


def corpus_problem(rng: random.Random, rank: int) -> dict:
    monos = [(a, b) for a in range(CORPUS_DEGREE + 1) for b in range(CORPUS_DEGREE + 1 - a)]

    def entry():
        poly = {}
        for m in monos:
            k = rng.randrange(-CORPUS_SCALE, CORPUS_SCALE + 1)
            if k:
                poly[m] = Fraction(k, 10_000)
        return poly_to_string(poly)

    return {
        "dim": 2,
        "rank": rank,
        "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "gridPerAxis": CORPUS_GRID},
        "connection": [[[entry() for _ in range(rank)] for _ in range(rank)] for _ in range(2)],
        "seed": 0,
    }


def corpus_problems(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [corpus_problem(rng, 3 if k % 3 == 2 else 2) for k in range(CORPUS_SIZE)]


def _write(path: Path, data: dict) -> str:
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_inputs(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the workload's problem files under out; {file name: sha256}."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "index-hyperbolic":
        target = out / "hyperbolic.json"
        shutil.copyfile(PINNED_HYPERBOLIC, target)
        return {target.name: sha256_file(target)}
    if workload == "gauged-flat-r4":
        target = out / f"gauged-flat-r4-{seed}.json"
        return {target.name: _write(target, gauged_flat_problem(seed))}
    if workload == "corpus-notmetric":
        hashes = {}
        for k, problem in enumerate(corpus_problems(seed)):
            target = out / f"corpus-{seed}-{k:03d}.json"
            hashes[target.name] = _write(target, problem)
        return hashes
    if workload == "alpha-scan-gaussian":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "workload",
        choices=("index-hyperbolic", "alpha-scan-gaussian", "gauged-flat-r4", "corpus-notmetric"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(write_inputs(args.workload, args.seed, Path(args.out)), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
