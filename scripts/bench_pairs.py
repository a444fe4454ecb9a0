#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and write the
comparison as a BENCH_<n>.json file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --out BENCH_33.json --pairs 10 --seconds 10 \\
        --summary "what the change does" --claim "what it claims, or none"

Run from the root of the repository. Each commit is unpacked by
`git archive` into a temporary directory, and each run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
from the root of one of them. The workloads and end-to-end metrics,
with the direction in which each is better, are read from the
`BENCHMARK.json` of the change. The pairs of one workload run one after
another, before the next workload's; the parent runs first in odd pairs
and the change first in even pairs. To compare uncommitted work, stage
it and pass `--change "$(git stash create)"`, which names a commit of
the index and the working tree without changing either.

For each workload and metric the file holds every run's value, the
median and the quartiles (inclusive method) on each side, and
`change_wins`, the number of pairs in which the change reads better; a
tie is no win. `failed_of_attempted` sums perfbench's failed and
attempted operations over the runs of a side, and `correct` holds when
every run of that side was correct. `src_lines` counts the lines of
each module of src/metron on both sides. Standard library only.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def unpack(commit: str, directory: Path) -> None:
    """The tree of commit, as `git archive` gives it, under directory."""
    directory.mkdir()
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {commit} failed")


def src_lines(root: Path) -> dict[str, int]:
    """Lines per module of src/metron, and their total."""
    counts = {
        path.stem: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src" / "metron").glob("*.py"))
    }
    return {**counts, "total": sum(counts.values())}


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench run from the root of a checkout."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "median": round(median, 5),
        "q1": round(q1, 5),
        "q3": round(q3, 5),
        "runs": [round(v, 4) for v in runs],
    }


def compare(results: dict, metrics: list[dict]) -> dict:
    """One workload's entry from its results per side, in pair order."""
    entry = {
        "pairs": len(results["parent"]),
        "failed_of_attempted": {
            side: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
            for side, rs in results.items()
        },
        "correct": {side: all(r["correct"] for r in rs) for side, rs in results.items()},
    }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        entry[name] = {side: summary(values[side]) for side in SIDES}
        entry[name]["change_wins"] = wins
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", required=True, help="commit of the change")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0, help="--seconds of each run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="only these workloads (repeatable)")
    parser.add_argument("--summary", default="", help="what the change does")
    parser.add_argument("--claim", default="none", help="the gain the change claims, if any")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    commits = {"parent": git("rev-parse", "--short", args.parent)}
    commits["change"] = git("rev-parse", "--short", args.change)
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            unpack(commits[side], roots[side])
        declared = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = args.workload or [w["name"] for w in declared["workloads"]]
        end_to_end = {}
        for workload in workloads:
            results = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = bench(roots[side], workload, args.seed, args.seconds)
                    results[side].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair + 1} {side}: wall_s {wall:.4f}", file=sys.stderr)
            end_to_end[workload] = compare(results, declared["end_to_end"])
        lines = {side: src_lines(roots[side]) for side in SIDES}
    report = {
        "change": args.summary,
        "parent": commits["parent"],
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "command": (
            f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g}"
            " --trace 0, from the root of each checkout (both by git archive; the change is"
            f" {commits['change']})"
        ),
        "method": (
            f"{args.pairs} pairs per workload, one workload after another; parent first in odd"
            " pairs, change first in even pairs. Each value is the end-to-end metric one run"
            " reports; median, quartiles (inclusive method) and the pairs in which the change"
            " reads better are given per metric (scripts/bench_pairs.py)."
        ),
        "claim": args.claim,
        "end_to_end": end_to_end,
        "src_lines": lines,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
