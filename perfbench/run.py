"""metron benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a metron checkout. It writes the workload's
inputs from the seed (perfbench/gen.py), then runs the workload again and
again, each time in a fresh interpreter (perfbench/child.py) that imports
metron from ./src, until the measuring time is spent. It checks every
answer against closed-form expectations (perfbench/workloads.py) and
prints, as the last line of standard output, one JSON object with keys
correct, attempted, failed and metrics. The line before it is a JSON
record of the machine, the input hashes and the raw samples.

--trace 0 reports the end-to-end metrics from untraced repetitions.
--trace 1 spends half the time on untraced repetitions and half on
repetitions that wrap metron's public functions (perfbench/spans.py), and
reports the per-layer metrics.

Right after every repetition it times a fixed reference process
(perfbench/reference.py), and scales every time of that repetition by
REF_S / (the reference's wall time), so it reads in seconds on a host
where the reference takes REF_S. The shared host this was built on runs
up to 2x slower for seconds to minutes at a time; the reference slows
with it. The record line keeps the raw wall times and reference times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads as wl  # noqa: E402

MIN_REPS = 2  # byte-identity needs two reports of the same input
REF_S = 0.30  # reference wall time on the 2-vCPU host in its fast phase
RUN_LIMIT_S = 150.0  # no repetition starts that could end after this
WORK_DIR = ".perfbench_work"


def machine_record() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            record["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        record["cpu"] = platform.processor()
    try:
        import numpy

        record["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as err:
        record.setdefault("numpy", None)
        record["blas"] = f"unknown ({type(err).__name__})"
    return record


def spawn(argv: list[str], root: Path, env: dict, limit_s: float, stderr):
    """Run argv to its end, killed after limit_s; (start, wall, exit code,
    rusage of that process alone, from wait4)."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage


def run_reference(root: Path, env: dict) -> float:
    """Wall time of one reference process."""
    argv = [sys.executable, str(HERE / "reference.py")]
    _, wall, status, _ = spawn(argv, root, env, 60.0, subprocess.DEVNULL)
    if status != 0:
        raise RuntimeError(f"reference process exited with {status}")
    return wall


def run_rep(root: Path, work: Path, env: dict, spec: dict, limit_s: float) -> dict:
    """One child process; wall time, CPU and peak RSS come from wait4."""
    n = spec["index"]
    spec = dict(spec, out=str(work / f"report-{n}.json"), result=str(work / f"result-{n}.json"))
    spec_path = work / f"spec-{n}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"stderr-{n}.txt", "w", encoding="utf-8") as err:
        argv = [sys.executable, str(HERE / "child.py"), str(spec_path)]
        start, wall, status, usage = spawn(argv, root, env, limit_s, err)
    rep = {
        "trace": spec["trace"],
        "status": status,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    result_path = Path(spec["result"])
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        rep.update(result)
        if result.get("first_analysis") is not None:
            rep["setup_s"] = result["first_analysis"] - start
    else:
        rep["error"] = (work / f"stderr-{n}.txt").read_text(encoding="utf-8")[-2000:]
    return rep


def run_phase(reps, make_rep, budget_s: float, min_reps: int, started: float) -> None:
    """Append repetitions to reps until the next one would overrun the budget."""
    while True:
        reps.append(make_rep(RUN_LIMIT_S + 20.0 - (time.monotonic() - started)))
        elapsed = time.monotonic() - started
        estimate = statistics.median(r["wall_s"] + r["ref_s"] for r in reps)
        if elapsed + estimate > RUN_LIMIT_S:
            return
        if len(reps) >= min_reps and elapsed + estimate > budget_s:
            return


def gate(workload: str, n_inputs: int, reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): every analysis of every repetition
    against its expectation, and every report against the first
    repetition's report for the same input."""
    want = wl.expected(workload, n_inputs)
    attempted = failed = 0
    reasons: list[str] = []
    reference = None
    for r, rep in enumerate(reps):
        attempted += len(want)
        analyses = rep.get("analyses")
        if analyses is None or len(analyses) != len(want):
            failed += len(want)
            reasons.append(f"rep {r}: status {rep['status']}: {rep.get('error', '')[-300:]}")
            continue
        if reference is None:
            reference = [a["sha256"] for a in analyses]
        for k, (got, expect) in enumerate(zip(analyses, want)):
            wrong = wl.check(got["fields"], expect)
            if got["sha256"] != reference[k]:
                wrong.append("report-bytes")
            if wrong:
                failed += 1
                reasons.append(f"rep {r} analysis {k}: {','.join(wrong)}")
    return attempted, failed, reasons


COUNT, SECONDS, RATIO = "count", "s", "ratio"


def rescale(reps: list[dict]) -> None:
    """Multiply every time of each repetition by REF_S / (the wall time of
    the reference process run right after it), in place."""
    for rep in reps:
        factor = REF_S / rep["ref_s"]
        for key in ("wall_s", "setup_s", "cpu_s"):
            if key in rep:
                rep[key] *= factor
        for analysis in rep.get("analyses", []):
            analysis["latency_s"] *= factor
        for row in rep.get("spans", []):
            row[3] *= factor
            row[4] *= factor


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    values = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), SECONDS),
        "setup_s": (statistics.median(r.get("setup_s", r["wall_s"]) for r in reps), SECONDS),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
        "pass_frac": (1.0 - failed / attempted, RATIO),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def analysis_latency(reps: list[dict]) -> dict | None:
    """Per-analysis latency deciles, pooled over repetitions; only where
    a run holds at least 100 analyses, so p90 has ten samples beyond it."""
    latencies = [a["latency_s"] for rep in reps for a in rep.get("analyses", [])]
    if len(latencies) < 100:
        return None
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"samples": len(latencies), "p50_s": deciles[4], "p90_s": deciles[8]}


def layer_values(rep: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition."""
    rows, counts = rep["spans"], rep["counts"]

    def calls(name):
        return sum(r[2] for r in rows if r[1] == name)

    def total(name):
        return sum(r[3] for r in rows if r[1] == name)

    def own(name):
        return sum(r[4] for r in rows if r[1] == name)

    lookups = calls("transport.get_transporter")
    built_on_lookup = sum(
        r[2] for r in rows if r[0] == "transport.get_transporter" and r[1] == "transport.GridTransporter"
    )
    candidates = counts.get("homsolver.candidates", 0)
    kept = counts.get("homsolver.kept", 0)
    top_level = sum(r[3] for r in rows if r[0] is None)
    solves = ("homsolver.solve_hom", "homsolver.solve_parallel_forms")
    return {
        "cli.load_s": (total("cli.validate_problem") + total("cli.ProblemObjects"), SECONDS),
        "cli.report_s": (total("cli.canonical_json"), SECONDS),
        "expr.parse_calls": (calls("expr.parse"), COUNT),
        "expr.parse_s": (total("expr.parse"), SECONDS),
        "expr.intern_nodes": (counts.get("expr.intern_nodes", 0), COUNT),
        "expr.derivatives": (counts.get("expr.derivatives", 0), COUNT),
        "expr.compiled_fns": (counts.get("expr.compiled_fns", 0), COUNT),
        "bundle.coeff_evals": (calls("bundle.coeff_at"), COUNT),
        "bundle.coeff_eval_s": (total("bundle.coeff_at"), SECONDS),
        "bundle.dual_s": (total("bundle.dual_connection"), SECONDS),
        "transport.lookups": (lookups, COUNT),
        "transport.builds": (calls("transport.GridTransporter"), COUNT),
        "transport.cache_hit_ratio": ((lookups - built_on_lookup) / lookups if lookups else 0.0, RATIO),
        "transport.build_s": (total("transport.GridTransporter"), SECONDS),
        "transport.edges": (counts.get("transport.edges", 0), COUNT),
        "transport.rk4_steps": (counts.get("transport.rk4_steps", 0), COUNT),
        "transport.extend_s": (total("transport.extend"), SECONDS),
        "transport.discrepancy_s": (total("transport.discrepancies"), SECONDS),
        "homsolver.solves": (sum(calls(s) for s in solves), COUNT),
        "homsolver.prolong_calls": (calls("homsolver.prolong"), COUNT),
        "homsolver.prolong_s": (total("homsolver.prolong"), SECONDS),
        "homsolver.solve_self_s": (sum(own(s) for s in solves), SECONDS),
        "homsolver.candidates": (candidates, COUNT),
        "homsolver.kept": (kept, COUNT),
        "homsolver.kept_ratio": (kept / candidates if candidates else 0.0, RATIO),
        "homsolver.unstabilized": (counts.get("homsolver.unstabilized", 0), COUNT),
        "metricity.decide_s": (total("metricity.decide_metricity"), SECONDS),
        "metricity.witness_s": (own("metricity.decide_metricity"), SECONDS),
        "metricity.index_s": (total("metricity.index_report"), SECONDS),
        "metricity.gauge_index_calls": (calls("metricity.gauge_index"), COUNT),
        "metricity.gauge_index_s": (total("metricity.gauge_index"), SECONDS),
        "statmodels.alpha_connections": (calls("statmodels.alpha_connection"), COUNT),
        "statmodels.alpha_connection_s": (total("statmodels.alpha_connection"), SECONDS),
        "trace.wall_s": (rep["wall_s"], SECONDS),
        "other_s": (rep["wall_s"] - top_level, SECONDS),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Medians over the traced repetitions for times, the first traced
    repetition for counts; and whether every count repeated exactly."""
    samples = [layer_values(rep) for rep in traced if "spans" in rep]
    if not samples:
        return {}, False
    metrics = {}
    for name, (first, unit) in samples[0].items():
        value = first if unit == COUNT else statistics.median(s[name][0] for s in samples)
        metrics[name] = {"value": value, "unit": unit}
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["process.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in untraced), "unit": SECONDS}
    metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"] - untraced_wall, "unit": SECONDS}
    repeat = all(
        s[name][0] == samples[0][name][0] for s in samples for name, (_, unit) in s.items() if unit == COUNT
    )
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metron benchmark")
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "metron" / "__init__.py").is_file():
        print("perfbench: run from a metron checkout: ./src/metron is missing", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        machine = machine_record()
        hashes = gen.write_inputs(args.workload, args.seed, work / "inputs")
        inputs = [str(work / "inputs" / name) for name in sorted(hashes)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # compile metron's bytecode once so no timed repetition pays for it
        subprocess.run([sys.executable, "-c", "import metron.cli"], cwd=root, env=env, check=True)

        started = time.monotonic()
        untraced: list[dict] = []
        traced: list[dict] = []

        def make_rep(trace: bool):
            def rep(limit_s: float) -> dict:
                spec = {"workload": args.workload, "inputs": inputs, "trace": trace,
                        "index": len(untraced) + len(traced)}
                result = run_rep(root, work, env, spec, limit_s)
                result["ref_s"] = run_reference(root, env)
                return result
            return rep

        budget = args.seconds / 2 if args.trace else args.seconds
        run_phase(untraced, make_rep(False), budget, MIN_REPS, started)
        if args.trace:
            run_phase(traced, make_rep(True), args.seconds, 1, started)
        reps = untraced + traced
        raw_walls = [[r["wall_s"] for r in phase] for phase in (untraced, traced)]
        rescale(reps)
        attempted, failed, reasons = gate(args.workload, len(inputs), reps)
        metron_paths = {rep.get("metron") for rep in reps} - {None}
        if metron_paths - {str(root / "src" / "metron" / "__init__.py")}:
            failed = attempted
            reasons.append(f"metron imported from {sorted(metron_paths)}")
        if args.trace:
            metrics, repeat = per_layer(untraced, traced)
        else:
            metrics, repeat = end_to_end(untraced, attempted, failed), None
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine,
            "inputs": hashes,
            "untraced_walls_s": raw_walls[0],
            "traced_walls_s": raw_walls[1],
            "reference_s": [r["ref_s"] for r in reps],
            "analysis_latency": analysis_latency(untraced),
            "counts_repeat": repeat,
            "missing_spans": sorted({m for r in traced for m in r.get("missing", [])}),
            "spans": traced[0].get("spans") if traced else None,
            "failures": reasons[:20],
        }
        print(json.dumps(info, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
