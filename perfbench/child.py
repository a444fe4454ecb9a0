"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the workload, its input files, an output directory, the
result file and whether to trace. The process imports metron, runs the
workload through the CLI entry point (`metron.cli.main`) or, for a
batch, through the library, writes each serialised report, and records
for the parent: the clock reading at the first analysis call, one entry
per analysis (report sha256, exit code, gate fields, latency) and, when
traced, the span table and counters. Its own exit status is the CLI's
exit code for single-command workloads and 0 for batches.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import workloads as wl


def _stamp_first_call(module, attr: str, stamps: list[float]) -> None:
    """Append the clock at the first call of module.attr to stamps, then
    put the original back, so the untraced run keeps no wrapper."""
    original = getattr(module, attr)

    def first_call(*args, **kwargs):
        stamps.append(time.monotonic())
        setattr(module, attr, original)
        return original(*args, **kwargs)

    setattr(module, attr, first_call)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cli(argv: list[str], out: Path, stamps: list[float]) -> tuple[list[dict], int]:
    from metron import cli

    _stamp_first_call(cli, "decide_metricity", stamps)
    start = time.monotonic()
    code = cli.main(argv + ["--quiet", "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    latency = time.monotonic() - (stamps[0] if stamps else start)
    fields = wl.report_fields(json.loads(text), code)
    return [{"sha256": _digest(text), "fields": fields, "latency_s": latency}], code


def _run_alpha_scan(out: Path, stamps: list[float]) -> list[dict]:
    from metron import cli, statmodels
    from metron.homsolver import SolveOptions

    family = statmodels.get_family("gaussian1d")
    options = SolveOptions(grid_per_axis=wl.ALPHA_GRID, steps_per_segment=wl.ALPHA_STEPS)
    stamps.append(time.monotonic())
    scan = statmodels.alpha_scan(family, wl.ALPHAS, options=options)
    per_alpha = []
    for alpha, cert in zip(scan.alphas, scan.certificates):
        per_alpha.append(
            {
                "alpha": alpha,
                "certificate": {
                    "verdict": cert.verdict,
                    "dimJ": cert.dim_j,
                    "dimS2": cert.dim_s2,
                    "dimOmega2": cert.dim_omega2,
                    "maxParallelMetricRank": cert.max_witness_rank,
                    "witnessRank": cert.witness_rank,
                    "witnessBase": cert.witness_base,
                    "residuals": cert.residuals,
                    "stabilized": cert.stabilized,
                    "certified": cert.certified,
                    "flags": list(cert.flags),
                },
            }
        )
    report = {
        "family": scan.family,
        "perAlpha": per_alpha,
        "theorem4Consistent": scan.theorem_consistent,
        "flags": list(scan.flags),
    }
    text = cli.canonical_json(report) + "\n"
    out.write_text(text, encoding="utf-8")
    latency = time.monotonic() - stamps[0]
    code = 0 if all(c.certified for c in scan.certificates) else 3
    digest = _digest(text)
    analyses = []
    for item in json.loads(text)["perAlpha"]:
        fields = wl.certificate_fields(item["certificate"])
        fields.update(alpha=item["alpha"], exit=code, theorem4Consistent=report["theorem4Consistent"])
        analyses.append({"sha256": digest, "fields": fields, "latency_s": latency})
    return analyses


def _run_corpus(inputs: list[str], out: Path, stamps: list[float]) -> list[dict]:
    from metron import cli

    _stamp_first_call(cli, "decide_metricity", stamps)
    parser = cli.build_parser()
    analyses = []
    with out.open("w", encoding="utf-8") as sink:
        for path in inputs:
            start = time.monotonic()
            report, code = cli.run_command(parser.parse_args(["metricity", path]))
            text = cli.canonical_json(report) + "\n"
            sink.write(text)
            latency = time.monotonic() - start
            analyses.append(
                {
                    "sha256": _digest(text),
                    "fields": wl.report_fields(report, code),
                    "latency_s": latency,
                }
            )
    return analyses


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload, inputs = spec["workload"], spec["inputs"]
    out = Path(spec["out"])
    import metron

    result: dict = {"metron": metron.__file__}
    rec = None
    if spec["trace"]:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    code = 0
    stamps: list[float] = []
    if workload == "index-hyperbolic":
        argv = ["index", inputs[0], "--grid", str(wl.INDEX_GRID)]
        analyses, code = _run_cli(argv, out, stamps)
    elif workload == "gauged-flat-r4":
        analyses, code = _run_cli(["metricity", inputs[0]], out, stamps)
    elif workload == "alpha-scan-gaussian":
        analyses = _run_alpha_scan(out, stamps)
    elif workload == "corpus-notmetric":
        analyses = _run_corpus(inputs, out, stamps)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    result["first_analysis"] = stamps[0] if stamps else None
    result["analyses"] = analyses
    if rec is not None:
        result["spans"] = rec.rows()
        result["counts"] = dict(rec.counts, **spans.cache_sizes())
        result["missing"] = rec.missing
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
