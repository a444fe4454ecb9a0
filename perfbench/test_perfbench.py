"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", ["gauged-flat-r4", "corpus-notmetric"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = gen.write_inputs(workload, 11, tmp_path / "a")
    again = gen.write_inputs(workload, 11, tmp_path / "b")
    other = gen.write_inputs(workload, 12, tmp_path / "c")
    assert list(first.values()) == list(again.values())
    assert set(first.values()).isdisjoint(other.values())


def test_pinned_input_is_unchanged():
    # the copy of problems/hyperbolic.json taken when the benchmark was defined
    digest = "6ae8a8fdb2ab76cf6b01e6f7122681d25742793a29cb7c47449661c041a509ff"
    assert gen.sha256_file(gen.PINNED_HYPERBOLIC) == digest


def test_gauged_flat_factors_give_a_flat_connection():
    # R_01 = d_0 G_1 - d_1 G_0 + G_1 G_0 - G_0 G_1, exactly, in rationals
    g0, g1 = gen.gauged_flat_connection(5)
    d0_g1 = [[gen._pdiff(p, 0) for p in row] for row in g1]
    d1_g0 = [[gen._pdiff(p, 1) for p in row] for row in g0]
    curv = gen._mat_add(
        gen._mat_add(d0_g1, d1_g0, sign=-1),
        gen._mat_add(gen._mat_mul(g1, g0), gen._mat_mul(g0, g1), sign=-1),
    )
    assert all(p == {} for row in curv for p in row)


def _rep(fields_list, digest="d"):
    return {
        "status": 0,
        "analyses": [{"sha256": digest, "fields": f, "latency_s": 1.0} for f in fields_list],
    }


def test_gate_counts_a_wrong_expectation_as_a_failure(monkeypatch):
    good = dict(wl.EXPECTED_GAUGED)
    assert run.gate("gauged-flat-r4", 1, [_rep([good]), _rep([good])]) == (2, 0, [])
    monkeypatch.setattr(wl, "EXPECTED_GAUGED", dict(good, dimS2=9))
    attempted, failed, reasons = run.gate("gauged-flat-r4", 1, [_rep([good])])
    assert (attempted, failed) == (1, 1)
    assert "dimS2" in reasons[0]


def test_gate_counts_changed_bytes_and_crashes():
    good = dict(wl.EXPECTED_GAUGED)
    reps = [_rep([good], "a"), _rep([good], "b"), {"status": 1, "error": "Traceback"}]
    attempted, failed, reasons = run.gate("gauged-flat-r4", 1, reps)
    assert (attempted, failed) == (3, 2)
    assert "report-bytes" in reasons[0]


def test_traced_and_untraced_reports_are_identical(tmp_path):
    inputs = gen.write_inputs("index-hyperbolic", 1, tmp_path / "inputs")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    base = {
        "workload": "index-hyperbolic",
        "inputs": [str(tmp_path / "inputs" / name) for name in inputs],
    }
    plain = run.run_rep(ROOT, tmp_path, env, dict(base, index=0, trace=False), 120.0)
    traced = run.run_rep(ROOT, tmp_path, env, dict(base, index=1, trace=True), 120.0)
    assert plain["status"] == traced["status"] == 0
    assert [a["sha256"] for a in plain["analyses"]] == [a["sha256"] for a in traced["analyses"]]
    assert (tmp_path / "report-0.json").read_bytes() == (tmp_path / "report-1.json").read_bytes()
    assert run.gate("index-hyperbolic", 1, [plain, traced])[1] == 0

    # self times partition the top-level spans, so they add up to the
    # traced wall time together with other_s
    rows = traced["spans"]
    top = sum(r[3] for r in rows if r[0] is None)
    assert sum(r[4] for r in rows) == pytest.approx(top, rel=1e-9)
    layer = run.layer_values(traced)
    assert layer["other_s"][0] + top == pytest.approx(traced["wall_s"])
    assert not traced["missing"]

    # host-speed scaling multiplies every time of a repetition alike
    traced["ref_s"] = 2 * run.REF_S
    run.rescale([traced])
    assert run.layer_values(traced)["other_s"][0] == pytest.approx(layer["other_s"][0] / 2)
    assert sum(r[4] for r in traced["spans"]) == pytest.approx(top / 2)
