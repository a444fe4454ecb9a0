"""The contract: no change moves a verdict, a dimension, a `certified`
flag, a flag, an index field, a diagnostic or an exit code by accident.

tests/contract.json holds one record per run of
`scripts/report_digests.py --bench-inputs --error-paths`. Regenerate it
with `--contract` only for a change that means to move a record, and
say in CHANGES.md which records moved and why.
"""
import dataclasses
import json
import sys
from pathlib import Path

from metron import cli

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))

import report_digests  # noqa: E402

CONTRACT = json.loads((REPO / "tests" / "contract.json").read_text(encoding="utf-8"))


def _moved(records: list[dict]) -> list[str]:
    """Commands whose records differ from the contract's."""
    want = {record["command"]: record for record in CONTRACT}
    return [record["command"] for record in records if want.get(record["command"]) != record]


def test_every_contract_record_holds(monkeypatch):
    monkeypatch.chdir(REPO)
    outcomes = report_digests.runs(bench_inputs=True, error_paths=True)
    records = [report_digests.contract_record(*outcome) for outcome in outcomes]
    assert [r["command"] for r in records] == [r["command"] for r in CONTRACT]
    assert _moved(records) == []


def test_contract_catches_a_moved_verdict(monkeypatch):
    """A transport tolerance no genuine solution meets turns the half
    plane NotMetric: its record no longer matches."""
    monkeypatch.chdir(REPO)
    solve_options = cli._solve_options
    monkeypatch.setattr(
        cli,
        "_solve_options",
        lambda *args: dataclasses.replace(solve_options(*args), transport_tol=1e-30),
    )
    command = "metricity problems/hyperbolic.json"
    record = report_digests.contract_record(command, *report_digests.run(command.split()))
    assert record["fields"]["$.result.certificate.verdict"] == "NotMetric"
    assert _moved([record]) == [command]
