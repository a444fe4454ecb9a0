"""The contract: no change moves a verdict, a dimension, a `certified`
flag, a flag, an index field, a diagnostic or an exit code by accident.

tests/contract.json holds one record per run of
`scripts/report_digests.py --bench-inputs --error-paths`. Regenerate it
with `--contract` only for a change that means to move a record, and
say in CHANGES.md which records moved and why.
"""
import json
import sys
from pathlib import Path

import numpy as np

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
        lambda *args: solve_options(*args).replace(transport_tol=1e-30),
    )
    command = "metricity problems/hyperbolic.json"
    record = report_digests.contract_record(command, *report_digests.run(command.split()))
    assert record["fields"]["$.result.certificate.verdict"] == "NotMetric"
    assert _moved([record]) == [command]


def _canonical_json_oracle(obj, indent: int = 0) -> str:
    """canonical_json as it was written with json.dumps and one isinstance
    chain, kept here as the byte oracle for the dispatch on exact types."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, cli._F):
        return cli._format_float(obj.value, obj.digits)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return cli._format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(
                f"{pad}  {json.dumps(str(key))}: {_canonical_json_oracle(obj[key], indent + 2)}"
            )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_canonical_json_oracle(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def test_canonical_json_bytes_match_the_oracle(monkeypatch, tmp_path):
    """Every report of the contract's runs, every benchmark input and the
    awkward values serialise to the oracle's bytes."""
    monkeypatch.chdir(REPO)
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import gen

    values = [report for _, report, _ in report_digests.runs(True, True)]
    values = [v for v in values if not isinstance(v, Exception)]
    assert len(values) > 100
    for workload in ("gauged-flat-r4", "corpus-notmetric"):
        for name in sorted(gen.write_inputs(workload, report_digests.BENCH_SEED, tmp_path)):
            values.append(json.loads((tmp_path / name).read_text(encoding="utf-8")))
    for path in ("perfbench/inputs/hyperbolic.json", *sorted(Path("problems").glob("*.json"))):
        values.append(json.loads(Path(path).read_text(encoding="utf-8")))
    values += [
        {"é": "naïve ∂Γ 😀", 'a"b': "back\\slash", "\x00\t\n\x1f\x7f": "tab\tnew\nline "},
        {},
        [],
        (),
        {"nested": [{}, [], (), [[]], {"k": ()}]},
        np.arange(6.0).reshape(2, 3),
        np.array([], dtype=float),
        np.array([1, -2], dtype=np.int64),
        [np.int64(-7), np.float64(0.1), np.float64(-0.0), np.float64(np.nan)],
        [cli._F(1 / 3, 12), cli._F(float("inf")), cli._F(-1e300, 3), cli._F(2.0)],
        [True, False, None, float("nan"), float("inf"), float("-inf"), 0.1, 1e-320, 7, -0],
        {1: "int key", 2.5: "float key"},
    ]
    for value in values:
        assert cli.canonical_json(value) == _canonical_json_oracle(value)
        assert cli.canonical_json(value, 4) == _canonical_json_oracle(value, 4)
