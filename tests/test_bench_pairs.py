"""scripts/bench_pairs.py's arithmetic on fabricated run records: its
quartiles, win counts, failure sums and line counts, with no git call
and no benchmark run."""
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))

import bench_pairs  # noqa: E402

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "pass_frac", "better": "higher"}]


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError(f"started a process: {args}")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refused)
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", refused)


def _run(wall: float, pass_frac: float, failed=0, attempted=10, correct=True) -> dict:
    """One perfbench result line, as bench_pairs reads it."""
    metrics = {"wall_s": {"value": wall}, "pass_frac": {"value": pass_frac}}
    return {"failed": failed, "attempted": attempted, "correct": correct, "metrics": metrics}


def test_summary_takes_inclusive_quartiles():
    """Of 1, 2, 3, 4 the inclusive quartiles are 1.75 and 3.25 (the
    exclusive ones would be 1.25 and 3.75); runs keep their order."""
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5,
        "q1": 1.75,
        "q3": 3.25,
        "runs": [4.0, 1.0, 3.0, 2.0],
    }


def test_compare_counts_wins_by_direction_and_sums_failures():
    results = {
        "parent": [_run(1.0, 0.9), _run(2.0, 1.0, failed=1), _run(3.0, 0.8)],
        "change": [
            _run(0.5, 1.0),
            _run(2.0, 1.0, failed=2, attempted=12),
            _run(3.5, 0.7, correct=False),
        ],
    }
    entry = bench_pairs.compare(results, METRICS)
    assert entry["pairs"] == 3
    assert entry["failed_of_attempted"] == {"parent": [1, 30], "change": [2, 32]}
    assert entry["correct"] == {"parent": True, "change": False}
    # lower wall_s wins in pair 1 only: pair 2 is a tie, pair 3 is slower
    assert entry["wall_s"]["change_wins"] == 1
    # higher pass_frac wins in pair 1 only: pair 2 is a tie, pair 3 is lower
    assert entry["pass_frac"]["change_wins"] == 1
    assert entry["wall_s"]["parent"] == bench_pairs.summary([1.0, 2.0, 3.0])
    assert entry["pass_frac"]["change"]["runs"] == [1.0, 1.0, 0.7]


def test_src_lines_counts_each_module_and_the_total(tmp_path):
    package = tmp_path / "src" / "metron"
    package.mkdir(parents=True)
    (package / "alpha.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (package / "beta.py").write_text("z = 3", encoding="utf-8")  # no final newline
    (package / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert bench_pairs.src_lines(tmp_path) == {"alpha": 2, "beta": 1, "total": 3}
