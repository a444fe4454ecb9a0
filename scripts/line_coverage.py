#!/usr/bin/env python3
"""Print the lines of src/metron that a pytest selection, or the
product's fixed set of CLI runs, never runs.

    python3 scripts/line_coverage.py                      # all of tests/
    python3 scripts/line_coverage.py tests/test_cli.py -k alpha
    python3 scripts/line_coverage.py --product            # the CLI runs

Run from the root of the repository. The script runs pytest in this
process under sys.settrace (and threading.settrace), tracing only frames
whose code lives in src/metron, and records every line they run. A
module's executable lines are read from its compiled code objects'
co_lines, nested functions, classes and comprehensions included. It
prints each executable line that never ran, as `path:line: source`, then
a count per module and the total, and exits with pytest's exit code.

With --product it traces `scripts/report_digests.py --bench-inputs
--error-paths` instead of pytest, its digests discarded: every CLI run
of the contract, through `cli.run_command`. A line it lists is one that
no command of the product reaches on those inputs, only a library call
or a test can; it exits with the script's exit code.

Only this process is traced: what the suite runs in a subprocess (a
fresh interpreter that imports metron) counts as not run. Arguments are
passed to pytest unchanged; without any it runs `tests`. Standard
library only, apart from the pytest it runs.
"""
from __future__ import annotations

import contextlib
import io
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "metron"


def executable_lines(code) -> set[int]:
    """The line numbers that some instruction of code, or of a code
    object nested in it, belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def trace_run(run) -> tuple[int, dict[str, set[int]]]:
    """The exit code that run() returns and, by file name, the lines of
    src/metron that ran while it ran."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    inside: dict = {}  # code object -> its file's set of run lines, or None

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def called(frame, event, arg):
        code = frame.f_code
        lines = inside.get(code, False)
        if lines is False:
            name = code.co_filename
            lines = inside[code] = (
                ran.setdefault(name, set()) if name.startswith(prefix) else None
            )
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the def line, whose RESUME fires no line event
        return local

    threading.settrace(called)
    sys.settrace(called)
    try:
        code = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def run_pytest(args: list[str]) -> int:
    import pytest

    return pytest.main(args)


def run_product() -> int:
    """report_digests.py --bench-inputs --error-paths, in this process
    and with its output dropped."""
    sys.path.insert(0, str(REPO / "scripts"))
    import report_digests

    with contextlib.redirect_stdout(io.StringIO()):
        return report_digests.main(["--bench-inputs", "--error-paths"])


def main(argv: list[str]) -> int:
    if argv == ["--product"]:
        code, ran = trace_run(run_product)
    else:
        code, ran = trace_run(lambda: run_pytest(argv or ["tests"]))
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        want = executable_lines(compile(source, str(path), "exec"))
        missed = sorted(want - ran.get(str(path), set()))
        text = source.splitlines()
        shown = path.relative_to(REPO)
        for line in missed:
            print(f"{shown}:{line}: {text[line - 1].strip()}")
        counts.append((shown, len(missed), len(want)))
    for shown, missed, total in counts:
        print(f"{shown}: {missed} of {total} executable lines not run")
    missed = sum(c[1] for c in counts)
    total = sum(c[2] for c in counts)
    print(f"total: {missed} of {total} executable lines not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
