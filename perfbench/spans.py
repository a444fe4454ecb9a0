"""In-memory span recorder that wraps metron's public functions from
outside the package.

metron's modules import each other with ``from .x import y``, so a
function is wrapped at every module where it is looked up, not where it
is defined. Spans are folded, as they close, into a table keyed by
(parent span name, span name) holding the call count, the total
duration and the self time (duration minus the child spans'). Nothing
is written until the caller asks for the table at the end of the run.
"""
from __future__ import annotations

import functools
import time


class Recorder:
    def __init__(self):
        self._stack: list[list] = []  # [name, start, time spent in children]
        self.table: dict[tuple, list] = {}  # (parent, name) -> [count, total, self]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        stack, table, clock = self._stack, self.table, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # a recursive call folds into the span already open
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += duration
                entry = table.get((parent, name))
                if entry is None:
                    entry = table[(parent, name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr by a wrapped version; a name the program no
        longer has is listed in self.missing and its metrics read 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(name, fn, on_return))

    def rows(self) -> list[list]:
        """[parent, name, count, total_s, self_s] for every recorded edge."""
        return [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(
            self.table.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))]


def _on_build(rec: Recorder, args, _result) -> None:
    transporter = args[0]
    edges = len(getattr(transporter, "tree_edges", ())) + len(
        getattr(transporter, "non_tree_edges", ())
    )
    rec.add("transport.edges", edges)
    rec.add("transport.rk4_steps", edges * int(getattr(transporter, "steps", 0)))


def _on_solve(rec: Recorder, _args, space) -> None:
    rec.add("homsolver.candidates", int(getattr(space, "constraint_dim", 0)))
    rec.add("homsolver.kept", int(getattr(space, "dimension", 0)))
    rec.add("homsolver.unstabilized", 0 if getattr(space, "stabilized", True) else 1)


def install(rec: Recorder) -> None:
    """Wrap every traced name in the imported metron package."""
    from metron import bundle, cli, expr, homsolver, metricity, statmodels, transport

    targets = [
        (cli, "validate_problem", "cli.validate_problem", None),
        (cli, "ProblemObjects", "cli.ProblemObjects", None),
        (cli, "canonical_json", "cli.canonical_json", None),
        (cli, "decide_metricity", "metricity.decide_metricity", None),
        (cli, "index_report", "metricity.index_report", None),
        (cli, "alpha_scan", "statmodels.alpha_scan", None),
        (statmodels, "alpha_scan", "statmodels.alpha_scan", None),
        (statmodels, "decide_metricity", "metricity.decide_metricity", None),
        (statmodels, "alpha_connection", "statmodels.alpha_connection", None),
        (metricity, "solve_hom", "homsolver.solve_hom", _on_solve),
        (metricity, "solve_parallel_forms", "homsolver.solve_parallel_forms", _on_solve),
        (metricity, "dual_connection", "bundle.dual_connection", None),
        (metricity, "gauge_index", "metricity.gauge_index", None),
        (homsolver, "stabilized_constraint_subspace", "homsolver.prolong", None),
        (homsolver, "get_transporter", "transport.get_transporter", None),
        (transport.GridTransporter, "__init__", "transport.GridTransporter", _on_build),
        (transport.GridTransporter, "extend", "transport.extend", None),
        (transport.GridTransporter, "discrepancies", "transport.discrepancies", None),
        (bundle.Connection, "coeff_at", "bundle.coeff_at", None),
        (expr, "parse", "expr.parse", None),
    ]
    for owner, attr, name, hook in targets:
        rec.patch(owner, attr, name, hook)


def cache_sizes() -> dict[str, int]:
    """Sizes of expr's process-wide caches, read at the end of a run."""
    from metron import expr

    return {
        "expr.intern_nodes": len(getattr(expr, "_INTERN", ())),
        "expr.derivatives": len(getattr(expr, "_DIFF_CACHE", ())),
        "expr.compiled_fns": len(getattr(expr, "_COMPILE_CACHE", ())),
    }
