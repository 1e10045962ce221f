"""Spans and counts around the calls into each halfder layer.

The tracer wraps module attributes from outside the package: nothing
under src/ changes.  Every call through a wrapped name opens a span
(name, start, end, parent); spans stay in memory and are written out when
the run ends.  A layer's self time is its spans' duration minus the part
covered by their child spans.  Counts are taken at the same boundaries.

Layers are the package's modules: cli, solver, algebras, poisson and core.
core has no span of its own (its constructors are too hot to wrap); its
cost shows in the self time of the spans above it, and it gets one count,
the garbage collections run during the traced pass.

If a wrapped name no longer exists, every metric fed by it is reported as
absent rather than as zero.
"""

from __future__ import annotations

import functools
import gc
import json
import time

# metric name -> unit; the order is the order of the report
METRICS = {
    "cli.run_s": "s",
    "cli.verify_s": "s",
    "cli.verify_residuals": "count",
    "cli.emit_s": "s",
    "solver.solve_s": "s",
    "solver.unknowns": "count",
    "solver.rows_s": "s",
    "solver.rows_kept": "count",
    "solver.rref_s": "s",
    "solver.rref_calls": "count",
    "solver.rref_rows_in": "count",
    "solver.rank": "count",
    "solver.rref_useful_ratio": "ratio",
    "solver.largest_component_rows": "count",
    "solver.stabilize_s": "s",
    "solver.contains_s": "s",
    "solver.contains_calls": "count",
    "algebras.identity_s": "s",
    "algebras.identity_calls": "count",
    "algebras.bracket_constants": "count",
    "algebras.assoc_constants": "count",
    "poisson.tpa_s": "s",
    "poisson.tpa_tuples": "count",
    "poisson.witness_s": "s",
    "poisson.witness_tested_ratio": "ratio",
    "poisson.closure_s": "s",
    "poisson.product_constants": "count",
    "core.gc_collections": "count",
    "trace.overhead_ratio": "ratio",
}

# span name -> the self-time metric it feeds
_SELF_TIME = {
    "cli.run": "cli.run_s",
    "cli.verify": "cli.verify_s",
    "cli.emit": "cli.emit_s",
    "solver.solve": "solver.solve_s",
    "solver.rows": "solver.rows_s",
    "solver.rref": "solver.rref_s",
    "solver.stabilize": "solver.stabilize_s",
    "solver.contains": "solver.contains_s",
    "algebras.identity": "algebras.identity_s",
    "poisson.tpa": "poisson.tpa_s",
    "poisson.witness": "poisson.witness_s",
    "poisson.closure": "poisson.closure_s",
}

# metrics that are not summed over passes
_NOT_PER_PASS = {
    "solver.rref_useful_ratio",
    "solver.largest_component_rows",
    "poisson.witness_tested_ratio",
    "trace.overhead_ratio",
}


def _collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        # every metric, plus the two terms of the witness ratio
        self.counts: dict[str, float] = dict.fromkeys([*METRICS, "witness.sorted", "witness.tested"], 0)
        self.absent: set[str] = set()
        self._open: list[int] = []
        self._live: list = []  # algebras and products built by the current question
        self._installed: list[tuple] = []
        self._gc_start = 0

    # -- wrapping --------------------------------------------------------

    def _wrap(self, owner, attr: str, span: str | None, feeds: tuple, before=None, after=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.update(feeds)
            return
        if span is not None and span not in self.names:
            self.names.append(span)
        sid = None if span is None else self.names.index(span)
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            if sid is None:
                result = original(*args, **kwargs)
            else:
                index = len(spans)
                spans.append([sid, time.perf_counter(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans[index][2] = time.perf_counter()
                    stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer boundary the benchmark's calls go through."""
        from halfder import algebras, cli, poisson, solver

        c = self.counts

        def add(key, n=1):
            c[key] += n

        def rref_rows(args):
            rows = list(args[0])
            add("solver.rref_rows_in", len(rows))
            add("solver.rref_calls")
            if len(rows) > c["solver.largest_component_rows"]:
                c["solver.largest_component_rows"] = len(rows)
            return (rows,) + args[1:]

        def witness_size(args):
            alg, _, window = args[:3]
            add("witness.sorted", len(alg.window_indices(window)) ** 3)
            return args

        def keep(args, _):
            self._live.append(args[0])

        w = self._wrap
        w(cli, "run_command", "cli.run", ("cli.run_s",))
        w(cli, "emit_report", "cli.emit", ("cli.emit_s",))
        w(cli, "delta_residual", "cli.verify", ("cli.verify_s", "cli.verify_residuals"),
          after=lambda a, r: add("cli.verify_residuals"))
        w(cli, "identity_residual", "algebras.identity", ("algebras.identity_s", "algebras.identity_calls"),
          after=lambda a, r: add("algebras.identity_calls"))
        for owner in (cli, solver):
            w(owner, "solve_stabilized", "solver.solve", ("solver.solve_s",))
            w(owner, "solve_delta_derivations", "solver.solve", ("solver.solve_s",))
        w(solver, "_system_rows", "solver.rows", ("solver.rows_s", "solver.unknowns", "solver.rows_kept"),
          after=lambda a, r: (add("solver.unknowns", len(a[0].unknowns)), add("solver.rows_kept", len(r))))
        w(solver, "_rref", "solver.rref",
          ("solver.rref_s", "solver.rref_calls", "solver.rref_rows_in", "solver.rank",
           "solver.rref_useful_ratio", "solver.largest_component_rows"),
          before=rref_rows, after=lambda a, r: add("solver.rank", len(r)))
        w(solver, "stabilize", "solver.stabilize", ("solver.stabilize_s",))
        w(solver.SolutionSpace, "contains", "solver.contains", ("solver.contains_s", "solver.contains_calls"),
          after=lambda a, r: add("solver.contains_calls"))
        for owner in (cli, poisson):
            w(owner, "check_tpa_window", "poisson.tpa", ("poisson.tpa_s", "poisson.tpa_tuples"),
              after=lambda a, r: add("poisson.tpa_tuples", r[1]))
        w(cli, "find_poisson_witness", "poisson.witness", ("poisson.witness_s", "poisson.witness_tested_ratio"),
          before=witness_size)
        w(poisson, "poisson_residual", None, ("poisson.witness_tested_ratio",),
          after=lambda a, r: add("witness.tested"))
        w(cli, "mutation_closure_check", "poisson.closure", ("poisson.closure_s",))
        w(algebras.AlgebraSpec, "__post_init__", None,
          ("algebras.bracket_constants", "algebras.assoc_constants"), after=keep)
        w(poisson.ProductSpec, "__init__", None, ("poisson.product_constants",), after=keep)
        self._gc_start = _collections()

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        self.counts["core.gc_collections"] += _collections() - self._gc_start

    def question_done(self):
        """Count the structure constants the question's objects computed."""
        c = self.counts
        for obj in self._live:
            if hasattr(obj, "_bcache"):
                c["algebras.bracket_constants"] += len(obj._bcache)
                c["algebras.assoc_constants"] += len(obj._acache)
            else:
                c["poisson.product_constants"] += len(obj._cache)
        self._live.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: 0.0 for name in self.names}
        for (sid, start, end, _), child in zip(self.spans, covered):
            out[self.names[sid]] += end - start - child
        return out

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float | None]:
        """Per-pass values of every metric; None where a wrapped name is gone."""
        c = dict(self.counts)
        for span, seconds in self.self_times().items():
            c[_SELF_TIME[span]] = seconds
        c["solver.rref_useful_ratio"] = (
            c["solver.rank"] / c["solver.rref_rows_in"] if c["solver.rref_rows_in"] else 0.0
        )
        c["poisson.witness_tested_ratio"] = (
            c["witness.tested"] / c["witness.sorted"] if c["witness.sorted"] else 0.0
        )
        c["trace.overhead_ratio"] = overhead_ratio
        out = {}
        for name in METRICS:
            if name in self.absent:
                out[name] = None
            elif name in _NOT_PER_PASS:
                out[name] = c[name]
            else:
                out[name] = c[name] / passes
        return out

    def write(self, path):
        """Write every span as [name, start, end, parent], times in seconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "spans": [[sid, round(s - t0, 7), round(e - t0, 7), p] for sid, s, e, p in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
