"""Spans and counts recorded around the calls into each layer of ``planted``.

A traced trial replaces module attributes of ``planted`` with wrappers that
open a span, call the original and take counts from its result. Each wrapper
sits where its caller looks the function up: the benchmark calls
``planted.solver.spi_solve``, the CSP pipeline calls ``planted.harness.spi_solve``
and the CLI calls ``planted.cli.spi_solve``, so all three are wrapped. Nothing
under ``src/`` is edited, and an untraced trial patches nothing.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one process, kept in memory; the stack gives each span its
    parent, which is correct because a workload runs on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name) as rec:
                out = fn(*args, **kwargs)
            # counted after the span closes, so counting is not timed as the layer
            if count is not None:
                rec.counts.update(count(out, *args, **kwargs))
            return out

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers of TARGETS; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Counts taken from each wrapped call's result
# ---------------------------------------------------------------------------


def _graph_items(out, *args, **kwargs):
    return {"items": out[0].num_edges}


def _csp_items(out, *args, **kwargs):
    return {"items": out.m}


def _reduced_counts(out, instance, *args, **kwargs):
    return {"tuples": len(out.indexer), "edges_out": out.graph.num_edges, "clauses_in": instance.m}


def _decode_counts(out, *args, **kwargs):
    return {"inconsistent_pairs": out[1]}


def _split_counts(out, *args, **kwargs):
    """Computed byte counts, not measured traffic. ``mt_bytes`` are the arrays
    apply_mt reads when the sub-graph multiplies first in an iteration,
    ``m_bytes`` those apply_m reads when it multiplies second."""
    subs = out.subs
    return {
        "sub_edges": [s.num_edges for s in subs],
        "sub_support": [len(s.support) for s in subs],
        "split_bytes": sum(
            s.rows.nbytes + s.cols.nbytes + s.support.nbytes + s.col_rank.nbytes + s.row_degrees.nbytes
            for s in subs
        ),
        "mt_bytes": [s.rows.nbytes + s.col_rank.nbytes + s.support.nbytes for s in subs],
        "m_bytes": [s.cols.nbytes + s.rows.nbytes + s.row_degrees.nbytes for s in subs],
    }


def _solve_counts(out, *args, **kwargs):
    return {"ops_edge_touches": out.ops_edge_touches, "iterations": out.iterations}


def _file_bytes(out, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _cli_name(argv, *args, **kwargs):
    return "cli." + argv[0]


# (module, attribute, span name, count function)
TARGETS = [
    ("planted.instances", "sample_bipartite_block", "instances.sample", _graph_items),
    ("planted.instances", "sample_planted_csp", "instances.sample", _csp_items),
    ("planted.cli", "sample_bipartite_block", "instances.sample", _graph_items),
    ("planted.harness", "solve_csp_end_to_end", "harness.solve_csp", None),
    ("planted.harness", "distribution_complexity", "fourier.analyze", None),
    ("planted.harness", "csp_to_bipartite", "reduction.reduce", _reduced_counts),
    ("planted.harness", "partition_to_assignment", "reduction.decode", _decode_counts),
    ("planted.solver", "spi_solve", "solver.spi_solve", _solve_counts),
    ("planted.harness", "spi_solve", "solver.spi_solve", _solve_counts),
    ("planted.cli", "spi_solve", "solver.spi_solve", _solve_counts),
    ("planted.solver", "split_edges", "solver.split", _split_counts),
    ("planted.files", "write_sbm", "files.write", _file_bytes),
    ("planted.files", "read_sbm", "files.read", _file_bytes),
    ("planted.cli", "main", _cli_name, None),
]

# The end-to-end metric each layer metric should move, and on which workload.
PREDICTIONS = {
    "instances.sample_s": ("trial_s_p50, items_per_s; never solve_s_p50", "sbm_square, sbm_lopsided; a little csp_3xor"),
    "instances.items": ("count, repeats exactly", "all"),
    "fourier.analyze_s": ("under 1 ms; there so that a regression shows", "csp_3xor"),
    "reduction.reduce_s": ("solve_s_p50, trial_s_p50, peak_rss_mb", "csp_3xor only"),
    "reduction.tuples": ("solve_s_p50, trial_s_p50, peak_rss_mb", "csp_3xor only"),
    "reduction.keep_ratio": ("solve_s_p50, trial_s_p50, peak_rss_mb", "csp_3xor only"),
    "reduction.decode_s": ("solve_s_p50, trial_s_p50, peak_rss_mb", "csp_3xor only"),
    "reduction.inconsistent_pairs": ("solve_s_p50, trial_s_p50, peak_rss_mb", "csp_3xor only"),
    "solver.split_s": ("solve_s_p50", "sbm_square (~70% of the solve), sbm_lopsided"),
    "solver.iterate_s": ("solve_s_p50", "sbm_lopsided"),
    "solver.ops_edge_touches": ("count, repeats exactly", "all"),
    "solver.edges_per_sub": ("count, repeats exactly", "all"),
    "solver.support_per_sub": ("count, repeats exactly", "all"),
    "solver.split_bytes": ("computed; peak_rss_mb", "sbm_square, sbm_lopsided"),
    "solver.iter_bytes": ("computed; solver.iterate_s", "sbm_lopsided"),
    "harness.self_s": ("solve_s_p50", "csp_3xor"),
    "files.write_s": ("trial_s_p50", "cli_files"),
    "files.read_s": ("solve_s_p50", "cli_files"),
    "files.bytes": ("count of bytes written", "cli_files"),
    "files.write_mb_per_s": ("trial_s_p50", "cli_files"),
    "files.read_mb_per_s": ("solve_s_p50", "cli_files"),
    "cli.gen_self_s": ("trial_s_p50", "cli_files only"),
    "cli.solve_self_s": ("solve_s_p50", "cli_files only"),
    "trace.overhead_s": ("none: traced minus untraced trial_s_p50", "all"),
}


# ---------------------------------------------------------------------------
# From the spans of one trial to per-layer values
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _iter_bytes(spans: list[Span]) -> int:
    """Bytes the implicit products read over the iterations a solve ran: per
    iteration the first sub-graph's apply_mt arrays, the second's apply_m
    arrays and the support-sized vector written by one and read by the other."""
    total = 0
    for idx, s in enumerate(spans):
        if s.name != "solver.spi_solve":
            continue
        split = next((c for c in spans if c.parent == idx and c.name == "solver.split"), None)
        if split is None:
            continue
        c = split.counts
        for i in range(s.counts["iterations"]):
            total += c["mt_bytes"][2 * i] + c["m_bytes"][2 * i + 1] + 16 * c["sub_support"][2 * i]
    return total


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one trial; a layer the trial never reached reads 0."""
    selfs = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def per_sub_median(key):
        vals = [v for s in spans if s.name == "solver.split" for v in s.counts[key]]
        return statistics.median(vals) if vals else 0

    clauses_in = count("reduction.reduce", "clauses_in")
    write_s, read_s = total("files.write"), total("files.read")
    written, read = count("files.write", "bytes"), count("files.read", "bytes")
    return {
        "instances.sample_s": total("instances.sample"),
        "instances.items": count("instances.sample", "items"),
        "fourier.analyze_s": total("fourier.analyze"),
        "reduction.reduce_s": total("reduction.reduce"),
        "reduction.tuples": count("reduction.reduce", "tuples"),
        "reduction.keep_ratio": count("reduction.reduce", "edges_out") / clauses_in if clauses_in else 0.0,
        "reduction.decode_s": total("reduction.decode"),
        "reduction.inconsistent_pairs": count("reduction.decode", "inconsistent_pairs"),
        "solver.split_s": total("solver.split"),
        "solver.iterate_s": self_of("solver.spi_solve"),
        "solver.ops_edge_touches": count("solver.spi_solve", "ops_edge_touches"),
        "solver.edges_per_sub": per_sub_median("sub_edges"),
        "solver.support_per_sub": per_sub_median("sub_support"),
        "solver.split_bytes": count("solver.split", "split_bytes"),
        "solver.iter_bytes": _iter_bytes(spans),
        "harness.self_s": self_of("harness.solve_csp"),
        "files.write_s": write_s,
        "files.read_s": read_s,
        "files.bytes": written,
        "files.write_mb_per_s": written / 1e6 / write_s if write_s else 0.0,
        "files.read_mb_per_s": read / 1e6 / read_s if read_s else 0.0,
        "cli.gen_self_s": self_of("cli.gen-sbm"),
        "cli.solve_self_s": self_of("cli.solve"),
    }


def stage_rows(trials: list[list[Span]]) -> list[tuple[str, float, float, float]]:
    """(span name, calls per trial, median total s, median self s) per span
    name, in order of first appearance; medians are over trials."""
    names: list[str] = []
    per_trial = []
    for spans in trials:
        selfs = self_times(spans)
        agg: dict[str, list[float]] = {}
        for s, t in zip(spans, selfs):
            if s.name not in names:
                names.append(s.name)
            row = agg.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += t
        per_trial.append(agg)
    rows = []
    for name in names:
        cells = [agg.get(name, [0, 0.0, 0.0]) for agg in per_trial]
        rows.append((
            name,
            statistics.median(c[0] for c in cells),
            statistics.median(c[1] for c in cells),
            statistics.median(c[2] for c in cells),
        ))
    return rows


# Stage orderings of the single-run baseline table in ROADMAP.md. "a >> b"
# is read as a >= 3 b. A later change may break an ordering on purpose, so a
# broken one is reported, not counted as a failure.
MUCH = 3.0


def ordering_checks(workload: str, layer: dict[str, float], solve_s: float) -> list[tuple[str, bool]]:
    """``layer`` holds per-layer medians; ``solve_s`` is the median time of
    the whole spi_solve span."""
    if workload == "sbm_square":
        ok = layer["instances.sample_s"] > layer["solver.split_s"] > layer["solver.iterate_s"]
        return [("sample > split > iterate", ok)]
    if workload == "csp_3xor":
        return [("reduce >> solve", layer["reduction.reduce_s"] >= MUCH * solve_s)]
    if workload == "cli_files":
        ok = layer["files.write_s"] > layer["files.read_s"] >= MUCH * solve_s
        return [("write > read >> solve", ok)]
    return []
