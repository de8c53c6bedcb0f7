"""Stage-level spans around calls into congestcolor's public functions.

A `Tracer` replaces each function in `TRACED` by a wrapper, in every
congestcolor module that holds a reference to it, for the duration of
`installed()`. The program itself is not changed. Per-node hot methods such as
`Network.rng` and `Network.assign_color` are deliberately not wrapped: spans
stay at stage-call granularity so that tracing costs little.

Each span records wall time and the `net.stats` round and message counters at
entry and exit. A span's self value is its own delta minus the deltas of its
child spans, so self values of all spans inside one `run_pipeline` add up to
that call's totals. Negative bookings (`_parallel_discount`) stay in the self
rounds of the stage that books them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, function, self-time metric)
TRACED = (
    ("graphs", "generate", "graphs.generate_s"),
    ("graphs", "make_palettes", "graphs.make_palettes_s"),
    ("graphs", "verify_coloring", "graphs.verify_coloring_s"),
    ("sim", "new_network", "sim.new_network_s"),
    ("trials", "slack_generation", "trials.slack_generation_s"),
    ("trials", "random_color_trial", "trials.random_color_trial_s"),
    ("trials", "try_color_round", "trials.try_color_round_s"),
    ("acd", "compute_acd", "acd.compute_acd_s"),
    ("overlay", "compute_overlay", "overlay.compute_overlay_s"),
    ("overlay", "verify_overlay", "overlay.verify_overlay_s"),
    ("overlay", "route", "overlay.route_s"),
    ("dense_sparse", "color_sparse_nodes", "dense_sparse.color_sparse_nodes_s"),
    ("dense_sparse", "color_dense_nodes", "dense_sparse.color_dense_nodes_s"),
    ("dense_sparse", "partition_layers", "dense_sparse.partition_layers_s"),
    ("dense_sparse", "synchronized_color_trial", "dense_sparse.sync_trial_s"),
    ("dense_sparse", "_layer_metrics", "dense_sparse.layer_metrics_s"),
    ("small_degree", "color_small_degree", "small_degree.color_small_degree_s"),
    ("small_degree", "shatter", "small_degree.shatter_s"),
    ("small_degree", "decompose_clusters", "small_degree.decompose_clusters_s"),
    ("small_degree", "reduce_colorspace", "small_degree.reduce_colorspace_s"),
    ("small_degree", "color_clusters", "small_degree.color_clusters_s"),
    ("harness", "run_pipeline", "harness.run_pipeline_self_s"),
)

# layers whose spans book simulated rounds and messages
BILLED_LAYERS = ("trials", "acd", "overlay", "dense_sparse", "small_degree",
                 "harness")

# counts taken from the arguments and results of traced calls
COUNTS = (
    "trials.tried", "trials.colored",
    "acd.cliques", "acd.sparse_nodes",
    "overlay.relays", "overlay.route_calls",
    "dense_sparse.sync_tried", "dense_sparse.sync_colored",
    "dense_sparse.sync_failures",
    "small_degree.components", "small_degree.clusters",
)


def _count_try_color_round(counts, args, kwargs, result):
    picks = args[1] if len(args) > 1 else kwargs["picks"]
    counts["trials.tried"] += len(picks)
    counts["trials.colored"] += len(result)


def _count_compute_acd(counts, args, kwargs, result):
    counts["acd.cliques"] += len(result.cliques)
    counts["acd.sparse_nodes"] += len(result.v_sparse)


def _count_compute_overlay(counts, args, kwargs, result):
    counts["overlay.relays"] += len(result.relays)


def _count_route(counts, args, kwargs, result):
    counts["overlay.route_calls"] += 1


def _count_sync_trial(counts, args, kwargs, result):
    counts["dense_sparse.sync_tried"] += result["tried"]
    counts["dense_sparse.sync_colored"] += result["colored"]
    counts["dense_sparse.sync_failures"] += result["failures"]


def _count_shatter(counts, args, kwargs, result):
    counts["small_degree.components"] += len(result)


def _count_decompose_clusters(counts, args, kwargs, result):
    counts["small_degree.clusters"] += sum(1 for _ in result.all_clusters())


_COUNTERS = {
    "trials.try_color_round": _count_try_color_round,
    "acd.compute_acd": _count_compute_acd,
    "overlay.compute_overlay": _count_compute_overlay,
    "overlay.route": _count_route,
    "dense_sparse.synchronized_color_trial": _count_sync_trial,
    "small_degree.shatter": _count_shatter,
    "small_degree.decompose_clusters": _count_decompose_clusters,
}

_SELF_METRIC = {f"{mod}.{fn}": metric for mod, fn, metric in TRACED}


# every metric `Tracer.trace_metrics` reports, in report order
SPAN_METRICS = (
    tuple(metric for _, _, metric in TRACED)
    + tuple(f"{layer}.{bill}" for layer in BILLED_LAYERS
            for bill in ("rounds", "messages"))
    + ("overlay.build_rounds", "overlay.route_rounds", "overlay.route_messages")
    + COUNTS + ("trials.success_ratio",)
)


@dataclass
class Span:
    trace: int
    index: int
    name: str              # "<module>.<function>"
    parent: int | None     # index of the enclosing span
    start: float
    end: float = 0.0
    self_s: float = 0.0
    self_rounds: int = 0
    self_messages: int = 0


class Tracer:
    """Records spans in memory; `write_jsonl` writes them out once at the end."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}     # trace id -> {count name: value}
        self.trace_id = 0
        self._next_index = 0
        self._stack: list = []     # [span, child_s, child_rounds, child_msgs]
        self._net = None

    def new_trace(self):
        """Start a new trace: one set-up or one `run_pipeline` call."""
        self.trace_id += 1
        self._net = None
        self.counts[self.trace_id] = {name: 0 for name in COUNTS}

    def _bill(self):
        if self._net is None:
            return 0, 0
        return self._net.stats.rounds, self._net.stats.total_messages

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0].index if self._stack else None
            span = Span(self.trace_id, self._next_index, name, parent, 0.0)
            self._next_index += 1
            frame = [span, 0.0, 0, 0]
            r0, m0 = self._bill()
            self._stack.append(frame)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "sim.new_network":
                self._net = result
            r1, m1 = self._bill()
            elapsed = span.end - span.start
            span.self_s = elapsed - frame[1]
            span.self_rounds = (r1 - r0) - frame[2]
            span.self_messages = (m1 - m0) - frame[3]
            if self._stack:
                outer = self._stack[-1]
                outer[1] += elapsed
                outer[2] += r1 - r0
                outer[3] += m1 - m0
            self.spans.append(span)
            if counter is not None:
                counter(self.counts[span.trace], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all loaded
        congestcolor modules; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "congestcolor" or n.startswith("congestcolor.")]
        saved = []
        try:
            for mod_name, fn_name, _ in TRACED:
                fn = getattr(importlib.import_module(f"congestcolor.{mod_name}"),
                             fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def trace_metrics(self, trace_id: int) -> dict:
        """Self times, self bills and counts of one trace, and the trial
        success ratio with its base (`trials.tried`)."""
        out = dict.fromkeys(SPAN_METRICS, 0)
        for s in self.spans:
            if s.trace != trace_id:
                continue
            out[_SELF_METRIC[s.name]] += s.self_s
            layer = s.name.split(".", 1)[0]
            if layer in BILLED_LAYERS:
                out[f"{layer}.rounds"] += s.self_rounds
                out[f"{layer}.messages"] += s.self_messages
            if s.name == "overlay.compute_overlay":
                out["overlay.build_rounds"] += s.self_rounds
            elif s.name == "overlay.route":
                out["overlay.route_rounds"] += s.self_rounds
                out["overlay.route_messages"] += s.self_messages
        out.update(self.counts[trace_id])
        tried = out["trials.tried"]
        out["trials.success_ratio"] = out["trials.colored"] / tried if tried else 0.0
        return out

    def span_times(self, name: str) -> list:
        return [s.self_s for s in self.spans if s.name == name]

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "trace": s.trace, "id": s.index, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")


def median_metrics(per_trace: list) -> dict:
    """Median of each metric over several traces."""
    return {k: statistics.median(m[k] for m in per_trace) for k in per_trace[0]}
