"""Span recording for the traced run, from outside the program.

Wrappers replace a layer's public entry points where callers find
them: on the class for methods, and in the calling module's namespace
for functions bound there by ``from ... import``.  Spans stay in memory
as ``[name, start_ns, end_ns, parent, op]``, where ``op`` counts the
crawl rounds a process has started, the serve requests submitted, or
the audit cycles stored, so spans of one op share it.  A forked worker
starts an empty list at fork and writes its spans to ``flush_dir``
when ``Study.run_shard`` returns, because the worker exits without
running ``atexit`` hooks.  Per-layer metrics are computed once, after
the timed window, by :func:`layer_metrics`, from the spans and counts
of the window alone.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.harness import ratio, window_profile
from perfbench.workloads import ranker_counts, window_delta

__all__ = [
    "SpanRecorder",
    "GcPauses",
    "install_layer_wrappers",
    "layer_metrics",
    "SELF_TIME_METRICS",
]


class SpanRecorder:
    """Spans and counters of one process (reset in each forked child)."""

    def __init__(self, flush_dir: str):
        self.flush_dir = flush_dir
        self.root_pid = os.getpid()
        self.op_id = 0
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.distinct: set = set()
        self.digest_base = (0, 0)
        self.born_ns = time.perf_counter_ns()
        self._flushes = 0

    def open_window(self) -> None:
        """Start the counts afresh: per-layer metrics cover the timed window."""
        self.counters = {}
        self.distinct = set()
        self.digest_base = _digest_counts()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, *, before: Optional[Callable] = None):
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``before(args, kwargs)`` runs ahead of the call, for counters
        that need the arguments.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            spans = recorder.spans
            stack = recorder.stack
            index = len(spans)
            spans.append(
                [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                 recorder.op_id]
            )
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter_ns()

        setattr(owner, attr, wrapper)
        return wrapper

    def flush_worker(self, extra: dict) -> None:
        """Write this worker's spans and counters for the parent to merge."""
        self._flushes += 1
        path = os.path.join(
            self.flush_dir, f"spans-{os.getpid()}-{self._flushes}.json"
        )
        record = {
            "spans": self.spans,
            "counters": self.counters,
            "born_ns": self.born_ns,
            "flushed_ns": time.perf_counter_ns(),
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(record, handle)
        self.spans = []
        self.stack = []
        self.counters = {}

    def worker_flushes(self) -> List[dict]:
        flushes = []
        for name in sorted(os.listdir(self.flush_dir)):
            if name.startswith("spans-"):
                with open(os.path.join(self.flush_dir, name)) as handle:
                    flushes.append(json.load(handle))
        return flushes


class GcPauses:
    """Collector pauses of this process, from ``gc.callbacks``."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self.gen2 = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
            return
        pause = (time.perf_counter_ns() - self._started) / 1e9
        self.pause_s += pause
        self.max_pause_s = max(self.max_pause_s, pause)
        if info.get("generation") == 2:
            self.gen2 += 1

    def install(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self


def _digest_counts() -> tuple:
    from repro.seeding import digest_cache_info

    info = digest_cache_info()
    return (
        info["digest"]["hits"] + info["prefix"]["hits"],
        info["digest"]["misses"] + info["prefix"]["misses"],
    )


def install_layer_wrappers(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    import repro.audit.streaming as streaming_module
    import repro.batch as batch_module
    import repro.core.comparisons as comparisons_module
    import repro.core.runner as runner_module
    import repro.engine.frontend as frontend_module
    from repro.audit.drift import DriftMonitor
    from repro.audit.store import AuditStore
    from repro.audit.streaming import StreamingComparisons
    from repro.core.browser import MobileBrowser
    from repro.core.report import StudyReport
    from repro.core.runner import Study
    from repro.engine.frontend import SearchEngine
    from repro.engine.ranking import Ranker
    from repro.faults.checkpoint import CheckpointWriter
    from repro.obs.events import CrawlEventBuilder
    from repro.serve.cache import SerpCache
    from repro.serve.fleet import GatewayFleet
    from repro.serve.gateway import Gateway

    def next_op(args, kwargs) -> None:
        recorder.op_id += 1

    wrap = recorder.wrap
    wrap(Study, "prefork_warmup", "batch.prewarm")
    wrap(batch_module, "prewarm_round", "batch.prewarm", before=next_op)
    wrap(SearchEngine, "handle", "engine.handle")
    wrap(Ranker, "build_page", "engine.rank")
    wrap(Ranker, "build_pages_batch", "engine.rank")
    wrap(frontend_module, "render_page", "engine.render")
    wrap(MobileBrowser, "search", "net.search")
    wrap(runner_module, "parse_serp_html", "parser")
    for figure in range(2, 8):
        wrap(StudyReport, f"fig{figure}_rows", "analysis")

    def note_pair(args, kwargs) -> None:
        a, b = args[0], args[1]
        recorder.distinct.add(
            (recorder.op_id, a.query, a.day, a.location_name, a.copy_index,
             b.location_name, b.copy_index)
        )

    for module in (comparisons_module, streaming_module):
        wrap(module, "compare_records", "analysis.compare", before=note_pair)
    wrap(comparisons_module, "edit_distance", "analysis.edit_distance")
    wrap(Study, "capture_state", "checkpoint.capture")
    wrap(CheckpointWriter, "append_round", "checkpoint.append")
    wrap(
        CrawlEventBuilder,
        "add_round",
        "events",
        before=lambda args, kwargs: recorder.count("events.emitted", len(args[2])),
    )
    wrap(StreamingComparisons, "observe", "audit.observe")
    wrap(AuditStore, "append_cycle", "audit.store", before=next_op)
    wrap(AuditStore, "compact", "audit.store")
    wrap(DriftMonitor, "observe_cycle", "audit.drift")

    wrap(GatewayFleet, "submit", "serve.fleet", before=next_op)
    wrap(Gateway, "submit", "serve.gateway")
    wrap(SerpCache, "get", "serve.cache.get")
    wrap(SerpCache, "put", "serve.cache.put")

    shard = Study.run_shard

    @functools.wraps(shard)
    def run_shard(study, *args, **kwargs):
        ranker_before = ranker_counts(study.engine.ranker)
        digest_before = _digest_counts()
        try:
            return shard(study, *args, **kwargs)
        finally:
            if os.getpid() != recorder.root_pid:
                ranker_after = ranker_counts(study.engine.ranker)
                digest_after = _digest_counts()
                recorder.flush_worker(
                    {
                        "memo": window_delta(ranker_after, ranker_before),
                        "digest": window_delta(digest_after, digest_before),
                        "distinct": len(recorder.distinct),
                    }
                )

    Study.run_shard = run_shard


def store_fileops(recorder: SpanRecorder):
    """A real :class:`FileOps` whose writes and fsyncs are counted and timed."""
    from repro.store.fileops import FileOps

    ops = FileOps()
    recorder.wrap(
        ops,
        "write",
        "store.write",
        before=lambda args, kwargs: recorder.count("store.bytes", len(args[1])),
    )
    recorder.wrap(ops, "fsync", "store.fsync")
    recorder.wrap(ops, "fsync_dir", "store.fsync")
    return ops


#: The per-layer metrics that are span self times: with
#: ``trace.unattributed_s`` they account for every traced process-second
#: of the window (see :func:`layer_metrics`).
SELF_TIME_METRICS = (
    "batch.prewarm.self_s",
    "engine.handle.self_s",
    "engine.rank.self_s",
    "engine.render.self_s",
    "net.search.self_s",
    "parser.self_s",
    "analysis.self_s",
    "analysis.edit_distance.self_s",
    "checkpoint.capture.self_s",
    "checkpoint.append.self_s",
    "store.write.self_s",
    "store.fsync_s",
    "events.self_s",
    "audit.observe.self_s",
    "audit.store.self_s",
    "audit.drift.self_s",
    "serve.fleet.self_s",
    "serve.gateway.self_s",
    "serve.cache.get.self_s",
    "serve.cache.put.self_s",
)


def layer_metrics(
    recorder: SpanRecorder,
    *,
    window: Tuple[int, int],
    gc_pauses: GcPauses,
    pages: int,
    memo: List[int],
    layer_facts: dict,
) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics of one traced iteration, and its traced wall.

    Self times and call counts come from the spans that start inside
    the timed ``window``: this process's, and those of every worker
    forked inside it (workers forked during set-up are left out).
    Counters restart at the window (:meth:`SpanRecorder.open_window`).
    The traced wall is the process-seconds those spans could cover:
    the window for this process plus each worker's life from fork to
    flush.  ``trace.unattributed_s`` is that wall minus the union of
    each process's root spans, so the :data:`SELF_TIME_METRICS` plus
    ``trace.unattributed_s`` add up to the traced wall only if every
    recorded span lands in exactly one reported metric.  ``memo`` is
    the (hits, misses) the workload's rankers gained in the window in
    this process; ``layer_facts`` carries what the workload read off
    the program (rusage split of the window, supervisor reports, cache
    occupancy).  A layer that did not run reports 0.
    """
    counters = dict(recorder.counters)
    memo = list(memo)
    digest = window_delta(_digest_counts(), recorder.digest_base)
    distinct = len(recorder.distinct)
    timelines = [(recorder.spans, window)]
    for flush in recorder.worker_flushes():
        if flush["born_ns"] < window[0]:
            continue
        for key, value in flush["counters"].items():
            counters[key] = counters.get(key, 0) + value
        memo = [a + b for a, b in zip(memo, flush["memo"])]
        digest = [a + b for a, b in zip(digest, flush["digest"])]
        distinct += flush["distinct"]
        timelines.append(
            (flush["spans"], (flush["born_ns"], min(flush["flushed_ns"], window[1])))
        )
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    unattributed = 0.0
    traced_wall = 0.0
    for spans, (lo, hi) in timelines:
        seconds, counts, idle = window_profile(spans, (lo, hi))
        for name, value in seconds.items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in counts.items():
            calls[name] = calls.get(name, 0) + value
        unattributed += idle
        traced_wall += (hi - lo) / 1e9

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    compare_calls = n("analysis.compare")
    metrics = {
        "batch.prewarm.calls": n("batch.prewarm"),
        "batch.prewarm.self_s": s("batch.prewarm"),
        "engine.handle.calls": n("engine.handle"),
        "engine.handle.self_s": s("engine.handle"),
        "engine.rank.self_s": s("engine.rank"),
        "engine.render.self_s": s("engine.render"),
        "engine.memo.hit_ratio": ratio(memo[0], sum(memo)),
        "net.search.self_s": s("net.search"),
        "parser.calls": n("parser"),
        "parser.self_s": s("parser"),
        "analysis.self_s": s("analysis") + s("analysis.compare"),
        "analysis.compare.calls": compare_calls,
        "analysis.compare.distinct_ratio": ratio(distinct, compare_calls),
        "analysis.edit_distance.self_s": s("analysis.edit_distance"),
        "checkpoint.capture.calls": n("checkpoint.capture"),
        "checkpoint.capture.self_s": s("checkpoint.capture"),
        "checkpoint.append.self_s": s("checkpoint.append"),
        "store.write.calls": n("store.write"),
        "store.write.self_s": s("store.write"),
        "store.bytes_per_page": counters.get("store.bytes", 0) / pages,
        "store.fsync.calls": n("store.fsync"),
        "store.fsync_s": s("store.fsync"),
        "events.emitted": counters.get("events.emitted", 0),
        "events.self_s": s("events"),
        "audit.observe.self_s": s("audit.observe"),
        "audit.store.self_s": s("audit.store"),
        "audit.drift.self_s": s("audit.drift"),
        "serve.fleet.self_s": s("serve.fleet"),
        "serve.gateway.self_s": s("serve.gateway"),
        "serve.cache.get.self_s": s("serve.cache.get"),
        "serve.cache.put.self_s": s("serve.cache.put"),
        "seeding.digest.hit_ratio": ratio(digest[0], sum(digest)),
        "gc.pause_s": gc_pauses.pause_s,
        "gc.gen2": gc_pauses.gen2,
        "gc.max_pause_ms": 1000.0 * gc_pauses.max_pause_s,
        "trace.unattributed_s": unattributed,
    }
    metrics.update(layer_facts)
    return metrics, traced_wall
