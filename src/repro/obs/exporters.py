"""Trace exporters: canonical JSONL, validation, Chrome ``trace_event``.

The on-disk trace is a CRC32-framed record log (:mod:`repro.store`,
like the event log and the checkpoint journal, so ``repro fsck`` checks
it) whose payloads are JSON with three record kinds::

    {"kind": "header",  "version": 1, "trace_id": ..., "meta": {...}}
    {"kind": "span",    "id": ..., "parent": ..., "name": ..., "start": ...,
                        "end": ..., "attrs": {...}, "events": [...]}
    {"kind": "summary", "rounds": R, "spans": S, "trace_id": ...}

Spans are written flattened (parent links, no nesting) in canonical
order: per round, the round span first, then each treatment's tree
depth-first in ascending treatment order; after the last round, the
root ``study.run`` span, then the summary.  Every payload is
``json.dumps(..., sort_keys=True)`` with fixed separators — byte
determinism is a format property, not a hope.

``meta`` is the study's checkpoint fingerprint: the same dict that
gates checkpoint resume, so a trace is self-describing about which
study produced it.

The Chrome exporter rewrites a trace into the ``trace_event`` JSON that
Perfetto / ``chrome://tracing`` open directly: one timeline row per
treatment, one virtual minute displayed as one minute.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.events import check_header_log, read_header_log
from repro.obs.trace import TRACE_VERSION
from repro.store.record_log import RecordLogWriter

__all__ = [
    "TraceBuilder",
    "read_trace",
    "validate_trace",
    "chrome_trace",
    "write_chrome_trace",
    "speedscope_trace",
    "write_speedscope",
]


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _walk(node: dict) -> Iterator[dict]:
    """Depth-first over a span tree, children in recorded order."""
    yield node
    for child in node["children"]:
        yield from _walk(child)


def _span_line(node: dict) -> dict:
    return {
        "kind": "span",
        "id": node["id"],
        "parent": node["parent"],
        "name": node["name"],
        "start": node["start"],
        "end": node["end"],
        "attrs": node["attrs"],
        "events": node["events"],
    }


class TraceBuilder:
    """Streams a canonical trace file as rounds complete.

    Every run's :class:`~repro.core.runner.RoundMerge`, in-process or
    parallel, live or replaying a checkpoint journal, feeds this one
    code path, which is what makes ``workers=N`` and resumed traces
    byte-identical: the merge hands :meth:`add_round` each round's
    span trees already sorted by treatment, regardless of which process
    produced them.  With a :class:`~repro.obs.replay.GatewayReplay`,
    canonical gateway spans are synthesized here — at merge time —
    rather than recorded live (see :mod:`repro.obs.replay` for why).
    """

    def __init__(self, path, *, trace_id: str, meta: dict, replay=None):
        from repro.obs.trace import Tracer

        # Observability output, like the event log: framed records, no
        # directory fsync, no per-record fsync.
        self._log = RecordLogWriter.create(path, fsync_directory=False)
        self.trace_id = trace_id
        self.replay = replay
        keyed = Tracer()
        keyed.enable(trace_id)
        self._study_id = keyed.study_span_id()
        self._round_id = keyed.round_span_id
        self._rounds = 0
        self._spans = 0
        self._min_start: Optional[float] = None
        self._max_end = 0.0
        self._closed = False
        self._write(
            {
                "kind": "header",
                "version": TRACE_VERSION,
                "trace_id": trace_id,
                "meta": meta,
            }
        )

    def _write(self, payload: dict) -> None:
        self._log.append(_dumps(payload))

    def add_round(self, ordinal: int, trees: List[dict]) -> None:
        """Write one round: its span, then each treatment tree.

        ``trees`` must be sorted by treatment.
        """
        if self.replay is not None:
            self.replay.annotate_round(trees)
        start = min(tree["start"] for tree in trees) if trees else 0.0
        end = max(tree["end"] for tree in trees) if trees else start
        attrs = {"ordinal": ordinal, "treatments": len(trees)}
        if trees:
            attrs["query"] = trees[0]["attrs"].get("query")
        self._write(
            {
                "kind": "span",
                "id": self._round_id(ordinal),
                "parent": self._study_id,
                "name": "round",
                "start": start,
                "end": end,
                "attrs": attrs,
                "events": [],
            }
        )
        self._spans += 1
        for tree in trees:
            for node in _walk(tree):
                self._write(_span_line(node))
                self._spans += 1
        if self._min_start is None or start < self._min_start:
            self._min_start = start
        if end > self._max_end:
            self._max_end = end
        self._rounds += 1

    def add_trees(self, trees: List[dict]) -> None:
        """Write free-standing span trees (serving traces, no rounds)."""
        for tree in trees:
            for node in _walk(tree):
                self._write(_span_line(node))
                self._spans += 1
            if self._min_start is None or tree["start"] < self._min_start:
                self._min_start = tree["start"]
            if tree["end"] > self._max_end:
                self._max_end = tree["end"]

    def close(self) -> None:
        """Write the root span and summary, then close the file."""
        if self._closed:
            return
        self._closed = True
        self._write(
            {
                "kind": "span",
                "id": self._study_id,
                "parent": "",
                "name": "study.run",
                "start": self._min_start if self._min_start is not None else 0.0,
                "end": self._max_end,
                "attrs": {"rounds": self._rounds},
                "events": [],
            }
        )
        self._spans += 1
        self._write(
            {
                "kind": "summary",
                "trace_id": self.trace_id,
                "rounds": self._rounds,
                "spans": self._spans,
            }
        )
        self._log.close()


def read_trace(path) -> Tuple[dict, List[dict], Optional[dict]]:
    """Parse a trace file into (header, spans, summary)."""
    return read_header_log(path, "span", "trace")


def validate_trace(path) -> List[str]:
    """Structural checks over a trace file; returns problems (empty = ok).

    :func:`~repro.obs.events.check_header_log`'s, then: span ids
    unique; every parent id exists (the root's empty parent excepted);
    ``end >= start`` and events inside their span's bounds; round
    ordinals contiguous from 0; summary counts match the file.
    """
    header, spans, summary, problems = check_header_log(
        path, "span", "trace", version=TRACE_VERSION, id_key="trace_id"
    )
    if header is None:
        return problems
    seen: Dict[str, dict] = {}
    for span in spans:
        span_id = span["id"]
        if span_id in seen:
            problems.append(f"duplicate span id {span_id} ({span['name']})")
        seen[span_id] = span
        if span["end"] < span["start"]:
            problems.append(
                f"span {span['name']} ({span_id}) ends before it starts"
            )
        for event in span["events"]:
            if not span["start"] <= event["at"] <= span["end"]:
                problems.append(
                    f"event {event['name']} at {event['at']} outside span "
                    f"{span['name']} [{span['start']}, {span['end']}]"
                )
    roots = 0
    for span in spans:
        parent = span["parent"]
        if parent == "":
            roots += 1
            continue
        if parent not in seen:
            problems.append(
                f"span {span['name']} ({span['id']}) has unknown parent {parent}"
            )
    if roots != 1:
        problems.append(f"expected exactly one root span, found {roots}")
    ordinals = sorted(
        span["attrs"]["ordinal"] for span in spans if span["name"] == "round"
    )
    if ordinals != list(range(len(ordinals))):
        problems.append(f"round ordinals not contiguous from 0: {ordinals[:10]}...")
    if summary is not None:
        if summary.get("spans") != len(spans):
            problems.append(
                f"summary says {summary.get('spans')} spans, file holds {len(spans)}"
            )
        if summary.get("rounds") != len(ordinals):
            problems.append(
                f"summary says {summary.get('rounds')} rounds, file holds "
                f"{len(ordinals)}"
            )
    return problems


#: Chrome ``trace_event`` timestamps are microseconds; one virtual
#: study minute is displayed as one minute of trace time.
_MICROS_PER_VIRTUAL_MINUTE = 60_000_000


def chrome_trace(path) -> dict:
    """Convert a trace file to Chrome ``trace_event`` JSON.

    Open the result in https://ui.perfetto.dev or ``chrome://tracing``.
    Rows (``tid``): 0 is the schedule (study + round spans); each
    treatment gets its own row, labelled with its location.
    """
    header, spans, _ = read_trace(path)
    by_id = {span["id"]: span for span in spans}

    def tid_of(span: dict) -> int:
        node = span
        while node is not None:
            treatment = node["attrs"].get("treatment")
            if treatment is not None:
                return int(treatment) + 1
            node = by_id.get(node["parent"])
        return 0

    events: List[dict] = []
    thread_names: Dict[int, str] = {0: "schedule"}
    for span in spans:
        tid = tid_of(span)
        if tid and tid not in thread_names and span["name"] == "crawl":
            thread_names[tid] = span["attrs"].get("location", f"treatment {tid - 1}")
        ts = span["start"] * _MICROS_PER_VIRTUAL_MINUTE
        duration = max(1.0, (span["end"] - span["start"]) * _MICROS_PER_VIRTUAL_MINUTE)
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".")[0],
                "ph": "X",
                "ts": ts,
                "dur": duration,
                "pid": 1,
                "tid": tid,
                "args": span["attrs"],
            }
        )
        for event in span["events"]:
            events.append(
                {
                    "name": event["name"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": event["at"] * _MICROS_PER_VIRTUAL_MINUTE,
                    "pid": 1,
                    "tid": tid,
                    "args": event["attrs"],
                }
            )
    for tid in sorted(thread_names):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": thread_names[tid]},
            }
        )
    return {
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": header["trace_id"]},
        "traceEvents": events,
    }


def write_chrome_trace(path, out) -> None:
    """Export ``path`` (canonical JSONL) as Chrome trace JSON at ``out``."""
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(path), handle, sort_keys=True)
        handle.write("\n")


def speedscope_trace(path) -> dict:
    """Convert a trace file to speedscope's evented-profile JSON.

    Open the result at https://www.speedscope.app (or any compatible
    viewer) for interactive flamegraphs.  One evented profile per
    timeline row — the schedule plus each treatment, matching the
    Chrome exporter's ``tid`` layout — with open/close events in
    microseconds (one virtual minute = 60,000,000).
    """
    header, spans, _ = read_trace(path)
    by_id = {span["id"]: span for span in spans}
    by_parent: Dict[str, List[dict]] = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)

    def tid_of(span: dict) -> int:
        node = span
        while node is not None:
            treatment = node["attrs"].get("treatment")
            if treatment is not None:
                return int(treatment) + 1
            node = by_id.get(node["parent"])
        return 0

    names = sorted({span["name"] for span in spans})
    frame_index = {name: index for index, name in enumerate(names)}
    row_names: Dict[int, str] = {0: "schedule"}
    row_spans: Dict[int, List[dict]] = {}
    for span in spans:
        tid = tid_of(span)
        row_spans.setdefault(tid, []).append(span)
        if tid and tid not in row_names and span["name"] == "crawl":
            row_names[tid] = span["attrs"].get("location", f"treatment {tid - 1}")

    profiles = []
    for tid in sorted(row_spans):
        members = {span["id"] for span in row_spans[tid]}
        events: List[dict] = []
        start_value: Optional[float] = None
        end_value = 0.0

        def visit(span: dict, low: float, high: float) -> None:
            # Clamp into the parent's bounds: speedscope rejects
            # profiles whose close events are not perfectly LIFO.
            nonlocal start_value, end_value
            start = min(max(span["start"], low), high)
            end = min(max(span["end"], start), high)
            start_micros = start * _MICROS_PER_VIRTUAL_MINUTE
            end_micros = end * _MICROS_PER_VIRTUAL_MINUTE
            if start_value is None or start_micros < start_value:
                start_value = start_micros
            if end_micros > end_value:
                end_value = end_micros
            events.append(
                {"type": "O", "frame": frame_index[span["name"]], "at": start_micros}
            )
            for child in sorted(
                (
                    node
                    for node in by_parent.get(span["id"], [])
                    if node["id"] in members
                ),
                key=lambda node: (node["start"], node["id"]),
            ):
                visit(child, start, end)
            events.append(
                {"type": "C", "frame": frame_index[span["name"]], "at": end_micros}
            )

        # Roots of this row: spans whose parent lives on another row
        # (or nowhere) — each opens a fresh stack.
        roots = sorted(
            (
                span
                for span in row_spans[tid]
                if span["parent"] not in members
            ),
            key=lambda span: (span["start"], span["id"]),
        )
        for root in roots:
            visit(root, root["start"], max(root["end"], root["start"]))
        profiles.append(
            {
                "type": "evented",
                "name": row_names.get(tid, f"treatment {tid - 1}"),
                "unit": "microseconds",
                "startValue": start_value if start_value is not None else 0.0,
                "endValue": end_value,
                "events": events,
            }
        )

    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": f"repro trace {header['trace_id']}",
        "activeProfileIndex": 0,
        "exporter": "repro",
        "shared": {"frames": [{"name": name} for name in names]},
        "profiles": profiles,
    }


def write_speedscope(path, out) -> None:
    """Export ``path`` (canonical JSONL) as speedscope JSON at ``out``."""
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(speedscope_trace(path), handle, sort_keys=True)
        handle.write("\n")
