"""Trace readers and exporters: the span projection, validation, Chrome.

A traced run's spans live in its wide-event log
(:mod:`repro.obs.events`) as ``span`` events, one per root tree, each
the tree's root node with its children nested.  :func:`read_trace`
projects them back into the flat span list every exporter reads::

    {"kind": "span", "id": ..., "parent": ..., "name": ..., "start": ...,
     "end": ..., "attrs": {...}, "events": [...]}

walking each tree depth-first in log order: per round, the round span,
then each treatment's tree in ascending treatment order; then any
``supervisor.*`` spans, and last the root ``study.run`` span.  The
log's ``meta`` is the study's checkpoint fingerprint, so a trace is
self-describing about which study produced it, and its ``log_id`` is
the trace id.

The Chrome exporter rewrites a trace into the ``trace_event`` JSON that
Perfetto / ``chrome://tracing`` open directly: one timeline row per
treatment, one virtual minute displayed as one minute.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.events import check_events, read_events

__all__ = [
    "SpanIndex",
    "span_projection",
    "read_trace",
    "validate_trace",
    "chrome_trace",
    "write_chrome_trace",
    "speedscope_trace",
    "write_speedscope",
]

_SPAN_FIELDS = ("id", "parent", "name", "start", "end", "attrs", "events")


def _walk(node) -> Iterator[dict]:
    """One tree's spans, depth-first, children in recorded order.

    Missing fields read as ``None`` and a node that is not an object as
    an empty one, so the validator can report a damaged tree.
    """
    if not isinstance(node, dict):
        node = {}
    yield {"kind": "span", **{key: node.get(key) for key in _SPAN_FIELDS}}
    children = node.get("children")
    for child in children if isinstance(children, list) else ():
        yield from _walk(child)


def span_projection(events: List[dict]) -> List[dict]:
    """The spans of an event log's ``span`` events, each tree depth-first."""
    return [
        span
        for event in events
        if event.get("stream") == "span"
        for span in _walk(event)
    ]


def read_trace(path) -> Tuple[dict, List[dict], Optional[dict]]:
    """Parse a traced event log into (header, spans, summary)."""
    header, events, summary = read_events(path)
    return header, span_projection(events), summary


def validate_trace(path) -> List[str]:
    """Structural checks over a traced event log; problems, never raised.

    :func:`~repro.obs.events.check_events`'s, then: the log carries
    spans; each has an id, attrs, a list of events and numeric bounds;
    span ids unique; every parent id exists (the root's empty parent
    excepted); ``end >= start`` and events inside their span's bounds;
    exactly one root; every round has an ordinal, contiguous from 0.
    """
    header, events, problems = check_events(path)
    if header is None:
        return problems
    spans = span_projection(events)
    if not spans:
        problems.append("no span events (the log was written without --trace)")
        return problems
    seen: Dict[str, dict] = {}
    ordinals: List[int] = []
    for span in spans:
        label = f"span {span['name']} ({span['id']})"
        if not (
            span["id"]
            and isinstance(span["id"], str)
            and isinstance(span["parent"], str)
            and isinstance(span["attrs"], dict)
            and isinstance(span["events"], list)
        ):
            problems.append(f"{label} lacks an id, parent, attrs, or events")
            continue
        if span["id"] in seen:
            problems.append(f"duplicate span id {span['id']} ({span['name']})")
        seen[span["id"]] = span
        if span["name"] == "round":
            ordinal = span["attrs"].get("ordinal")
            if isinstance(ordinal, int):
                ordinals.append(ordinal)
            else:
                problems.append(f"round {label} has no ordinal")
        start, end = span["start"], span["end"]
        if not isinstance(start, (int, float)) or not isinstance(end, (int, float)):
            problems.append(f"{label} has no numeric start and end")
            continue
        if end < start:
            problems.append(f"{label} ends before it starts")
        for event in span["events"]:
            event = event if isinstance(event, dict) else {}
            at = event.get("at")
            if not isinstance(at, (int, float)) or not start <= at <= end:
                problems.append(
                    f"event {event.get('name')} at {at} outside span "
                    f"{span['name']} [{start}, {end}]"
                )
    roots = 0
    for span in spans:
        parent = span["parent"]
        if parent == "":
            roots += 1
        elif isinstance(parent, str) and parent not in seen:
            problems.append(
                f"span {span['name']} ({span['id']}) has unknown parent {parent}"
            )
    if roots != 1:
        problems.append(f"expected exactly one root span, found {roots}")
    ordinals.sort()
    if ordinals != list(range(len(ordinals))):
        problems.append(f"round ordinals not contiguous from 0: {ordinals[:10]}...")
    return problems


class SpanIndex:
    """A trace's span projection, indexed once for every exporter.

    ``by_id`` maps span ids to spans and ``by_parent`` parent ids to
    children in log order.  A span's timeline :meth:`row` is 0 for the
    schedule (study, round, and serving spans) and ``treatment + 1``
    under a treatment's root; :meth:`row_names` labels each treatment
    row with its ``crawl`` span's location.
    """

    def __init__(self, path):
        header, self.spans, _ = read_trace(path)
        self.trace_id = header["log_id"]
        self.by_id: Dict[str, dict] = {}
        self.by_parent: Dict[str, List[dict]] = {}
        for span in self.spans:
            self.by_id[span["id"]] = span
            self.by_parent.setdefault(span["parent"], []).append(span)

    def row(self, span: dict) -> int:
        node = span
        while node is not None:
            treatment = node["attrs"].get("treatment")
            if treatment is not None:
                return int(treatment) + 1
            node = self.by_id.get(node["parent"])
        return 0

    def row_names(self) -> Dict[int, str]:
        names = {0: "schedule"}
        for span in self.spans:
            if span["name"] != "crawl":
                continue
            row = self.row(span)
            if row and row not in names:
                names[row] = span["attrs"].get("location", f"treatment {row - 1}")
        return names


#: Chrome ``trace_event`` timestamps are microseconds; one virtual
#: study minute is displayed as one minute of trace time.
_MICROS_PER_VIRTUAL_MINUTE = 60_000_000


def chrome_trace(path) -> dict:
    """Convert a traced event log's spans to Chrome ``trace_event`` JSON.

    Open the result in https://ui.perfetto.dev or ``chrome://tracing``.
    Rows (``tid``): 0 is the schedule (study + round spans); each
    treatment gets its own row, labelled with its location.
    """
    index = SpanIndex(path)
    events: List[dict] = []
    for span in index.spans:
        tid = index.row(span)
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
    for tid, name in sorted(index.row_names().items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": index.trace_id},
        "traceEvents": events,
    }


def write_chrome_trace(path, out) -> None:
    """Export ``path`` (a traced event log) as Chrome trace JSON at ``out``."""
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(path), handle, sort_keys=True)
        handle.write("\n")


def speedscope_trace(path) -> dict:
    """Convert a traced event log's spans to speedscope's evented JSON.

    Open the result at https://www.speedscope.app (or any compatible
    viewer) for interactive flamegraphs.  One evented profile per
    timeline row — the schedule plus each treatment, matching the
    Chrome exporter's ``tid`` layout — with open/close events in
    microseconds (one virtual minute = 60,000,000).
    """
    index = SpanIndex(path)
    names = sorted({span["name"] for span in index.spans})
    frame_index = {name: position for position, name in enumerate(names)}
    row_names = index.row_names()
    row_spans: Dict[int, List[dict]] = {}
    for span in index.spans:
        row_spans.setdefault(index.row(span), []).append(span)

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
                    for node in index.by_parent.get(span["id"], [])
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
        "name": f"repro trace {index.trace_id}",
        "activeProfileIndex": 0,
        "exporter": "repro",
        "shared": {"frames": [{"name": name} for name in names]},
        "profiles": profiles,
    }


def write_speedscope(path, out) -> None:
    """Export ``path`` (a traced event log) as speedscope JSON at ``out``."""
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(speedscope_trace(path), handle, sort_keys=True)
        handle.write("\n")
