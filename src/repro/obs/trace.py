"""Span-based tracing over virtual time.

A trace is a tree of spans — ``study.run`` → ``round`` → ``crawl`` (one
per treatment) → ``attempt`` → layer spans (``engine.handle``,
``gateway.queue`` / ``gateway.service``) — each carrying start/end in
*virtual* study minutes plus point-in-time events (injected faults,
retry backoffs, breaker transitions, DNS answers).  No wall-clock value
ever enters a span, which is what makes traces a deterministic artifact
rather than a log.

Determinism is structural, not incidental:

* the ``trace_id`` derives from the study's checkpoint fingerprint, so
  every worker of a sharded run — and every re-run of the same config —
  agrees on it without coordination;
* span ids derive from the parent id, the span name, and the sibling
  ordinal (``stable_hash``, like every other identity in this repo), so
  a span's id is a pure function of its position in the tree;
* treatment root spans key on ``(round ordinal, treatment index)``, the
  same canonical coordinates the parallel executor merges by.

The tracer is **disabled by default** and every hook is a cheap
early-return when it is off, a cost inside every perfbench workload.
Workers emit per-shard span trees each round; the parent merges them in
canonical round order (the checkpoint-journal design) and writes each
root tree as one ``span`` event of the run's wide-event log
(:mod:`repro.obs.events`), which is why a traced log is byte-identical
for any worker count.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.seeding import stable_hash

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "trace_id_for",
    "format_id",
    "study_span_id",
    "round_span_id",
    "treatment_span_id",
    "child_span_id",
    "supervisor_span_id",
]

_ID_MASK = (1 << 64) - 1


def format_id(value: int) -> str:
    """64-bit hex rendering of a ``stable_hash`` (the span-id format)."""
    return format(value & _ID_MASK, "016x")


def trace_id_for(fingerprint: dict) -> str:
    """Derive the trace id from a study's checkpoint fingerprint.

    Same config → same trace id, in every worker process, with no
    coordination — the root of cross-process span-id agreement.
    """
    return format_id(
        stable_hash("trace-id", json.dumps(fingerprint, sort_keys=True))
    )


# -- deterministic span ids --------------------------------------------------
# The tracer, the event log's round and root spans, the crawl events'
# exemplar links, the gateway replay and the supervisor's recovery
# spans all key here.


def study_span_id(trace_id: str) -> str:
    """The ``study.run`` root span's id."""
    return format_id(stable_hash("span", trace_id, "root"))


def round_span_id(trace_id: str, ordinal: int) -> str:
    """Round ``ordinal``'s span id."""
    return format_id(stable_hash("span", trace_id, "round", ordinal))


def treatment_span_id(trace_id: str, ordinal: int, treatment: int, name: str) -> str:
    """The id of the root span ``name`` a treatment opens in round ``ordinal``.

    The ``crawl`` span of cell (round, treatment) — which is why crawl
    events link to their span without the trace existing.
    """
    return format_id(
        stable_hash("span", trace_id, "round", ordinal, "treatment", treatment, name)
    )


def child_span_id(parent_id: str, name: str, seq: int) -> str:
    """The id of span ``name``, its parent's ``seq``-th child."""
    return format_id(stable_hash("span", parent_id, name, seq))


def supervisor_span_id(trace_id: str, seq: int) -> str:
    """The id of the ``seq``-th recovery event's ``supervisor.*`` span."""
    return format_id(stable_hash("supervisor-span", trace_id, seq))


class _SpanHandle:
    """One span under construction (mutable until :meth:`Tracer.end`)."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs",
                 "events", "children", "child_seq")

    def __init__(self, span_id: str, parent_id: str, name: str, start: float,
                 attrs: Dict[str, object]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.events: List[dict] = []
        self.children: List["_SpanHandle"] = []
        self.child_seq = 0

    def to_node(self) -> dict:
        """The JSON-able tree node (children nested for transport)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "events": self.events,
            "children": [child.to_node() for child in self.children],
        }


class Tracer:
    """Records span trees per round; drained by the run loop.

    All methods are no-ops while :attr:`enabled` is false, so the
    tracer can be threaded through every layer (network, engine,
    gateway, faults) unconditionally.
    """

    __slots__ = ("enabled", "trace_id", "_stack", "_trees", "_ordinal", "_root_seq")

    def __init__(self) -> None:
        self.enabled = False
        self.trace_id = ""
        self._stack: List[_SpanHandle] = []
        self._trees: List[_SpanHandle] = []
        self._ordinal: Optional[int] = None
        self._root_seq = 0

    def enable(self, trace_id: str) -> None:
        self.enabled = True
        self.trace_id = trace_id
        self._stack.clear()
        self._trees.clear()
        self._ordinal = None
        self._root_seq = 0

    def disable(self) -> None:
        self.enabled = False
        self._stack.clear()
        self._trees.clear()
        self._ordinal = None

    # -- recording -----------------------------------------------------------

    def begin_round(self, ordinal: int) -> None:
        """Set the round context; treatment roots parent onto this round."""
        if not self.enabled:
            return
        self._ordinal = ordinal

    def begin(self, name: str, *, start: float, **attrs) -> None:
        """Open a span as a child of the innermost open span.

        With no span open, the new span is a root: inside a round and
        carrying a ``treatment`` attr it keys on (round, treatment) —
        position-stable across worker counts — otherwise it keys on a
        per-tracer sequence (single-process serving traces).
        """
        if not self.enabled:
            return
        if self._stack:
            parent = self._stack[-1]
            parent_id = parent.span_id
            span_id = child_span_id(parent_id, name, parent.child_seq)
            parent.child_seq += 1
        elif self._ordinal is not None and "treatment" in attrs:
            parent_id = round_span_id(self.trace_id, self._ordinal)
            span_id = treatment_span_id(
                self.trace_id, self._ordinal, attrs["treatment"], name
            )
        else:
            parent_id = study_span_id(self.trace_id)
            span_id = format_id(
                stable_hash("span", self.trace_id, "seq", self._root_seq)
            )
            self._root_seq += 1
        handle = _SpanHandle(span_id, parent_id, name, start, dict(attrs))
        if self._stack:
            self._stack[-1].children.append(handle)
        else:
            self._trees.append(handle)
        self._stack.append(handle)

    def end(self, *, end: Optional[float] = None, **attrs) -> None:
        """Close the innermost open span.

        Without an explicit ``end``, the span closes at the latest
        virtual time it contains (children's ends, event times, its own
        start) — so instantaneous spans need no bookkeeping.
        """
        if not self.enabled:
            return
        handle = self._stack.pop()
        if attrs:
            handle.attrs.update(attrs)
        if end is None:
            end = handle.start
            for child in handle.children:
                if child.end is not None and child.end > end:
                    end = child.end
            for event in handle.events:
                if event["at"] > end:
                    end = event["at"]
        handle.end = end

    def event(self, name: str, *, at: float, **attrs) -> None:
        """Attach a point-in-time event to the innermost open span."""
        if not self.enabled or not self._stack:
            return
        self._stack[-1].events.append({"name": name, "at": at, "attrs": attrs})

    def current_span_id(self) -> Optional[str]:
        """The innermost open span's id — wide-event exemplar linkage."""
        if not self.enabled or not self._stack:
            return None
        return self._stack[-1].span_id

    def annotate(self, **attrs) -> None:
        """Merge attrs into the innermost open span."""
        if not self.enabled or not self._stack:
            return
        self._stack[-1].attrs.update(attrs)

    def drain(self) -> List[dict]:
        """Return and clear the completed root span trees.

        Called at round boundaries (and at the end of serving traces);
        every span must be closed by then.
        """
        if self._stack:
            raise RuntimeError(
                f"drain with {len(self._stack)} span(s) still open "
                f"(innermost: {self._stack[-1].name!r})"
            )
        trees = [tree.to_node() for tree in self._trees]
        self._trees.clear()
        return trees


#: The shared disabled tracer layers default to; a Study replaces it
#: with its own instance on the layers it traces.
NULL_TRACER = Tracer()
