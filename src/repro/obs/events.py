"""The wide-event log: one canonical structured event per unit of work.

A *wide event* is the observability industry's answer to metric
sprawl: instead of twenty counters that each know one thing about a
request, emit **one** record per request (or crawl cell, or audit
cycle) carrying every dimension the system computed while handling it
— query, location, shard, degradation-ladder rung, fault kind, cache
path, virtual latency.  Rollups (:mod:`repro.obs.telemetry`) and SLO
evaluation (:mod:`repro.obs.slo`) are then *queries over the log*, not
separate instrumentation.

The on-disk format is JSON Lines with three record kinds::

    {"kind": "header",  "version": 1, "log_id": ..., "meta": {...}}
    {"kind": "event",   "id": ..., "stream": ..., "ts": ..., ...dims...}
    {"kind": "summary", "log_id": ..., "events": N, "streams": {...}}

Every line is ``json.dumps(..., sort_keys=True)`` with fixed
separators — byte determinism is a format property.  It is the one
deterministic log format: a traced run's spans are a stream of it.

Streams
-------
``crawl``
    One event per (round, treatment) cell of a study schedule.  These
    are **synthesized parent-side** by :class:`CrawlEventBuilder` from
    the canonical outcome stream, the reason the log is byte-identical
    for any worker count *and* across kill/resume: a resumed run
    re-synthesizes the journaled rounds' events from the checkpoint,
    something live worker-side emission could never replay.  Each
    carries its cell's ``crawl`` span id as ``span``.
``span``
    Traced logs only: one event per root span tree — a round (the
    round span, its treatments' trees nested under it), a
    ``supervisor.*`` recovery, and the closing ``study.run`` root.  The
    event *is* the tree's root node (``id``, ``parent``, ``name``,
    ``start``, ``end``, ``attrs``, ``events``, nested ``children``), with
    the root's start as ``ts``; :func:`~repro.obs.exporters.read_trace`
    walks each tree depth-first into the flat span list the exporters
    read.  ``serve-bench --trace`` writes its fleet's request trees the
    same way.
``serve`` / ``serve.control``
    One event per request through a :class:`~repro.serve.fleet.
    GatewayFleet` (emitted live at the fleet's single ``_finish`` exit),
    plus control events for brownout transitions, fault injections, and
    backfills.  Serve events carry the exact window-accounting marks
    (``counted``) the brownout controller used, so the SLO engine can
    reproduce its bad-fraction arithmetic without duplicating it.
``audit``
    One event per completed audit cycle, carrying the cycle's drift
    alerts — the SLO ledger folds these in verbatim.

Live streams are recorded through :class:`EventRecorder`, which is
disabled by default and a cheap early-return when off (the same
contract as :class:`~repro.obs.trace.Tracer`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import (
    format_id,
    round_span_id,
    study_span_id,
    trace_id_for,
    treatment_span_id,
)
from repro.seeding import stable_hash
from repro.store.record_log import RecordLogWriter, read_log, scan_log

__all__ = [
    "EVENTS_VERSION",
    "EventLog",
    "EventRecorder",
    "NULL_RECORDER",
    "CrawlEventBuilder",
    "crawl_event_id",
    "read_events",
    "check_events",
    "validate_events",
]

EVENTS_VERSION = 1


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def crawl_event_id(log_id: str, ordinal: int, treatment: int) -> str:
    """The id of the crawl event at canonical cell (round, treatment)."""
    return format_id(stable_hash("event", log_id, "crawl", ordinal, treatment))


class EventLog:
    """Streams canonical wide-event JSONL to a file.

    Records are CRC32-framed through :mod:`repro.store` (the payload
    inside the frame is the same canonical JSON as ever, so rollup and
    SLO byte-identity are untouched).  A log that carries spans
    (:meth:`emit_span`) closes its ``span`` stream with the
    ``study.run`` root: it spans every root tree written, and its
    ``rounds`` attr counts the ``round`` trees.
    """

    def __init__(self, path, *, log_id: str, meta: Optional[dict] = None):
        # Observability output: no directory fsync, no per-record
        # fsync — an event log is replayable, not load-bearing state.
        self._log = RecordLogWriter.create(path, fsync_directory=False)
        self.log_id = log_id
        self._events = 0
        self._streams: Dict[str, int] = {}
        # The span trees written so far: their first start, last end,
        # and how many are rounds (the ``study.run`` root's fields).
        self._span_start: Optional[float] = None
        self._span_end = 0.0
        self._rounds = 0
        self._closed = False
        self._write(
            {
                "kind": "header",
                "version": EVENTS_VERSION,
                "log_id": log_id,
                "meta": meta or {},
            }
        )

    def _write(self, payload: dict) -> None:
        self._log.append(_dumps(payload))

    def emit(self, event: dict) -> None:
        """Write one event record (``kind``/bookkeeping added here)."""
        stream = event["stream"]
        self._write({"kind": "event", **event})
        self._events += 1
        self._streams[stream] = self._streams.get(stream, 0) + 1

    def emit_span(self, tree: dict) -> None:
        """Write one root span tree as a ``span`` event.

        The event is the root node itself, children nested, so its
        ``id`` is the root span's id; its ``ts`` is the root's start.
        """
        self.emit({**tree, "stream": "span", "ts": tree["start"]})
        if self._span_start is None or tree["start"] < self._span_start:
            self._span_start = tree["start"]
        if tree["end"] > self._span_end:
            self._span_end = tree["end"]
        if tree["name"] == "round":
            self._rounds += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._span_start is not None:
            self.emit_span(
                {
                    "id": study_span_id(self.log_id),
                    "parent": "",
                    "name": "study.run",
                    "start": self._span_start,
                    "end": self._span_end,
                    "attrs": {"rounds": self._rounds},
                    "events": [],
                    "children": [],
                }
            )
        self._write(
            {
                "kind": "summary",
                "log_id": self.log_id,
                "events": self._events,
                "streams": self._streams,
            }
        )
        self._log.close()


class EventRecorder:
    """Guarded live emitter for single-process streams (serve, audit).

    Disabled by default; every hook behind it is a cheap attribute
    check.  Enabling attaches an :class:`EventLog`; event ids derive
    from (log id, stream, emission ordinal, caller key), so a live
    stream's ids are deterministic for a deterministic request stream.
    """

    __slots__ = ("enabled", "log", "_seq")

    def __init__(self) -> None:
        self.enabled = False
        self.log: Optional[EventLog] = None
        self._seq = 0

    def attach(self, log: EventLog) -> None:
        self.enabled = True
        self.log = log
        self._seq = 0

    def detach(self) -> None:
        self.enabled = False
        self.log = None

    def emit(self, stream: str, key: Tuple = (), **fields) -> None:
        if not self.enabled:
            return
        event_id = format_id(
            stable_hash("event", self.log.log_id, stream, self._seq, *key)
        )
        self._seq += 1
        self.log.emit({"id": event_id, "stream": stream, **fields})


#: The shared disabled recorder layers default to; callers replace it
#: with an attached instance to turn a stream on.
NULL_RECORDER = EventRecorder()


class CrawlEventBuilder:
    """Synthesizes one study's event log: crawl events, and spans if traced.

    One ``crawl`` event per (round ordinal, treatment index) cell,
    written in canonical order as rounds complete.  Everything on the
    event is a pure function of (config, schedule, outcome): the
    schedule dims come from :meth:`Study.iter_rounds`, the treatment
    dims from the study's treatment table, and the outcome from the
    same ``(index, SerpRecord | CrawlFailure)`` stream the dataset
    consumes — every run (in-process, parallel, or supervised) and
    every checkpoint replay feeds it through the run's
    :class:`~repro.core.runner.RoundMerge`.

    A ``traced`` builder also writes each round's span tree ahead of
    its cells, a supervised run's recoveries as ``supervisor.*`` spans,
    and the ``study.run`` root.  With a
    :class:`~repro.obs.replay.GatewayReplay`, canonical gateway spans
    are synthesized into the round's trees here, at merge time, rather
    than recorded live (see :mod:`repro.obs.replay` for why).
    """

    def __init__(self, path, *, study, traced: bool = False):
        fingerprint = study.checkpoint_fingerprint()
        self.log_id = trace_id_for(fingerprint)
        self.log = EventLog(path, log_id=self.log_id, meta=fingerprint)
        self.traced = traced
        self.replay = None
        if traced:
            from repro.obs.replay import GatewayReplay

            self.replay = GatewayReplay.from_study(study)
        self._schedule = {
            scheduled.ordinal: scheduled for scheduled in study.iter_rounds()
        }
        self._dims: List[dict] = [
            {
                "treatment": index,
                "granularity": treatment.granularity.value,
                "location": treatment.region.qualified_name,
                "copy": treatment.copy_index,
                "gps": [treatment.region.center.lat, treatment.region.center.lon],
                "machine": str(treatment.browser.machine.ip),
            }
            for index, treatment in enumerate(study.treatments)
        ]

    def add_round(
        self, ordinal: int, outcomes, spans: Optional[List[dict]] = None
    ) -> None:
        """Write one round: its span tree when traced, then its cells.

        ``outcomes`` pairs (treatment, outcome); ``spans`` holds the
        round's treatment trees sorted by treatment, which nest under
        the round span.
        """
        from repro.core.runner import CrawlFailure

        scheduled = self._schedule[ordinal]
        if spans is not None:
            if self.replay is not None:
                self.replay.annotate_round(spans)
            self.log.emit_span(self._round_tree(ordinal, spans))
        for index, outcome in outcomes:
            failed = isinstance(outcome, CrawlFailure)
            event = {
                "id": crawl_event_id(self.log_id, ordinal, index),
                "stream": "crawl",
                "ts": scheduled.timestamp,
                "ordinal": ordinal,
                "query": scheduled.query.text,
                "day": scheduled.day_offset,
                "outcome": outcome.kind if failed else "ok",
                "span": treatment_span_id(self.log_id, ordinal, index, "crawl"),
            }
            event.update(self._dims[index])
            self.log.emit(event)

    def _round_tree(self, ordinal: int, trees: List[dict]) -> dict:
        """The round span over its treatments' trees."""
        start = min(tree["start"] for tree in trees) if trees else 0.0
        end = max(tree["end"] for tree in trees) if trees else start
        attrs = {"ordinal": ordinal, "treatments": len(trees)}
        if trees:
            attrs["query"] = trees[0]["attrs"].get("query")
        return {
            "id": round_span_id(self.log_id, ordinal),
            "parent": study_span_id(self.log_id),
            "name": "round",
            "start": start,
            "end": end,
            "attrs": attrs,
            "events": [],
            "children": trees,
        }

    def close(self, ledger=None) -> None:
        """Close the log; traced, a supervised run's recovery ``ledger``
        (a :class:`~repro.supervise.stats.SupervisorReport`) first adds
        its ``supervisor.*`` spans."""
        if self.traced and ledger is not None:
            for tree in ledger.trace_trees(self.log_id):
                self.log.emit_span(tree)
        self.log.close()


def _split(records):
    """(header, events, summary, unknown-kind problems) of a log's records."""
    header = summary = None
    events: List[dict] = []
    unknown: List[str] = []
    for record in records:
        kind = record.get("kind")
        if kind == "header":
            header = record
        elif kind == "event":
            events.append(record)
        elif kind == "summary":
            summary = record
        else:
            unknown.append(f"unknown wide-event record kind {kind!r}")
    return header, events, summary, unknown


def read_events(path) -> Tuple[dict, List[dict], Optional[dict]]:
    """Parse a wide-event file into (header, events, summary).

    A torn tail is dropped (``summary`` is ``None`` when it held the
    summary line); interior corruption raises
    :class:`~repro.store.record_log.StoreCorruption`, and an unknown
    record kind or a missing header ``ValueError``.
    """
    header, events, summary, unknown = _split(
        record for record, _ in read_log(path)
    )
    if unknown:
        raise ValueError(unknown[0])
    if header is None:
        raise ValueError(f"{path}: not a wide-event file (no header line)")
    return header, events, summary


def check_events(path) -> Tuple[Optional[dict], List[dict], List[str]]:
    """(header, events, problems) of a wide-event file, reported, never raised.

    The problems: interior corruption, a torn tail (``truncated: true``
    at the durable prefix's byte offset), unknown record kinds, a
    missing header (``header`` is then ``None``), its ``version`` and
    ``log_id``, the summary's presence, ``log_id`` and counts, and
    event ids present and unique, each event with a stream and a
    ``ts``.
    """
    report = scan_log(path)
    problems = [
        f"corrupt record after record {region.record_index} at byte "
        f"{region.start}: {region.reason}"
        for region in report.corrupt
    ]
    if report.torn is not None:
        problems.append(
            f"truncated: true — durable prefix ends at byte "
            f"{report.durable_end} ({report.size - report.durable_end} "
            "byte(s) torn)"
        )
    header, events, summary, unknown = _split(
        scanned.obj for scanned in report.records
    )
    problems += unknown
    if header is None:
        problems.insert(0, f"{path}: not a wide-event file (no header line)")
        return None, events, problems
    if header.get("version") != EVENTS_VERSION:
        problems.append(f"unsupported wide-event version {header.get('version')!r}")
    if not header.get("log_id"):
        problems.append("header has no log_id")
    if summary is None:
        problems.append("no summary line (truncated log?)")
    elif summary.get("log_id") != header.get("log_id"):
        problems.append("summary log_id differs from header")
    seen = set()
    streams: Dict[str, int] = {}
    for event in events:
        event_id = event.get("id")
        if not event_id:
            problems.append(f"event without id: {event.get('stream')!r}")
        elif event_id in seen:
            problems.append(f"duplicate event id {event_id}")
        seen.add(event_id)
        stream = event.get("stream")
        if not stream:
            problems.append(f"event {event_id} has no stream")
        else:
            streams[stream] = streams.get(stream, 0) + 1
        if "ts" not in event:
            problems.append(f"event {event_id} has no ts")
    if summary is not None:
        if summary.get("events") != len(events):
            problems.append(
                f"summary says {summary.get('events')} events, file holds "
                f"{len(events)}"
            )
        if summary.get("streams") != streams:
            problems.append("summary stream counts differ from the file")
    return header, events, problems


def validate_events(path) -> List[str]:
    """Structural checks over a wide-event file (empty list = ok)."""
    return check_events(path)[2]
