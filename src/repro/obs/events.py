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
separators, like the trace format — byte determinism is a format
property.

Streams
-------
``crawl``
    One event per (round, treatment) cell of a study schedule.  These
    are **synthesized parent-side** by :class:`CrawlEventBuilder` from
    the canonical outcome stream — the same builder pattern as the
    trace's :class:`~repro.obs.exporters.TraceBuilder`, and the reason
    the log is byte-identical for any worker count *and* across
    kill/resume: a resumed run re-synthesizes the journaled rounds'
    events from the checkpoint, something live worker-side emission
    could never replay.
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

from repro.obs.trace import format_id
from repro.seeding import stable_hash
from repro.store.record_log import RecordLogWriter, read_log, scan_log

__all__ = [
    "EVENTS_VERSION",
    "EventLog",
    "EventRecorder",
    "NULL_RECORDER",
    "CrawlEventBuilder",
    "crawl_event_id",
    "crawl_span_id",
    "read_events",
    "validate_events",
]

EVENTS_VERSION = 1


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def crawl_event_id(log_id: str, ordinal: int, treatment: int) -> str:
    """The id of the crawl event at canonical cell (round, treatment)."""
    return format_id(stable_hash("event", log_id, "crawl", ordinal, treatment))


def crawl_span_id(trace_id: str, ordinal: int, treatment: int) -> str:
    """The exemplar link: the id the tracer gives this cell's ``crawl`` span.

    Pure function of the same coordinates the event keys on (see
    :meth:`Tracer.begin`'s treatment-root scheme), so events link to
    trace spans without the trace existing — run ``--trace`` later with
    the same config and the ids line up.
    """
    return format_id(
        stable_hash("span", trace_id, "round", ordinal, "treatment", treatment, "crawl")
    )


class EventLog:
    """Streams canonical wide-event JSONL to a file.

    Records are CRC32-framed through :mod:`repro.store` (the payload
    inside the frame is the same canonical JSON as ever, so rollup and
    SLO byte-identity are untouched).
    """

    def __init__(self, path, *, log_id: str, meta: Optional[dict] = None):
        # Observability output: no directory fsync, no per-record
        # fsync — an event log is replayable, not load-bearing state.
        self._log = RecordLogWriter.create(path, fsync_directory=False)
        self.log_id = log_id
        self._events = 0
        self._streams: Dict[str, int] = {}
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

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
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
    """Synthesizes the canonical ``crawl`` event stream for one study.

    One event per (round ordinal, treatment index) cell, written in
    canonical order as rounds complete.  Everything on the event is a
    pure function of (config, schedule, outcome): the schedule dims
    come from :meth:`Study.iter_rounds`, the treatment dims from the
    study's treatment table, and the outcome from the same
    ``(index, SerpRecord | CrawlFailure)`` stream the dataset
    consumes — every run (in-process, parallel, or supervised) and
    every checkpoint replay feeds it through the run's
    :class:`~repro.core.runner.RoundMerge`.
    """

    def __init__(self, path, *, study):
        from repro.obs.trace import trace_id_for

        fingerprint = study.checkpoint_fingerprint()
        self.log_id = trace_id_for(fingerprint)
        self.log = EventLog(path, log_id=self.log_id, meta=fingerprint)
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
        self._closed = False

    def add_round(self, ordinal: int, outcomes) -> None:
        """Write one round's cells; ``outcomes`` pairs (treatment, outcome)."""
        from repro.core.runner import CrawlFailure

        scheduled = self._schedule[ordinal]
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
                "span": crawl_span_id(self.log_id, ordinal, index),
            }
            event.update(self._dims[index])
            self.log.emit(event)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.log.close()


def _split(records, body: str, label: str):
    """(header, body records, summary, unknown-kind problems) of a log."""
    header = summary = None
    found: List[dict] = []
    unknown: List[str] = []
    for record in records:
        kind = record.get("kind")
        if kind == "header":
            header = record
        elif kind == body:
            found.append(record)
        elif kind == "summary":
            summary = record
        else:
            unknown.append(f"unknown {label} record kind {kind!r}")
    return header, found, summary, unknown


def read_header_log(path, body: str, label: str):
    """(header, body records, summary) of a header/body/summary log.

    The readers of the event log and the trace.  A torn tail is dropped
    (``summary`` is ``None`` when it held the summary line); interior
    corruption raises :class:`~repro.store.record_log.StoreCorruption`,
    and an unknown record kind or a missing header ``ValueError``.
    """
    header, found, summary, unknown = _split(
        (record for record, _ in read_log(path)), body, label
    )
    if unknown:
        raise ValueError(unknown[0])
    if header is None:
        raise ValueError(f"{path}: not a {label} file (no header line)")
    return header, found, summary


def check_header_log(path, body: str, label: str, *, version: int, id_key: str):
    """(header, body records, summary, problems) of a header/body/summary log.

    The checks the event log and the trace share, reported, never
    raised: interior corruption, a torn tail (``truncated: true`` at
    the durable prefix's byte offset), unknown record kinds, a missing
    header (``header`` is then ``None``), its ``version`` and
    ``id_key``, and the summary's presence and ``id_key``.
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
    header, found, summary, unknown = _split(
        (scanned.obj for scanned in report.records), body, label
    )
    problems += unknown
    if header is None:
        problems.insert(0, f"{path}: not a {label} file (no header line)")
        return None, found, summary, problems
    if header.get("version") != version:
        problems.append(f"unsupported {label} version {header.get('version')!r}")
    if not header.get(id_key):
        problems.append(f"header has no {id_key}")
    if summary is None:
        problems.append("no summary line (truncated log?)")
    elif summary.get(id_key) != header.get(id_key):
        problems.append(f"summary {id_key} differs from header")
    return header, found, summary, problems


def read_events(path) -> Tuple[dict, List[dict], Optional[dict]]:
    """Parse a wide-event file into (header, events, summary)."""
    return read_header_log(path, "event", "wide-event")


def validate_events(path) -> List[str]:
    """Structural checks over a wide-event file (empty list = ok).

    :func:`check_header_log`'s, then: event ids present and unique,
    each event with a stream and a ``ts``, summary counts match.
    """
    header, events, summary, problems = check_header_log(
        path, "event", "wide-event", version=EVENTS_VERSION, id_key="log_id"
    )
    if header is None:
        return problems
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
    return problems
