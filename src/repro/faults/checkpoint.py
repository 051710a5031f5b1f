"""Round-granular crawl checkpoints.

A 30-day crawl that loses everything when a process dies is a 30-day
bet.  ``Study.run(checkpoint=path)`` journals the run to a single
append-only JSONL file so a killed study resumes where it stopped —
and, because every layer of engine state is snapshotted alongside the
data, the resumed run is **byte-identical** to an uninterrupted one.

File layout (one JSON object per line)::

    {"kind": "header", "version": 2, "shards": [[0, 1, ...], ...], "fingerprint": {...}}
    {"kind": "round", "ordinal": 0, "outcomes": [{"r": {...}}, ...], "spans": [...]}
    {"kind": "state", "ordinal": 0, "worker": 0, "state": {...}}
    ... one "round" line + W "state" lines per completed round ...

* ``outcomes`` hold serialized :class:`~repro.core.datastore.SerpRecord`
  dicts (``"r"``) and ``CrawlFailure`` dicts (``"f"``) in canonical
  treatment order — exactly the order a live run appends them, so
  re-feeding them reconstructs the dataset, failure log, and sink
  stream byte-for-byte.
* ``spans`` (traced runs only) hold the round's span trees in
  treatment order, before any merge-time gateway replay, so a resumed
  run rebuilds its event log's span trees from the journal the way it
  rebuilds the dataset's.  An untraced round line has no ``spans`` key.
* ``shards`` is the shard layout: per worker, the treatment indices it
  crawls (one shard of every treatment for a sequential run).  W, the
  worker count, is its length.
* ``state`` is the worker's full post-round snapshot
  (``Study.capture_state()``: crawl/fault stats, browser counters,
  engine session + rate-limiter state, gateway queues, breakers).

A round is **durable** once its round line *and* all W state lines are
on disk (each round's lines are written, then flushed and fsynced,
before the outcomes are released to the caller's sink).  On resume the
loader takes the longest durable prefix, truncates any partial tail
(the write that was in flight when the process died), verifies the
header fingerprint against the current study configuration, and hands
back the journaled outcomes plus the last round's worker states.

This module is deliberately ignorant of study objects: it speaks JSON
dicts only.  (De)serializing records and snapshots is the runner's
job, which keeps the dependency arrow pointing ``core.runner →
faults.checkpoint`` with no cycle.

Since the :mod:`repro.store` migration every line is CRC32-framed
(``~F1 <len> <crc> <payload>``) so torn writes and bit flips are
*detected*, not silently parsed; the payload inside the frame is the
same canonical JSON as before, and legacy unframed journals still
load.  A frame that fails its checksum **before** later valid data is
interior corruption and raises
:class:`~repro.store.record_log.StoreCorruption` instead of quietly
shortening the run — ``repro fsck --repair`` is the explicit way out.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.store.fileops import current_ops
from repro.store.record_log import RecordLogWriter, read_log

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointWriter",
    "ResumeState",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """The checkpoint file cannot be used with this study."""


@dataclass
class ResumeState:
    """What a durable checkpoint prefix contains."""

    next_ordinal: int = 0
    """First round that still needs to run."""
    rounds: List[List[dict]] = field(default_factory=list)
    """Per completed round: raw outcome dicts in canonical order."""
    spans: List[Optional[List[dict]]] = field(default_factory=list)
    """Per completed round: its span trees, ``None`` for an untraced round."""
    worker_states: Dict[int, dict] = field(default_factory=dict)
    """Worker id → state snapshot at round ``next_ordinal - 1``."""


class CheckpointWriter:
    """Appends durable round + state lines to a checkpoint journal."""

    def __init__(self, path: str, log: RecordLogWriter):
        self.path = path
        self._log = log

    @classmethod
    def create(cls, path: str, header: dict) -> "CheckpointWriter":
        """Start a fresh journal (truncating any existing file).

        The parent directory is fsynced so the journal's directory
        entry — not just its bytes — survives a crash.
        """
        writer = cls(path, RecordLogWriter.create(path))
        writer._write_line({"kind": "header", **header})
        writer.flush()
        return writer

    @classmethod
    def append_to(cls, path: str) -> "CheckpointWriter":
        """Reopen an existing (already truncated-to-durable) journal."""
        return cls(path, RecordLogWriter.append_to(path))

    def append_round(
        self,
        ordinal: int,
        outcomes: List[dict],
        states: Dict[int, dict],
        spans: Optional[List[dict]] = None,
    ) -> None:
        """Journal one completed round and every worker's post-round state.

        ``spans``, a traced round's span trees, ride the round line.  The
        round is durable — and its outcomes may be released to the
        caller's sink — only after this returns.
        """
        line = {"kind": "round", "ordinal": ordinal, "outcomes": outcomes}
        if spans is not None:
            line["spans"] = spans
        self._write_line(line)
        for worker_id in sorted(states):
            self._write_line(
                {
                    "kind": "state",
                    "ordinal": ordinal,
                    "worker": worker_id,
                    "state": states[worker_id],
                }
            )
        self.flush()

    def _write_line(self, payload: dict) -> None:
        self._log.append(json.dumps(payload, sort_keys=True))

    def flush(self) -> None:
        self._log.commit()

    def close(self) -> None:
        self._log.close()


def load_checkpoint(
    path: str, *, expected_fingerprint: dict, shards: Sequence[Sequence[int]]
) -> Optional[ResumeState]:
    """Load the durable prefix of a journal, truncating any partial tail.

    ``shards`` is the resuming run's layout: per worker, the treatment
    indices it crawls.  Returns ``None`` when ``path`` does not exist
    (a fresh run).  Raises :class:`CheckpointError` when the file exists
    but cannot be resumed: unreadable header, version/fingerprint
    mismatch, or a different shard layout (shard state snapshots only
    fit the layout that produced them).  Interior corruption — a record
    that fails its checksum before later valid data — raises
    :class:`~repro.store.record_log.StoreCorruption` instead of being
    silently absorbed into a shorter resume.
    """
    if not os.path.exists(path):
        return None
    # Torn tails (the write in flight at death) are dropped here and
    # truncated below; framed and legacy unframed lines both load.
    lines = read_log(path)
    if not lines:
        raise CheckpointError(f"checkpoint {path!r} has no readable header")

    header, header_end = lines[0]
    if header.get("kind") != "header":
        raise CheckpointError(f"checkpoint {path!r} does not start with a header")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} is version {header.get('version')}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    workers = len(shards)
    recorded = header.get("shards") or []
    if recorded != [list(shard) for shard in shards]:
        raise CheckpointError(
            f"checkpoint {path!r} was written by a {len(recorded)}-worker run "
            "with a different shard layout and cannot resume with "
            f"workers={workers}: per-worker state snapshots only fit the "
            "shard layout that produced them"
        )
    if header.get("fingerprint") != expected_fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} was written by a different study "
            "configuration; refusing to mix datasets"
        )

    # Longest durable prefix: rounds 0..n-1, each with all worker states.
    rounds: List[List[dict]] = []
    spans: List[Optional[List[dict]]] = []
    worker_states: Dict[int, dict] = {}
    durable_end = header_end
    pending_round: Optional[List[dict]] = None
    pending_states: Dict[int, dict] = {}
    for payload, end in lines[1:]:
        kind = payload.get("kind")
        if kind == "round":
            if payload.get("ordinal") != len(rounds) or pending_round is not None:
                break  # out-of-order journal: stop at the durable prefix
            pending_round = payload["outcomes"]
            pending_spans = payload.get("spans")
            pending_states = {}
        elif kind == "state":
            if pending_round is None or payload.get("ordinal") != len(rounds):
                break
            pending_states[int(payload["worker"])] = payload["state"]
        else:
            break
        if pending_round is not None and len(pending_states) == workers:
            rounds.append(pending_round)
            spans.append(pending_spans)
            worker_states = pending_states
            durable_end = end
            pending_round = None
            pending_states = {}

    # Drop anything after the durable prefix so appends start clean.
    actual_size = os.path.getsize(path)
    if actual_size > durable_end:
        current_ops().truncate(path, durable_end)

    return ResumeState(
        next_ordinal=len(rounds),
        rounds=rounds,
        spans=spans,
        worker_states=worker_states,
    )
