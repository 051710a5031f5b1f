"""CRC32-framed JSONL record logs with a scavenging scanner.

Every journal and log in the system — checkpoint, audit store, wide
events (a traced run's spans included) — is a sequence of framed
lines::

    ~F1 <length:08x> <crc32:08x> <payload>\\n

The payload is the client's own canonical JSON, byte for byte — the
frame wraps it, never rewrites it, so the byte-identity guarantees the
journals are tested for (same payload bytes across worker counts and
kill/resume) survive the migration with their meaning intact.  ``~``
cannot begin a JSON document, so framed and legacy (unframed) lines
coexist in one file and the scanner reads both; legacy records simply
carry no checksum.

The scanner classifies damage by *position*, which is what separates
the two failure stories a record log can tell:

torn tail
    Invalid bytes after the last valid record — the write in flight
    when the process died.  Expected, benign, recoverable: loaders
    truncate it and resume.

interior corruption
    An invalid region strictly *before* a later valid record.  No
    crash writes in the middle of a file; this is bit rot, a lying
    disk, or an editor.  Readers raise :class:`StoreCorruption` naming
    the segment, byte offset, and record index — never a silent skip —
    and ``repro fsck --repair`` is the explicit, logged way to
    scavenge around it.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.store.fileops import current_ops

__all__ = [
    "FRAME_PREFIX",
    "InvalidRegion",
    "RecordLogWriter",
    "ScanReport",
    "ScannedRecord",
    "STORE_STATS",
    "StoreCorruption",
    "StoreStats",
    "frame_record",
    "read_log",
    "reframe_line",
    "scan_bytes",
    "scan_log",
    "segment_paths",
    "set_recovery_hook",
    "unframe_line",
]

FRAME_PREFIX = b"~F1 "
#: ``~F1 `` + 8 hex length + space + 8 hex crc + space.
_HEADER_LEN = len(FRAME_PREFIX) + 8 + 1 + 8 + 1
_HEX = frozenset(b"0123456789abcdef")
_SEGMENT_RE = re.compile(r"\.seg(\d{6})$")


def frame_record(payload: bytes) -> bytes:
    """Wrap one canonical-JSON payload in a checksummed frame line."""
    if b"\n" in payload:
        raise ValueError("record payloads must be single lines")
    return b"~F1 %08x %08x " % (len(payload), zlib.crc32(payload)) + payload + b"\n"


def unframe_line(line: Union[str, bytes]) -> str:
    """The payload of a framed line; legacy lines pass through unchanged.

    A text-level helper for tools (and tests) that edit journal lines:
    ``json.loads(unframe_line(line))`` works on framed and legacy files
    alike.  The frame's checksum is *not* verified here — that is the
    scanner's job.
    """
    text = line.decode("utf-8") if isinstance(line, bytes) else line
    stripped = text.rstrip("\n")
    if stripped.encode("utf-8").startswith(FRAME_PREFIX):
        return stripped[_HEADER_LEN:]
    return stripped


def reframe_line(payload: str) -> str:
    """Frame one payload string as a text line (no trailing newline)."""
    return frame_record(payload.encode("utf-8")).decode("utf-8")[:-1]


class StoreCorruption(RuntimeError):
    """Interior corruption in a record log: damage before valid data.

    Carries the forensic coordinates ``repro fsck`` reports: which
    segment file, the byte offset of the damaged region, how many
    valid records preceded it, and why the bytes were rejected.
    """

    def __init__(
        self, path: str, *, segment: str, offset: int, record_index: int, reason: str
    ):
        super().__init__(
            f"{path}: corrupt record after record {record_index} at byte "
            f"{offset} of segment {segment}: {reason} (run `repro fsck` to "
            "inspect, `--repair` to scavenge)"
        )
        self.path = path
        self.segment = segment
        self.offset = offset
        self.record_index = record_index
        self.reason = reason


@dataclass
class ScannedRecord:
    """One valid record: its parsed payload and exact byte extent."""

    obj: dict
    payload: bytes
    start: int
    end: int
    framed: bool
    line: bytes
    """The full original line bytes — what a byte-preserving repair keeps."""


@dataclass
class InvalidRegion:
    """One contiguous run of bytes the scanner rejected."""

    start: int
    end: int
    reason: str
    record_index: int
    """How many valid records precede the region."""

    def to_dict(self) -> dict:
        return {
            "offset": self.start,
            "bytes": self.end - self.start,
            "record_index": self.record_index,
            "reason": self.reason,
        }


@dataclass
class ScanReport:
    """Everything the scanner learned about one log file."""

    path: Optional[str]
    size: int
    records: List[ScannedRecord] = field(default_factory=list)
    corrupt: List[InvalidRegion] = field(default_factory=list)
    torn: Optional[InvalidRegion] = None
    legacy_records: int = 0

    @property
    def durable_end(self) -> int:
        """Byte offset just past the last valid record (0 if none)."""
        return self.records[-1].end if self.records else 0

    @property
    def clean(self) -> bool:
        return not self.corrupt and self.torn is None


def _validate_line(line: bytes, start: int) -> Tuple[Optional[ScannedRecord], str]:
    """Parse one newline-terminated line; (record, "") or (None, reason)."""
    end = start + len(line)
    if line.startswith(FRAME_PREFIX):
        if len(line) < _HEADER_LEN + 1:
            return None, "framed line shorter than its header"
        length_hex = line[len(FRAME_PREFIX) : len(FRAME_PREFIX) + 8]
        crc_hex = line[len(FRAME_PREFIX) + 9 : len(FRAME_PREFIX) + 17]
        if (
            not _HEX.issuperset(length_hex)
            or not _HEX.issuperset(crc_hex)
            or line[len(FRAME_PREFIX) + 8 : len(FRAME_PREFIX) + 9] != b" "
            or line[_HEADER_LEN - 1 : _HEADER_LEN] != b" "
        ):
            return None, "malformed frame header"
        payload = line[_HEADER_LEN:-1]
        if len(payload) != int(length_hex, 16):
            return None, (
                f"frame declares {int(length_hex, 16)} payload bytes, "
                f"line carries {len(payload)}"
            )
        if zlib.crc32(payload) != int(crc_hex, 16):
            return None, "checksum mismatch"
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None, "checksum valid but payload is not JSON"
        if not isinstance(obj, dict):
            return None, "payload is not a JSON object"
        return ScannedRecord(obj, payload, start, end, True, line), ""
    payload = line[:-1]
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, "neither a framed record nor legacy JSON"
    if not isinstance(obj, dict):
        return None, "legacy line is not a JSON object"
    return ScannedRecord(obj, payload, start, end, False, line), ""


def scan_bytes(data: bytes, *, path: Optional[str] = None) -> ScanReport:
    """Scan one log's bytes, classifying every record and damaged region."""
    report = ScanReport(path=path, size=len(data))
    invalid: List[InvalidRegion] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            invalid.append(
                InvalidRegion(offset, len(data), "unterminated line", 0)
            )
            break
        line = data[offset : newline + 1]
        if line.strip() == b"":
            offset = newline + 1
            continue  # writers never emit blank lines; ignore them
        record, reason = _validate_line(line, offset)
        if record is not None:
            report.records.append(record)
            if not record.framed:
                report.legacy_records += 1
        else:
            invalid.append(InvalidRegion(offset, newline + 1, reason, 0))
        offset = newline + 1
    durable_end = report.durable_end
    for region in invalid:
        region.record_index = sum(
            1 for record in report.records if record.end <= region.start
        )
        if region.start >= durable_end:
            if report.torn is None:
                report.torn = InvalidRegion(
                    region.start, report.size, region.reason, region.record_index
                )
        else:
            report.corrupt.append(region)
    return report


def scan_log(path) -> ScanReport:
    """Read-only scan of one log file (no truncation, no repair)."""
    with open(path, "rb") as handle:
        data = handle.read()
    return scan_bytes(data, path=str(path))


def segment_paths(path) -> List[str]:
    """Every file of a possibly-rotated log: rotated segments, then active."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    segments = []
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.startswith(base + ".seg") and _SEGMENT_RE.search(name):
                segments.append(os.path.join(directory, name))
    segments.sort()
    if os.path.exists(path) or not segments:
        segments.append(path)
    return segments


# -- recovery accounting ------------------------------------------------------


@dataclass
class StoreStats:
    """Process-wide recovery counters (see ``build_store_registry``)."""

    torn_tails_recovered: int = 0
    torn_bytes_dropped: int = 0
    legacy_records: int = 0
    corrupt_records_detected: int = 0
    records_scavenged: int = 0
    repairs: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return dict(sorted(vars(self).items()))


#: Shared recovery ledger every scavenging loader increments.
STORE_STATS = StoreStats()

_recovery_hook: Optional[Callable[[dict], None]] = None


def set_recovery_hook(hook: Optional[Callable[[dict], None]]) -> None:
    """Install a callback for recovery events (``repro fsck`` wires this
    to the wide-event stream; ``None`` uninstalls)."""
    global _recovery_hook
    _recovery_hook = hook


def _emit_recovery(op: str, **fields) -> None:
    if _recovery_hook is not None:
        _recovery_hook({"op": op, **fields})


def read_log(path) -> List[Tuple[dict, int]]:
    """The durable records of one log: ``(payload, end_offset)`` pairs.

    Torn tails are tolerated (counted, dropped from the result, file
    left untouched — truncation is the opening writer's decision).
    Interior corruption raises :class:`StoreCorruption`.
    """
    report = scan_log(path)
    if report.corrupt:
        first = report.corrupt[0]
        STORE_STATS.corrupt_records_detected += len(report.corrupt)
        _emit_recovery(
            "corruption-detected",
            path=str(path),
            offset=first.start,
            record_index=first.record_index,
            reason=first.reason,
        )
        raise StoreCorruption(
            str(path),
            segment=os.path.basename(str(path)),
            offset=first.start,
            record_index=first.record_index,
            reason=first.reason,
        )
    if report.torn is not None:
        STORE_STATS.torn_tails_recovered += 1
        STORE_STATS.torn_bytes_dropped += report.size - report.durable_end
        _emit_recovery(
            "torn-tail",
            path=str(path),
            offset=report.durable_end,
            bytes=report.size - report.durable_end,
        )
    STORE_STATS.legacy_records += report.legacy_records
    return [(record.obj, record.end) for record in report.records]


# -- writing ------------------------------------------------------------------


class RecordLogWriter:
    """Appends framed records to a (possibly rotating) log file.

    All file traffic goes through the :mod:`repro.store.fileops` seam,
    so a :class:`~repro.store.faults.FaultyFileOps` installed with
    :func:`~repro.store.fileops.use_fileops` faults every journal in
    the process.  ``segment_bytes`` turns on rotation: when the active
    file would outgrow the limit, it is renamed to the next
    ``<path>.segNNNNNN`` (atomic replace + directory fsync) and a fresh
    active file is started; :func:`segment_paths` enumerates the set.
    """

    def __init__(self, path, handle, ops, *, segment_bytes=None, size=0):
        self.path = str(path)
        self._handle = handle
        self._ops = ops
        self._segment_bytes = segment_bytes
        self._size = size

    @classmethod
    def create(cls, path, *, ops=None, segment_bytes=None, fsync_directory=True):
        """Start a fresh log (truncating any existing active file).

        With ``fsync_directory`` (the default for journals that must
        survive crashes) the parent directory is fsynced so the new
        file's *name* is durable, not just its bytes.
        """
        ops = ops or current_ops()
        handle = ops.open_trunc(path)
        if fsync_directory:
            ops.fsync_dir(os.path.dirname(str(path)))
        return cls(path, handle, ops, segment_bytes=segment_bytes)

    @classmethod
    def append_to(cls, path, *, ops=None, segment_bytes=None):
        """Reopen an existing (already scavenged) log for appending."""
        ops = ops or current_ops()
        size = os.path.getsize(path) if os.path.exists(path) else 0
        return cls(path, ops.open_append(path), ops, segment_bytes=segment_bytes,
                   size=size)

    def append(self, text: str) -> None:
        """Frame and append one canonical-JSON payload string."""
        data = frame_record(text.encode("utf-8"))
        self._rotate_if_needed(len(data))
        self._ops.write(self._handle, data)
        self._size += len(data)

    def flush(self) -> None:
        self._ops.flush(self._handle)

    def commit(self) -> None:
        """Flush and fsync: appended records are durable on return."""
        self._ops.fsync(self._handle)

    def close(self) -> None:
        if self._handle is not None:
            self._ops.flush(self._handle)
            self._ops.close(self._handle)
            self._handle = None

    def _rotate_if_needed(self, incoming: int) -> None:
        if (
            self._segment_bytes is None
            or self._size == 0
            or self._size + incoming <= self._segment_bytes
        ):
            return
        self.commit()
        self._ops.close(self._handle)
        existing = [p for p in segment_paths(self.path) if p != self.path]
        segment = f"{self.path}.seg{len(existing):06d}"
        self._ops.replace(self.path, segment)
        self._ops.fsync_dir(os.path.dirname(self.path))
        self._handle = self._ops.open_trunc(self.path)
        self._size = 0
