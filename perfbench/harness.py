"""Statistics and process accounting shared by the benchmark's processes.

Everything here is a pure function of its inputs (or of one ``os`` /
``resource`` reading), so the tests in ``perfbench/tests`` pin it down
without running a workload.
"""

from __future__ import annotations

import bisect
import math
import mmap
import os
import resource
import signal
import statistics
import struct
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Samples that must lie beyond a reported percentile (choosing-metrics
#: rule: report the highest percentile with at least ten beyond it).
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile, refused when too few samples lie beyond.

    The rank is ``ceil(pct/100 * n)``; the samples strictly above it
    must number at least :data:`MIN_BEYOND`, so p99 needs 1,000 samples
    and p50 needs 20.  Raises ``ValueError`` otherwise rather than
    report a tail that rests on a handful of points.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * count))
    beyond = count - rank
    if count == 0 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {count} samples has {max(beyond, 0)} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was counted."""
    return part / whole if whole else 0.0


def cpu_reading() -> Tuple[float, float]:
    """(this process, its reaped children) user+sys CPU seconds so far.

    The ``os.times()`` quantities, read through ``getrusage`` for
    microsecond rather than clock-tick resolution.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def cpu_seconds(before: Tuple[float, float], after: Tuple[float, float]) -> float:
    """CPU of the process plus its reaped children between two readings."""
    return (after[0] - before[0]) + (after[1] - before[1])


def cpu_ms_per_page(cpu_s: float, pages: int) -> float:
    """CPU milliseconds per delivered page."""
    if pages <= 0:
        raise ValueError("no pages delivered")
    return 1000.0 * cpu_s / pages


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


# -- host speed ----------------------------------------------------------------

#: Wall seconds between two speed probes of one process.
PROBE_INTERVAL_S = 0.04

#: Nanoseconds one probe pass takes at the reference speed (about the
#: fast level of a 2.1 GHz Xeon vCPU); a probe twice as slow reads 0.5.
PROBE_REFERENCE_NS = 285_000

#: What a probe pass sweeps: as many entries as a serve cache holds
#: live, each a (key tuple) -> (object, float) pair.
_PROBE_TABLE = OrderedDict(
    ((i, "q%d" % i, i % 7), (object(), float(i))) for i in range(2048)
)


def _probe_pass() -> int:
    """Fixed interpreter work: string keys into a small dict, then a sweep.

    The two halves load a vCPU differently (tight dispatch on hot
    lines versus a walk over a few hundred KiB of objects), as the
    benchmark's workloads do, so the probe's slowdown follows theirs.
    """
    table: Dict[str, int] = {}
    total = 0
    for i in range(400):
        key = "k%d" % (i & 63)
        table[key] = table.get(key, 0) + i
        total += len(key)
    stale = [key for key, (_, expires) in _PROBE_TABLE.items() if expires < 0.0]
    return total + len(stale)


def _steal_busy(fd: int) -> Tuple[int, int]:
    """(steal, busy) jiffies of all CPUs so far, from the first line of /proc/stat.

    Busy is the time the guest ran something or wanted to and had it
    stolen by the host: user, nice, system, irq, softirq and steal.
    """
    fields = os.pread(fd, 512, 0).split(b"\n", 1)[0].split()
    values = [int(value) for value in fields[1:9]] + [0] * 8
    user, nice, system, _, _, irq, softirq, steal = values[:8]
    return steal, user + nice + system + irq + softirq + steal


class SpeedProbe:
    """The host's speed over stretches of a run, read from inside the program.

    A wall-clock timer interrupts the process every
    :data:`PROBE_INTERVAL_S`; the handler runs a fixed piece of
    interpreter work twice, times the second pass (the first re-warms
    what the program evicted from the caches) and reads the host's
    steal counters.  Processes forked while the probe runs (crawl
    workers) re-arm the timer and probe the vCPU they run on; every
    process writes its probes to its own slot of a shared anonymous
    mapping, so the root process sees them all.  :func:`host_speeds`
    turns the probes of a stretch into the factors that scale its
    times to the reference speed.
    """

    SLOTS = 64
    SLOT_PROBES = 8192
    #: taken_ns, duration_ns, steal and busy jiffies.
    _RECORD = struct.Struct("qqqq")

    def __init__(self):
        self._slot_bytes = 8 + self.SLOT_PROBES * self._RECORD.size
        self._shared = mmap.mmap(-1, self.SLOTS * self._slot_bytes)
        self._stat_fd = os.open("/proc/stat", os.O_RDONLY)
        self._root_pid = os.getpid()
        self._slot = 0
        self._forks = 0
        self._armed = False
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _before_fork(self) -> None:
        if os.getpid() == self._root_pid:
            self._forks += 1

    def _in_child(self) -> None:
        if not self._armed:
            return
        if os.getpid() != self._root_pid and self._slot != 0:
            # A worker's own fork: leave its probes to the worker.
            signal.setitimer(signal.ITIMER_REAL, 0)
            return
        self._slot = 1 + (self._forks - 1) % (self.SLOTS - 1)
        struct.pack_into("q", self._shared, self._slot * self._slot_bytes, 0)
        self._arm()

    def _tick(self, signum, frame) -> None:
        _probe_pass()
        started = time.perf_counter_ns()
        _probe_pass()
        duration = time.perf_counter_ns() - started
        steal, busy = _steal_busy(self._stat_fd)
        base = self._slot * self._slot_bytes
        (count,) = struct.unpack_from("q", self._shared, base)
        if count < self.SLOT_PROBES:
            offset = base + 8 + count * self._RECORD.size
            self._RECORD.pack_into(
                self._shared, offset, started, duration, steal, busy
            )
            struct.pack_into("q", self._shared, base, count + 1)

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        self._arm()
        return self

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def probes(self) -> List[Probe]:
        """Every probe of every process so far, in the order they were taken."""
        probes = []
        for slot in range(self.SLOTS):
            base = slot * self._slot_bytes
            (count,) = struct.unpack_from("q", self._shared, base)
            probes.extend(
                self._RECORD.unpack_from(self._shared, base + 8 + i * self._RECORD.size)
                for i in range(count)
            )
        return sorted(probes)


#: One probe: (taken_ns, duration_ns, steal jiffies, busy jiffies).
Probe = Tuple[int, int, int, int]


def steal_share(probes: Sequence[Probe]) -> float:
    """Share of the busy CPU time the host stole between the first and last probe."""
    busy = probes[-1][3] - probes[0][3]
    return (probes[-1][2] - probes[0][2]) / busy if busy > 0 else 0.0


def host_speeds(probes: Sequence[Probe], start_ns: int, end_ns: int) -> Dict[str, float]:
    """Scale factors to reference speed for a stretch, from its probes.

    ``cpu`` is the mean of :data:`PROBE_REFERENCE_NS` over each probe's
    duration: how fast the host ran the program while it ran it.  CPU
    time excludes what the host stole, so it takes ``cpu`` alone.
    ``wall`` also leaves out the stolen share of the stretch, which a
    probe cannot see (the timer's signal is handled only once the vCPU
    runs again), so wall time takes ``wall``.
    """
    inside = [probe for probe in probes if start_ns <= probe[0] < end_ns]
    if not inside:
        raise ValueError("no speed probe landed in the stretch")
    cpu = statistics.fmean(PROBE_REFERENCE_NS / probe[1] for probe in inside)
    return {"cpu": cpu, "wall": cpu * (1.0 - steal_share(inside))}


#: Half the stretch around an op whose probes give the op its speed.
OP_SPEED_HALF_WIDTH_NS = 250_000_000


def op_speeds(
    probes: Sequence[Probe], spans: Sequence[Tuple[int, int]], stolen: float
) -> List[float]:
    """Wall scale factor of each ``(start_ns, end_ns)`` op, for its latency.

    Each op takes the mean probe speed from :data:`OP_SPEED_HALF_WIDTH_NS`
    before it starts to as long after it ends, so an op caught in a
    slow stretch of the host is scaled by that stretch, not by the
    window's mean; ``stolen`` is the steal share of the window (the
    host's counters tick too coarsely to split it per op).
    """
    times = [probe[0] for probe in probes]
    totals = [0.0]
    for probe in probes:
        totals.append(totals[-1] + PROBE_REFERENCE_NS / probe[1])
    speeds = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - OP_SPEED_HALF_WIDTH_NS)
        hi = bisect.bisect_left(times, end + OP_SPEED_HALF_WIDTH_NS)
        if hi == lo:
            raise ValueError("no speed probe landed near an op")
        speeds.append((totals[hi] - totals[lo]) / (hi - lo) * (1.0 - stolen))
    return speeds


# -- host diagnostics (recorded beside a run, never a metric) ---------------


def read_cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies from the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    values = [int(value) for value in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest/guest_nice are already folded into user/nice.
    return steal, sum(values[:8])


def host_diagnostics(before: Tuple[int, int], after: Tuple[int, int]) -> dict:
    """Steal share over an interval plus the current load averages."""
    steal = after[0] - before[0]
    total = after[1] - before[1]
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "steal_share": steal / total if total > 0 else 0.0,
        "loadavg": load,
        "cpus": os.cpu_count(),
    }


# -- spans -------------------------------------------------------------------

#: One recorded span: (name, start_ns, end_ns, parent index or -1, op id);
#: the functions below read only the first four fields.
Span = Tuple


def _union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``[start, end)`` intervals."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds per span name of each span minus what its children cover.

    Children are clipped to their parent, so a recursive call (a span
    nested in a span of the same name) is charged once: the inner
    call's time leaves the outer one's self time and lands in its own.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children.setdefault(parent, []).append(
                (max(start, p_start), min(end, p_end))
            )
    totals: Dict[str, float] = {}
    for index, (name, start, end, *_) in enumerate(spans):
        own = (end - start) - _union_length(children.get(index, ()))
        totals[name] = totals.get(name, 0.0) + own / 1e9
    return totals


def window_profile(
    spans: Sequence[Span], window: Tuple[int, int]
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """(self seconds per name, calls per name, unattributed seconds) in a window.

    Only spans that start inside ``window`` count, clipped to its end;
    a span whose parent started before the window becomes a root.
    ``unattributed`` is the window minus the union of those roots,
    computed apart from the self times, so the self times plus
    ``unattributed`` add up to the window only if self time neither
    drops nor double-counts nesting.
    """
    w_start, w_end = window
    inside = [span for span in spans if w_start <= span[1] < w_end]
    index_of = {id(span): i for i, span in enumerate(inside)}
    remapped: List[Span] = []
    calls: Dict[str, int] = {}
    for name, start, end, parent, *_ in inside:
        parent_span = spans[parent] if parent >= 0 else None
        new_parent = index_of.get(id(parent_span), -1) if parent_span else -1
        remapped.append((name, start, min(end, w_end), new_parent))
        calls[name] = calls.get(name, 0) + 1
    roots = [(start, end) for _, start, end, parent in remapped if parent < 0]
    unattributed = (w_end - w_start - _union_length(roots)) / 1e9
    return self_times(remapped), calls, unattributed


def median_metrics(samples: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-key median over samples that all carry the same keys."""
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }
