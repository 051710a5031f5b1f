"""The unified metrics layer: histograms, the stats protocol, the registry.

Three subsystems keep counters — :class:`~repro.core.runner.CrawlStats`,
:class:`~repro.serve.stats.GatewayStats`, and
:class:`~repro.faults.injector.FaultStats` — and before this module each
carried its own ``capture_state`` / ``restore_state`` / ``merge``
boilerplate.  Everything here exists to collapse that into one
protocol:

* :class:`Histogram` — a fixed-bucket virtual-latency histogram with
  streaming mean/max, the one latency type every reporter shares (the
  gateway's latency accumulators and the chaos CLI's retry histogram
  both render through it).
* :class:`MetricSet` — a mixin for stats dataclasses.  It derives
  snapshot/restore/merge from the dataclass fields themselves: ints and
  floats sum, dicts sum per key, histograms delegate, gauges listed in
  ``_MAX_FIELDS`` merge by max, and ``restore_state`` **rejects**
  unknown or missing keys instead of blindly ``setattr``-ing whatever a
  snapshot contains.  The field-level semantics compose with checkpoint
  resume: a restored stats object is ``==`` to the one captured.
* :class:`MetricsRegistry` — named counters/gauges/labeled
  counters/histograms *bound* to the live stats objects.  A snapshot is
  a plain JSON dict; it renders as Prometheus text exposition or an
  aligned table, merges associatively, and restores strictly.

Everything is virtual-time (study minutes); nothing here reads a clock.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MINUTES",
    "Histogram",
    "MetricSet",
    "MetricsRegistry",
    "build_study_registry",
    "render_prometheus",
    "render_table",
]

#: Fixed virtual-latency bucket upper bounds (study minutes).  The
#: smallest bucket is half the default replica service time; the
#: largest is the retry-backoff cap.  Fixed buckets are what make
#: histograms mergeable across shards without re-binning.
DEFAULT_LATENCY_BUCKETS_MINUTES: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
)

SNAPSHOT_VERSION = 1


@dataclass
class Histogram:
    """A fixed-bucket histogram over virtual minutes.

    ``counts`` holds one bucket per bound (observation ``<= bound``)
    plus a final overflow bucket.  ``count`` / ``total_minutes`` /
    ``max_minutes`` keep the streaming aggregates the old
    ``LatencyAccumulator`` exposed, so ``mean_minutes`` and
    ``max_minutes`` read exactly as before.
    """

    bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MINUTES
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total_minutes: float = 0.0
    max_minutes: float = 0.0

    def __post_init__(self) -> None:
        self.bounds = tuple(self.bounds)
        if any(b >= a for b, a in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} buckets, got {len(self.counts)}"
            )

    def observe(self, minutes: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, minutes)] += 1
        self.count += 1
        self.total_minutes += minutes
        if minutes > self.max_minutes:
            self.max_minutes = minutes

    #: ``LatencyAccumulator``-compatible spelling.
    record = observe

    @property
    def mean_minutes(self) -> float:
        return self.total_minutes / self.count if self.count else 0.0

    @classmethod
    def from_counts(cls, counts: Dict[int, int]) -> "Histogram":
        """Build a histogram from exact integer observations.

        The chaos retry histogram (attempts-used → requests) arrives as
        a plain dict; each key becomes its own bucket bound so the
        render is exact, not binned.
        """
        bounds = tuple(float(k) for k in sorted(counts))
        histogram = cls(bounds=bounds or (1.0,))
        for value, times in counts.items():
            index = bisect.bisect_left(histogram.bounds, float(value))
            histogram.counts[index] += times
            histogram.count += times
            histogram.total_minutes += float(value) * times
            if value > histogram.max_minutes:
                histogram.max_minutes = float(value)
        return histogram

    def merge(self, other: "Histogram") -> None:
        """Fold another shard's histogram into this one (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, value in enumerate(other.counts):
            self.counts[index] += value
        self.count += other.count
        self.total_minutes += other.total_minutes
        if other.max_minutes > self.max_minutes:
            self.max_minutes = other.max_minutes

    def bucket_label(self, index: int) -> str:
        if index >= len(self.bounds):
            return f">{self.bounds[-1]:g}" if self.bounds else "all"
        return f"<={self.bounds[index]:g}"

    def render(self, *, indent: str = "", unit: str = "", width: int = 24) -> str:
        """Per-bucket counts with a proportional bar, one line each."""
        if not self.count:
            return f"{indent}(empty)"
        peak = max(self.counts)
        suffix = f" {unit}" if unit else ""
        lines = []
        for index, value in enumerate(self.counts):
            if not value:
                continue
            bar = "#" * max(1, round(width * value / peak))
            lines.append(
                f"{indent}{self.bucket_label(index):>8}{suffix}: {value:<7d} {bar}"
            )
        lines.append(
            f"{indent}count={self.count} mean={self.mean_minutes:.3f} "
            f"max={self.max_minutes:.3f}"
        )
        return "\n".join(lines)

    # -- snapshot protocol ---------------------------------------------------

    def capture_state(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total_minutes": self.total_minutes,
            "max_minutes": self.max_minutes,
        }

    def restore_state(self, state: dict) -> None:
        unknown = set(state) - {"bounds", "counts", "count", "total_minutes", "max_minutes"}
        if unknown:
            raise ValueError(f"unknown histogram snapshot keys: {sorted(unknown)}")
        bounds = tuple(state["bounds"])
        counts = list(state["counts"])
        if len(counts) != len(bounds) + 1:
            raise ValueError("histogram snapshot bucket count does not match bounds")
        self.bounds = bounds
        self.counts = counts
        self.count = state["count"]
        self.total_minutes = state["total_minutes"]
        self.max_minutes = state["max_minutes"]


class MetricSet:
    """Snapshot/merge/restore derived from a stats dataclass's fields.

    Subclasses stay plain dataclasses (equality, reprs, and tests that
    compare stats objects keep working); this mixin only supplies the
    protocol every stats holder used to hand-write:

    * ``capture_state()`` — JSON-able dict keyed by field name (dict
      fields have their keys stringified; histograms nest their own
      snapshot);
    * ``restore_state(state)`` — strict inverse: unknown or missing
      keys raise instead of being silently dropped or ``setattr``-ed;
    * ``merge(other)`` — counters sum, dict counters sum per key,
      histograms merge, and fields named in ``_MAX_FIELDS`` (gauges
      like a queue-depth high-water mark) take the max.

    ``_INT_KEYED_FIELDS`` names dict fields whose keys are ints (JSON
    stringifies them; restore converts back).
    """

    _INT_KEYED_FIELDS: ClassVar[Tuple[str, ...]] = ()
    _MAX_FIELDS: ClassVar[Tuple[str, ...]] = ()

    def capture_state(self) -> dict:
        state: dict = {}
        for spec in fields(self):  # type: ignore[arg-type]
            value = getattr(self, spec.name)
            if isinstance(value, Histogram):
                state[spec.name] = value.capture_state()
            elif isinstance(value, dict):
                state[spec.name] = {str(k): v for k, v in value.items()}
            else:
                state[spec.name] = value
        return state

    def restore_state(self, state: dict) -> None:
        known = {spec.name for spec in fields(self)}  # type: ignore[arg-type]
        unknown = set(state) - known
        if unknown:
            raise ValueError(
                f"unknown {type(self).__name__} snapshot keys: {sorted(unknown)}"
            )
        missing = known - set(state)
        if missing:
            raise ValueError(
                f"missing {type(self).__name__} snapshot keys: {sorted(missing)}"
            )
        for spec in fields(self):  # type: ignore[arg-type]
            value = getattr(self, spec.name)
            snapshot = state[spec.name]
            if isinstance(value, Histogram):
                fresh = Histogram()
                fresh.restore_state(snapshot)
                setattr(self, spec.name, fresh)
            elif isinstance(value, dict):
                if spec.name in self._INT_KEYED_FIELDS:
                    setattr(self, spec.name, {int(k): v for k, v in snapshot.items()})
                else:
                    setattr(self, spec.name, dict(snapshot))
            else:
                setattr(self, spec.name, snapshot)

    def merge(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        for spec in fields(self):  # type: ignore[arg-type]
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, Histogram):
                mine.merge(theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            elif spec.name in self._MAX_FIELDS:
                if theirs > mine:
                    setattr(self, spec.name, theirs)
            else:
                setattr(self, spec.name, mine + theirs)


@dataclass(frozen=True)
class _BoundMetric:
    """One registry entry: a name bound to an attribute of a live object."""

    name: str
    kind: str  # "counter" | "gauge" | "labeled" | "histogram"
    obj: object
    attr: str
    help: str = ""
    label: str = ""
    int_labels: bool = False

    def read(self):
        value = getattr(self.obj, self.attr)
        if self.kind == "histogram":
            return value.capture_state()
        if self.kind == "labeled":
            return {str(k): v for k, v in value.items()}
        return value

    def write(self, value) -> None:
        if self.kind == "histogram":
            fresh = Histogram()
            fresh.restore_state(value)
            setattr(self.obj, self.attr, fresh)
        elif self.kind == "labeled":
            keys = (int(k) for k in value) if self.int_labels else iter(value)
            setattr(self.obj, self.attr, {k: value[str(k)] for k in keys})
        else:
            setattr(self.obj, self.attr, value)


_VALID_KINDS = ("counter", "gauge", "labeled", "histogram")


class MetricsRegistry:
    """Named metrics bound to live stats objects.

    The registry does not own any numbers — it reads them from the
    objects it was built over (so a snapshot taken after a checkpoint
    restore reflects the restored counters), and ``restore`` writes
    values back through the same bindings.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _BoundMetric] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def _register(self, metric: _BoundMetric) -> None:
        if metric.kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {metric.kind!r}")
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} registered twice")
        self._metrics[metric.name] = metric

    def register_counter(self, name: str, obj, attr: str, *, help: str = "") -> None:
        self._register(_BoundMetric(name, "counter", obj, attr, help))

    def register_gauge(self, name: str, obj, attr: str, *, help: str = "") -> None:
        self._register(_BoundMetric(name, "gauge", obj, attr, help))

    def register_labeled(
        self,
        name: str,
        obj,
        attr: str,
        *,
        label: str,
        help: str = "",
        int_labels: bool = False,
    ) -> None:
        self._register(
            _BoundMetric(name, "labeled", obj, attr, help, label, int_labels)
        )

    def register_histogram(self, name: str, obj, attr: str, *, help: str = "") -> None:
        self._register(_BoundMetric(name, "histogram", obj, attr, help))

    # -- snapshot protocol ---------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able, self-describing dump of every registered metric."""
        metrics = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {"kind": metric.kind, "value": metric.read()}
            if metric.help:
                entry["help"] = metric.help
            if metric.label:
                entry["label"] = metric.label
            metrics[name] = entry
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def restore(self, snapshot: dict) -> None:
        """Write a snapshot back into the bound objects (strict)."""
        entries = snapshot["metrics"]
        unknown = set(entries) - set(self._metrics)
        if unknown:
            raise ValueError(f"snapshot holds unregistered metrics: {sorted(unknown)}")
        missing = set(self._metrics) - set(entries)
        if missing:
            raise ValueError(f"snapshot is missing metrics: {sorted(missing)}")
        for name, entry in entries.items():
            metric = self._metrics[name]
            if entry["kind"] != metric.kind:
                raise ValueError(
                    f"metric {name!r} kind mismatch: snapshot says "
                    f"{entry['kind']!r}, registry says {metric.kind!r}"
                )
            metric.write(entry["value"])

    def merge(self, snapshot: dict) -> None:
        """Fold another run's snapshot into the bound objects."""
        for name, entry in snapshot["metrics"].items():
            metric = self._metrics.get(name)
            if metric is None:
                raise ValueError(f"cannot merge unregistered metric {name!r}")
            current = metric.read()
            if metric.kind == "histogram":
                merged = Histogram()
                merged.restore_state(current)
                other = Histogram()
                other.restore_state(entry["value"])
                merged.merge(other)
                metric.write(merged.capture_state())
            elif metric.kind == "labeled":
                combined = dict(current)
                for key, value in entry["value"].items():
                    combined[key] = combined.get(key, 0) + value
                metric.write(combined)
            elif metric.kind == "gauge":
                metric.write(max(current, entry["value"]))
            else:
                metric.write(current + entry["value"])

    def render_prometheus(self) -> str:
        return render_prometheus(self.snapshot())

    def render_table(self) -> str:
        return render_table(self.snapshot())


def _prom_name(name: str) -> str:
    return f"repro_{name}"


def _prom_escape_label(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_escape_help(text: str) -> str:
    """Escape HELP text per the text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition format for a registry snapshot.

    Conformant exposition: histogram buckets are cumulative and end at
    ``le="+Inf"`` equal to ``_count``, ``_sum``/``_count`` ride under
    the histogram family, and the max-tracking sidecar is its own
    ``_max`` gauge family (a bare extra sample under a histogram TYPE
    is invalid).  Label values and HELP text are escaped.
    """
    lines: List[str] = []
    for name in sorted(snapshot["metrics"]):
        entry = snapshot["metrics"][name]
        kind, value = entry["kind"], entry["value"]
        full = _prom_name(name)
        if entry.get("help"):
            lines.append(f"# HELP {full} {_prom_escape_help(entry['help'])}")
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {full} {kind}")
            lines.append(f"{full} {value}")
        elif kind == "labeled":
            label = entry.get("label", "key")
            lines.append(f"# TYPE {full} counter")
            for key in sorted(value):
                escaped = _prom_escape_label(key)
                lines.append(f'{full}{{{label}="{escaped}"}} {value[key]}')
        else:  # histogram
            lines.append(f"# TYPE {full} histogram")
            cumulative = 0
            for bound, count in zip(value["bounds"], value["counts"]):
                cumulative += count
                lines.append(f'{full}_bucket{{le="{bound:g}"}} {cumulative}')
            cumulative += value["counts"][-1]
            lines.append(f'{full}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{full}_sum {value['total_minutes']}")
            lines.append(f"{full}_count {value['count']}")
            lines.append(f"# TYPE {full}_max gauge")
            lines.append(f"{full}_max {value['max_minutes']}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_table(snapshot: dict) -> str:
    """Aligned human-readable rendering of a registry snapshot."""
    rows: List[Tuple[str, str]] = []
    for name in sorted(snapshot["metrics"]):
        entry = snapshot["metrics"][name]
        kind, value = entry["kind"], entry["value"]
        if kind in ("counter", "gauge"):
            rows.append((name, str(value)))
        elif kind == "labeled":
            if not value:
                rows.append((name, "(none)"))
            for key in sorted(value):
                rows.append((f"{name}{{{key}}}", str(value[key])))
        else:
            mean = value["total_minutes"] / value["count"] if value["count"] else 0.0
            rows.append(
                (
                    name,
                    f"count={value['count']} mean={mean:.3f} "
                    f"max={value['max_minutes']:.3f} (minutes)",
                )
            )
    if not rows:
        return "(no metrics)"
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def build_study_registry(study, *, include_caches: bool = False) -> MetricsRegistry:
    """Wire one study's stats holders into a registry.

    Crawl and fault counters are always present; gateway metrics join
    when the study routes via the serving gateway.  (In a parallel
    crawl the gateway's live telemetry is shard-local and is *not*
    merged back — the canonical gateway view for a crawl is the trace
    replay; see ``docs/OBSERVABILITY.md``.)

    ``include_caches`` additionally binds the ranker's memo hit/miss
    counters (``ranker_cache_*``).  They are opt-in because cache
    traffic is an implementation detail of *how* a run was executed:
    a resumed or differently-sharded run serves the same pages with
    different hit counts, and the default registry's snapshot is part
    of the byte-identity contract across kill/resume.
    """
    registry = MetricsRegistry()
    if include_caches:
        ranker = study.engine.ranker
        registry.register_counter(
            "ranker_cache_hits_total", ranker, "_hits",
            help="ranking memo hits (bundles and unit vectors)",
        )
        registry.register_counter(
            "ranker_cache_misses_total", ranker, "_misses",
            help="ranking memo misses (bundles and unit vectors)",
        )
    stats = study.stats
    crawl_help = {
        "requests": "query attempts issued (excluding breaker fast-fails)",
        "retries": "second-and-later attempts",
        "captchas": "RATE_LIMITED interstitials seen",
        "pages": "complete SERPs collected",
        "crashes": "browser crashes absorbed by restart",
        "dns_failures": "hostname resolution failures",
        "timeouts": "requests abandoned by the client",
        "server_errors": "HTTP 5xx responses",
        "malformed": "200 OK pages that were not complete SERPs",
        "overloads": "requests shed by the gateway",
        "breaker_fastfails": "attempts suppressed by an open breaker",
    }
    for attr, help_text in crawl_help.items():
        registry.register_counter(f"crawl_{attr}_total", stats, attr, help=help_text)
    registry.register_labeled(
        "crawl_failures_total",
        stats,
        "failures_by_kind",
        label="kind",
        help="terminal failures by kind",
    )
    fault_stats = study.fault_stats
    registry.register_labeled(
        "faults_injected_total", fault_stats, "injected", label="kind",
        help="faults the plan injected",
    )
    registry.register_labeled(
        "faults_absorbed_total", fault_stats, "absorbed", label="kind",
        help="failed attempts a retry recovered",
    )
    registry.register_labeled(
        "faults_terminal_total", fault_stats, "terminal", label="kind",
        help="failed attempts that ended their round",
    )
    registry.register_labeled(
        "faults_attempts_total",
        fault_stats,
        "retry_histogram",
        label="attempts",
        int_labels=True,
        help="delivered queries by attempts used",
    )
    if getattr(study, "gateway", None) is not None:
        gstats = study.gateway.stats
        for attr in (
            "requests",
            "cache_hits",
            "cache_misses",
            "cache_bypasses",
            "cache_evictions",
            "cache_expirations",
            "admitted",
            "rejected",
            "retries",
            "hedges",
            "rate_limited",
            "degraded_served",
        ):
            registry.register_counter(f"gateway_{attr}_total", gstats, attr)
        registry.register_gauge(
            "gateway_max_queue_depth", gstats, "max_queue_depth",
            help="high-water queue depth",
        )
        registry.register_labeled(
            "gateway_replica_requests_total",
            gstats,
            "replica_requests",
            label="replica",
        )
        registry.register_histogram(
            "gateway_queue_wait_minutes", gstats, "queue_wait",
            help="virtual queue wait",
        )
        registry.register_histogram(
            "gateway_service_minutes", gstats, "service", help="virtual service time",
        )
        registry.register_histogram(
            "gateway_total_minutes", gstats, "total", help="virtual total latency",
        )
    supervisor = getattr(study, "supervisor", None)
    if supervisor is not None:
        sstats = supervisor.stats
        supervise_help = {
            "heartbeats": "round-start liveness beats received",
            "rounds_received": "round results accepted by the parent",
            "crashes_detected": "worker exits noticed mid-shard",
            "stalls_detected": "workers killed for missing their deadline",
            "worker_errors": "structured exceptions reported by workers",
            "respawns": "replacement worker processes started",
            "quarantined_shards": "shards given up on after repeated failures",
            "quarantined_failures": "result cells synthesized as shard-quarantined",
        }
        for attr, help_text in supervise_help.items():
            registry.register_counter(
                f"supervisor_{attr}_total", sstats, attr, help=help_text
            )
    return registry
