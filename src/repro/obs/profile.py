"""Virtual-time profiler: where does a round's latency go?

Every round is a barrier — the study advances when its slowest
treatment finishes — so the number that matters is the per-round
*critical path*: the treatment whose crawl span ends last, and how its
virtual time splits between queue wait, service, retry backoff, and
overhead.  The profiler reads a traced event log's spans (it never
touches a live study) and attributes every virtual minute on that path
to one bucket:

``queue-wait``
    time spent in ``gateway.queue`` spans (admission backlog);
``service``
    time inside ``gateway.service`` spans (replica work);
``backoff``
    retry delays, from ``retry.backoff`` events' ``minutes`` attr;
``other``
    the residual — dispatch overhead, fast-fails, parse time.

Breaker fast-fails consume no virtual time (that is their point), so
they are counted, not attributed.

Flamegraphs: :func:`folded_stacks` renders the trace in the folded
stack-sample format (``a;b;c weight``) that ``flamegraph.pl`` and
speedscope consume directly — each span contributes its *self* virtual
time (duration minus children) at its stack path, weighted in
microseconds (one virtual minute = 60,000,000, matching the Chrome
exporter's timebase).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.exporters import _MICROS_PER_VIRTUAL_MINUTE, SpanIndex
from repro.obs.metrics import Histogram

__all__ = [
    "RoundProfile",
    "TraceProfile",
    "profile_trace",
    "folded_stacks",
    "write_folded",
]

_ATTRIBUTION_BUCKETS = ("queue-wait", "service", "backoff", "other")


@dataclass
class RoundProfile:
    """Critical-path attribution for one round."""

    ordinal: int
    query: Optional[str]
    makespan_minutes: float
    critical_treatment: Optional[int]
    critical_location: Optional[str]
    critical_outcome: Optional[str]
    attribution: Dict[str, float] = field(default_factory=dict)
    attempts: int = 0
    fastfails: int = 0


@dataclass
class TraceProfile:
    """Whole-trace profile: per-round paths plus aggregate attribution."""

    trace_id: str
    rounds: List[RoundProfile]
    totals: Dict[str, float]
    span_minutes: Dict[str, float]
    span_counts: Dict[str, int]

    def top_spans(self, n: int = 10) -> List[tuple]:
        """(name, total virtual minutes, count) for the costliest span names."""
        ranked = sorted(
            self.span_minutes.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            (name, minutes, self.span_counts[name]) for name, minutes in ranked[:n]
        ]

    def render(self, top: int = 10) -> str:
        lines = [f"trace {self.trace_id}: {len(self.rounds)} round(s)"]
        total = sum(self.totals.values())
        lines.append("\ncritical-path attribution (virtual minutes):")
        for bucket in _ATTRIBUTION_BUCKETS:
            minutes = self.totals.get(bucket, 0.0)
            share = (minutes / total * 100.0) if total else 0.0
            lines.append(f"  {bucket:<12} {minutes:9.3f}  ({share:5.1f}%)")
        lines.append(f"  {'total':<12} {total:9.3f}")
        makespans = Histogram()
        for round_profile in self.rounds:
            makespans.observe(round_profile.makespan_minutes)
        lines.append("\nround makespan (virtual minutes):")
        lines.append(makespans.render(indent="  ", unit="min"))
        lines.append(f"\ntop spans by total virtual time (top {top}):")
        width = max(
            (len(name) for name, _, _ in self.top_spans(top)), default=4
        )
        for name, minutes, count in self.top_spans(top):
            lines.append(f"  {name:<{width}} {minutes:9.3f} min  x{count}")
        slowest = sorted(
            self.rounds, key=lambda r: (-r.makespan_minutes, r.ordinal)
        )[:3]
        if slowest:
            lines.append("\nslowest rounds:")
            for round_profile in slowest:
                lines.append(
                    f"  round {round_profile.ordinal:>3} "
                    f"({round_profile.query or '?'}): "
                    f"{round_profile.makespan_minutes:.3f} min on treatment "
                    f"{round_profile.critical_treatment} "
                    f"[{round_profile.critical_location or '?'}], "
                    f"outcome={round_profile.critical_outcome or '?'}"
                )
        return "\n".join(lines)


def _attribute(crawl: dict) -> RoundProfile:
    """Attribute one crawl span tree's virtual time to buckets."""
    profile = RoundProfile(
        ordinal=-1,
        query=crawl["attrs"].get("query"),
        makespan_minutes=crawl["end"] - crawl["start"],
        critical_treatment=crawl["attrs"].get("treatment"),
        critical_location=crawl["attrs"].get("location"),
        critical_outcome=crawl["attrs"].get("outcome"),
        attribution={bucket: 0.0 for bucket in _ATTRIBUTION_BUCKETS},
    )

    def visit(node: dict) -> None:
        duration = node["end"] - node["start"]
        if node["name"] == "gateway.queue":
            profile.attribution["queue-wait"] += duration
        elif node["name"] == "gateway.service":
            profile.attribution["service"] += duration
        elif node["name"] == "attempt":
            profile.attempts += 1
        for event in node["events"]:
            if event["name"] == "retry.backoff":
                profile.attribution["backoff"] += event["attrs"].get("minutes", 0.0)
            elif event["name"] == "breaker.fastfail":
                profile.fastfails += 1
        for child in node.get("children", ()):
            visit(child)

    visit(crawl)
    attributed = (
        profile.attribution["queue-wait"]
        + profile.attribution["service"]
        + profile.attribution["backoff"]
    )
    profile.attribution["other"] = max(0.0, profile.makespan_minutes - attributed)
    return profile


def folded_stacks(path) -> List[str]:
    """A trace as folded stacks: ``root;child;leaf self_micros`` lines.

    Self time only — a stack's weight is its span's virtual duration
    minus its children's, scaled to microseconds — so the flamegraph's
    column widths sum to wall (virtual) time exactly.  Lines merge by
    stack path and sort lexically; the output is canonical for a
    canonical trace.
    """
    index = SpanIndex(path)
    weights: Dict[str, int] = {}

    def visit(span: dict, prefix: str) -> None:
        stack = f"{prefix};{span['name']}" if prefix else span["name"]
        children = sorted(
            index.by_parent.get(span["id"], []),
            key=lambda child: (child["start"], child["id"]),
        )
        child_minutes = sum(child["end"] - child["start"] for child in children)
        self_minutes = max(0.0, (span["end"] - span["start"]) - child_minutes)
        micros = int(round(self_minutes * _MICROS_PER_VIRTUAL_MINUTE))
        if micros > 0:
            weights[stack] = weights.get(stack, 0) + micros
        for child in children:
            visit(child, stack)

    for root in sorted(
        (span for span in index.spans if span["parent"] not in index.by_id),
        key=lambda span: (span["start"], span["id"]),
    ):
        visit(root, "")
    return [f"{stack} {weights[stack]}" for stack in sorted(weights)]


def write_folded(path, out) -> None:
    """Export ``path`` (a traced event log) as folded stacks at ``out``."""
    with open(out, "w", encoding="utf-8") as handle:
        for line in folded_stacks(path):
            handle.write(line + "\n")


def profile_trace(path) -> TraceProfile:
    """Profile a traced event log (as written by ``repro run --trace``)."""
    index = SpanIndex(path)
    spans, by_parent = index.spans, index.by_parent

    def as_tree(span: dict) -> dict:
        node = dict(span)
        node["children"] = [as_tree(child) for child in by_parent.get(span["id"], [])]
        return node

    span_minutes: Dict[str, float] = {}
    span_counts: Dict[str, int] = {}
    for span in spans:
        span_minutes[span["name"]] = (
            span_minutes.get(span["name"], 0.0) + span["end"] - span["start"]
        )
        span_counts[span["name"]] = span_counts.get(span["name"], 0) + 1

    rounds: List[RoundProfile] = []
    round_spans = sorted(
        (span for span in spans if span["name"] == "round"),
        key=lambda span: span["attrs"]["ordinal"],
    )
    for round_span in round_spans:
        crawls = [
            span
            for span in by_parent.get(round_span["id"], [])
            if span["name"] == "crawl"
        ]
        if not crawls:
            rounds.append(
                RoundProfile(
                    ordinal=round_span["attrs"]["ordinal"],
                    query=round_span["attrs"].get("query"),
                    makespan_minutes=round_span["end"] - round_span["start"],
                    critical_treatment=None,
                    critical_location=None,
                    critical_outcome=None,
                    attribution={b: 0.0 for b in _ATTRIBUTION_BUCKETS},
                )
            )
            continue
        critical = max(crawls, key=lambda span: (span["end"], -span["attrs"]["treatment"]))
        profile = _attribute(as_tree(critical))
        profile.ordinal = round_span["attrs"]["ordinal"]
        profile.query = round_span["attrs"].get("query")
        rounds.append(profile)

    totals = {bucket: 0.0 for bucket in _ATTRIBUTION_BUCKETS}
    for round_profile in rounds:
        for bucket, minutes in round_profile.attribution.items():
            totals[bucket] += minutes
    return TraceProfile(
        trace_id=index.trace_id,
        rounds=rounds,
        totals=totals,
        span_minutes=span_minutes,
        span_counts=span_counts,
    )
