"""The fault injector: a drop-in :class:`~repro.core.browser.Network`.

:class:`FaultyNetwork` subclasses ``Network`` and consults a
:class:`~repro.faults.plan.FaultPlan` on every ``submit``:

* **pre-dispatch** faults (browser crash, DNS failure, timeout,
  transient 5xx, rate-limit storm) short-circuit *before* the engine —
  the engine's rate limiter and session store never see the request,
  which is exactly how a dropped connection behaves and what keeps
  injected runs deterministic: engine state evolves only from requests
  that actually arrive;
* **truncation** applies *after* the engine answered ``200 OK``: the
  bytes were served but the saved page is cut off mid-body.  The cut
  always lands before the SERP footer (where the parser reads the
  day/datacenter spans), so a truncated page is *detectably*
  incomplete — every injected truncation surfaces as a structured
  ``malformed-serp`` failure rather than silently polluting the
  dataset.

Every decision is keyed on the request **nonce** (a deterministic
function of browser identity and per-browser request ordinal), so the
injected schedule is identical sequentially, sharded over N workers,
and across checkpoint/resume.

:class:`FaultStats` carries the chaos report's ledger.  The runner
classifies every failed attempt as either *absorbed* (a retry
followed and the round ultimately produced a record) or *terminal*
(the round ended as a :class:`~repro.core.runner.CrawlFailure`), so
for every injected kind the books must balance::

    injected[kind] == absorbed[kind] + terminal[kind]

— the "all injected faults accounted for" acceptance check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.browser import Network
from repro.engine.render import render_captcha
from repro.engine.request import ResponseStatus, SearchResponse
from repro.faults.plan import FailureKind, FaultKind, FaultPlan
from repro.geo.coords import LatLon
from repro.net.dns import ResolutionError
from repro.net.machines import Machine
from repro.obs.metrics import MetricSet

__all__ = [
    "InjectedFault",
    "BrowserCrash",
    "RequestTimeout",
    "InjectedDNSFailure",
    "FaultStats",
    "FaultyNetwork",
]


class InjectedFault(Exception):
    """Base class for faults raised (not returned) by the injector."""


class BrowserCrash(InjectedFault):
    """The headless browser process died mid-request."""


class RequestTimeout(InjectedFault):
    """The request never completed; the client gave up waiting."""


class InjectedDNSFailure(InjectedFault, ResolutionError):
    """Transient resolution failure for the search hostname.

    Subclasses :class:`~repro.net.dns.ResolutionError` so the runner's
    DNS handling covers injected and organic failures with one branch.
    """


_SERVER_ERROR_HTML = (
    "<!DOCTYPE html><html><head><title>500 Internal Server Error</title></head>"
    "<body><h1>500</h1><p>The server encountered a transient error.</p></body></html>"
)


@dataclass
class FaultStats(MetricSet):
    """The chaos ledger: what was injected and what became of it.

    All dict keys are :class:`FailureKind` *values* (plain strings) so
    snapshots serialize straight to JSON — except ``retry_histogram``,
    whose int keys round-trip via ``_INT_KEYED_FIELDS``.  Counters are
    plain sums and merge associatively across shards, like
    :class:`~repro.core.runner.CrawlStats`; snapshot/merge/restore come
    from :class:`~repro.obs.metrics.MetricSet`.
    """

    _INT_KEYED_FIELDS = ("retry_histogram",)

    injected: Dict[str, int] = field(default_factory=dict)
    absorbed: Dict[str, int] = field(default_factory=dict)
    """Failed attempts that a later attempt recovered from."""
    terminal: Dict[str, int] = field(default_factory=dict)
    """Failed attempts that ended their round as a ``CrawlFailure``."""
    retry_histogram: Dict[int, int] = field(default_factory=dict)
    """attempts-used (1-based) → number of requests that used that many."""

    def record_injected(self, kind: FailureKind) -> None:
        self.injected[kind.value] = self.injected.get(kind.value, 0) + 1

    def record_absorbed(self, kind: FailureKind) -> None:
        self.absorbed[kind.value] = self.absorbed.get(kind.value, 0) + 1

    def record_terminal(self, kind: FailureKind) -> None:
        self.terminal[kind.value] = self.terminal.get(kind.value, 0) + 1

    def record_attempts(self, attempts: int) -> None:
        self.retry_histogram[attempts] = self.retry_histogram.get(attempts, 0) + 1

    # -- reporting ----------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_absorbed(self) -> int:
        return sum(self.absorbed.values())

    @property
    def total_terminal(self) -> int:
        return sum(self.terminal.values())

    def unaccounted(self) -> Dict[str, int]:
        """``injected - absorbed - terminal`` per kind, nonzero entries only.

        An empty dict means every injected fault is accounted for in
        the failure ledger — the acceptance invariant.  (Kinds that can
        also occur organically, like ``rate-limited``, are never
        injected under that name and so never appear here.)
        """
        deltas: Dict[str, int] = {}
        for kind, count in self.injected.items():
            delta = count - self.absorbed.get(kind, 0) - self.terminal.get(kind, 0)
            if delta:
                deltas[kind] = delta
        return deltas


class FaultyNetwork(Network):
    """A :class:`Network` that injects a :class:`FaultPlan`'s schedule.

    With a zero plan this is byte-for-byte a plain ``Network``:
    ``tests/test_faults.py`` crawls a study both ways and compares the
    dataset digests.
    """

    #: Supervised workers install their harness here (duck-typed: an
    #: object with ``generation``, ``crash()``, and ``stall()``).  When
    #: set and the plan carries worker-fault rates, the process-level
    #: gates fire before any per-request fault — modelling the machine
    #: dying, not the request failing.  Process deaths are accounted in
    #: the supervision ledger (parent-side), never in ``fault_stats``:
    #: the dying process cannot persist a counter, and its successor
    #: restores state from before the fatal request.
    worker_context = None

    def __init__(self, resolver, engine, plan: FaultPlan, *, stats: Optional[FaultStats] = None):
        super().__init__(resolver, engine)
        self.plan = plan
        self.fault_stats = stats if stats is not None else FaultStats()

    def submit(
        self,
        machine: Machine,
        query_text: str,
        timestamp_minutes: float,
        *,
        gps: Optional[LatLon],
        cookie_id: Optional[str],
        user_agent: str,
        nonce: int,
        page: int = 0,
    ) -> SearchResponse:
        plan = self.plan
        context = self.worker_context
        if context is not None and plan.has_worker_faults:
            worker_kind = plan.worker_fault(nonce, context.generation)
            if worker_kind is FaultKind.WORKER_CRASH:
                context.crash()
            elif worker_kind is FaultKind.WORKER_STALL:
                context.stall()
        if plan.in_storm(timestamp_minutes):
            # Engine-wide anti-bot event: the CAPTCHA interstitial is
            # served from the edge, before the request reaches the
            # frontend (so no rate-limiter or session state advances).
            self._record_injection(FailureKind.RATE_LIMIT_STORM, timestamp_minutes)
            return SearchResponse(
                status=ResponseStatus.RATE_LIMITED,
                html=render_captcha(query_text, self.engine.dialect),
            )
        kind = plan.request_fault(nonce)
        if kind is FaultKind.BROWSER_CRASH:
            self._record_injection(FailureKind.BROWSER_CRASH, timestamp_minutes)
            raise BrowserCrash(f"injected browser crash (nonce {nonce:#x})")
        if kind is FaultKind.DNS_FAILURE:
            self._record_injection(FailureKind.DNS_FAILURE, timestamp_minutes)
            raise InjectedDNSFailure(self.engine.dialect.hostname)
        if kind is FaultKind.TIMEOUT:
            self._record_injection(FailureKind.TIMEOUT, timestamp_minutes)
            raise RequestTimeout(f"injected timeout (nonce {nonce:#x})")
        if kind is FaultKind.SERVER_ERROR:
            self._record_injection(FailureKind.SERVER_ERROR, timestamp_minutes)
            return SearchResponse(
                status=ResponseStatus.SERVER_ERROR, html=_SERVER_ERROR_HTML
            )
        response = super().submit(
            machine,
            query_text,
            timestamp_minutes,
            gps=gps,
            cookie_id=cookie_id,
            user_agent=user_agent,
            nonce=nonce,
            page=page,
        )
        if response.ok and plan.truncates(nonce):
            self._record_injection(FailureKind.MALFORMED_SERP, timestamp_minutes)
            return SearchResponse(
                status=response.status,
                html=self._truncate(response.html, nonce),
            )
        return response

    def _record_injection(self, kind: FailureKind, timestamp_minutes: float) -> None:
        """Book an injected fault and mark it on the current span."""
        self.fault_stats.record_injected(kind)
        if self.tracer.enabled:
            self.tracer.event(
                "fault.injected", at=timestamp_minutes, kind=kind.value
            )

    def _truncate(self, html: str, nonce: int) -> str:
        """Cut the page off somewhere before the footer.

        The footer carries the day/datacenter spans the parser needs to
        call a page complete, so cutting ahead of it guarantees the
        truncation is *detectable* — either the parse fails outright or
        the parsed page fails the completeness check.
        """
        anchor = html.find("<footer")
        if anchor < 0:  # unreachable for rendered SERPs; stay safe
            anchor = len(html)
        keep = max(1, int(anchor * self.plan.truncation_fraction(nonce)))
        return html[:keep]
