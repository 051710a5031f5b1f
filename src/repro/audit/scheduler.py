"""Recurring audit cycles on the virtual clock.

The paper's methodology is a one-shot 30-day batch study.  The
scheduler turns it into a rolling one: an :class:`AuditSpec` registers
a study configuration as a **recurring audit**, and every
``interval_minutes`` of virtual time the scheduler runs one *cycle* — a
complete paired-control crawl window with a cycle-derived seed — under
the existing execution stack:

* cycles run sequentially, sharded (``workers=N``), or under
  :mod:`repro.supervise` (crash/hang recovery, :class:`KillSpec`
  murder points for tests), exactly as ``Study.run`` would;
* with ``checkpoint_cycles`` the in-flight cycle journals to a crawl
  checkpoint next to the store, so a daemon killed mid-cycle resumes
  the cycle byte-identically instead of re-crawling it (supervised or
  not);
* records stream through a :class:`~repro.audit.streaming.
  StreamingComparisons` sink as rounds land (no end-of-run batch
  pass), the per-cell summary goes through the audit's
  :class:`~repro.audit.drift.DriftMonitor`, and the cycle + alerts are
  appended durably to the :class:`~repro.audit.store.AuditStore`.

On (re)registration the scheduler replays the store's journaled cycles
through a fresh drift monitor and refuses the store if the replayed
alerts differ from the journaled ones — the alert ledger is a pure
function of the spec, so a mismatch means the store belongs to a
different drift configuration.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.audit.drift import AlertRecord, DriftConfig, DriftMonitor, journal_round
from repro.audit.store import AuditStore, AuditStoreError
from repro.audit.streaming import StreamingComparisons
from repro.core.experiment import StudyConfig
from repro.core.runner import MINUTES_PER_DAY, Study
from repro.seeding import derive_seed, stable_hash

__all__ = ["AuditScheduler", "AuditSpec", "CycleOutcome", "RegisteredAudit"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: Fingerprint schema version, bumped when the result format changes.
SPEC_FINGERPRINT_VERSION = 1


@dataclass(frozen=True)
class AuditSpec:
    """One recurring audit: what to crawl, how often, how to execute it.

    Execution knobs (``workers``, ``supervise``, ``checkpoint_cycles``)
    are deliberately *excluded* from the store fingerprint: they change
    how a cycle runs, never what it produces — the byte-parity
    guarantees of :mod:`repro.parallel` and :mod:`repro.supervise` are
    what make that exclusion sound, and the determinism tests hold the
    scheduler to it.
    """

    name: str
    config: StudyConfig
    interval_minutes: Optional[float] = None
    """Virtual minutes between cycle starts (default: the window length,
    ``config.days`` days — back-to-back rolling windows)."""
    cycles: Optional[int] = None
    """Total cycle budget (``None`` = unbounded)."""
    workers: int = 1
    supervise: bool = False
    checkpoint_cycles: bool = False
    """Journal the in-flight cycle's crawl for mid-cycle kill/resume."""
    retention_cycles: Optional[int] = None
    """Keep at most this many full cycle lines in the store; older
    cycles are compacted into the drift-series + alert summary the
    replay needs (``None`` = keep everything).  A retention knob, like
    the execution knobs, is excluded from the fingerprint: compaction
    provably changes no ledger byte."""
    drift: DriftConfig = field(default_factory=DriftConfig)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"audit name {self.name!r} must be alphanumeric with ._- only"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.interval_minutes is not None and self.interval_minutes <= 0:
            raise ValueError("interval_minutes must be > 0")
        if self.cycles is not None and self.cycles < 1:
            raise ValueError("cycles must be >= 1 or None")
        if self.retention_cycles is not None and self.retention_cycles < 1:
            raise ValueError("retention_cycles must be >= 1 or None")

    def cycle_interval(self) -> float:
        return (
            self.interval_minutes
            if self.interval_minutes is not None
            else self.config.days * MINUTES_PER_DAY
        )

    def cycle_config(self, cycle: int) -> StudyConfig:
        """The cycle's study configuration: same shape, derived seed."""
        return self.config.with_overrides(
            seed=derive_seed(self.config.seed, "audit-cycle", self.name, cycle)
        )

    def fingerprint(self) -> dict:
        """Everything that shapes the store's bytes, and nothing else."""
        config = self.config
        queries_digest = stable_hash(
            "queries",
            *[f"{query.text}|{query.category.value}" for query in config.queries],
        )
        calibration_digest = stable_hash(
            "calibration", json.dumps(asdict(config.calibration), sort_keys=True)
        )
        locations = (
            [region.qualified_name for region in config.study_locations.all_locations()]
            if config.study_locations is not None
            else [config.state_count, config.county_count, config.district_count]
        )
        plan = config.fault_plan
        return {
            "version": SPEC_FINGERPRINT_VERSION,
            "name": self.name,
            "seed": config.seed,
            "days": config.days,
            "copies": config.copies_per_location,
            "machines": config.machine_count,
            "wait": config.wait_between_queries_minutes,
            "block": config.queries_per_day_block,
            "pin": config.pin_datacenter,
            "dialect": config.dialect.name,
            "gateway": [
                config.route_via_gateway,
                config.gateway_routing,
                config.gateway_cache_size,
            ],
            "queries": queries_digest,
            "calibration": calibration_digest,
            "locations": locations,
            "plan": asdict(plan) if plan is not None else None,
            "interval": journal_round(self.cycle_interval()),
            "drift": asdict(self.drift),
        }


@dataclass
class RegisteredAudit:
    """A spec bound to its open store and live drift monitor."""

    spec: AuditSpec
    store: AuditStore
    monitor: DriftMonitor

    @property
    def next_cycle(self) -> int:
        return self.store.next_ordinal

    @property
    def done(self) -> bool:
        """Whether the cycle budget (if any) is exhausted."""
        return self.spec.cycles is not None and self.next_cycle >= self.spec.cycles


@dataclass(frozen=True)
class CycleOutcome:
    """What one completed cycle produced."""

    audit: str
    cycle: int
    result: dict
    alerts: List[AlertRecord]


class AuditScheduler:
    """Registered audits over one store directory, run cycle by cycle."""

    def __init__(self, store_dir: str, *, stats=None):
        """``stats`` is an optional
        :class:`~repro.audit.service.AuditServiceStats` the scheduler
        increments as cycles complete (the service wires one in)."""
        self.store_dir = store_dir
        self.stats = stats
        self.audits: Dict[str, RegisteredAudit] = {}
        os.makedirs(store_dir, exist_ok=True)

    # -- registration --------------------------------------------------------

    def store_path(self, name: str) -> str:
        return os.path.join(self.store_dir, f"{name}.audit.jsonl")

    def register(self, spec: AuditSpec) -> RegisteredAudit:
        """Register an audit, resuming its store if one exists.

        Journaled cycles are replayed through a fresh drift monitor;
        the replayed alerts must match the journaled ones exactly, or
        the store was produced under a different drift configuration
        and is refused.
        """
        if spec.name in self.audits:
            raise ValueError(f"audit {spec.name!r} already registered")
        store = AuditStore.open(
            self.store_path(spec.name), audit=spec.name, fingerprint=spec.fingerprint()
        )
        monitor = DriftMonitor(spec.name, spec.drift)
        replay = [
            (entry["cycle"], entry["values"], entry["alerts"])
            for entry in store.compacted
        ] + [
            (
                cycle_line["ordinal"],
                self._series_values(cycle_line["result"]),
                cycle_line["alerts"],
            )
            for cycle_line in store.cycles
        ]
        for ordinal, values, journaled_alerts in replay:
            replayed = monitor.observe_cycle(ordinal, values)
            if [alert.to_dict() for alert in replayed] != journaled_alerts:
                store.close()
                raise AuditStoreError(
                    f"audit store for {spec.name!r} journals alerts that this "
                    "drift configuration does not reproduce; refusing to resume"
                )
        audit = RegisteredAudit(spec=spec, store=store, monitor=monitor)
        self.audits[spec.name] = audit
        return audit

    def close(self) -> None:
        for audit in self.audits.values():
            audit.store.close()
        self.audits = {}

    def __enter__(self) -> "AuditScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def pending(self) -> List[str]:
        """Audits with cycle budget remaining, in registration order."""
        return [name for name, audit in self.audits.items() if not audit.done]

    def run_cycle(
        self,
        name: str,
        *,
        policy=None,
        kill_specs: Sequence = (),
        record_hook=None,
    ) -> CycleOutcome:
        """Run one audit's next cycle and journal it durably.

        ``kill_specs`` (supervised audits only) murder workers at exact
        points — recovery must leave the store byte-identical.
        ``record_hook`` is a test hook called per streamed record; an
        exception it raises aborts the cycle mid-flight *before*
        anything reaches the store, simulating a daemon kill.
        """
        audit = self.audits[name]
        spec = audit.spec
        if audit.done:
            raise ValueError(f"audit {name!r} has exhausted its cycle budget")
        if kill_specs and not spec.supervise:
            raise ValueError("kill_specs require a supervised audit spec")
        cycle = audit.next_cycle
        config = spec.cycle_config(cycle)
        study = Study(config)
        streaming = StreamingComparisons()

        def sink(record) -> None:
            streaming.observe(record)
            if self.stats is not None:
                self.stats.records_ingested += 1
            if record_hook is not None:
                record_hook(record)

        checkpoint = (
            self.store_path(name) + f".cycle{cycle}.ckpt"
            if spec.checkpoint_cycles
            else None
        )
        if spec.supervise:
            from repro.parallel import run_parallel

            dataset = run_parallel(
                study,
                workers=spec.workers,
                sink=sink,
                checkpoint=checkpoint,
                supervise=True,
                policy=policy,
                kill_specs=tuple(kill_specs),
            )
        else:
            dataset = study.run(workers=spec.workers, sink=sink, checkpoint=checkpoint)
        streaming.finish()

        result = self._build_result(spec, cycle, study, dataset, streaming)
        alerts = audit.monitor.observe_cycle(cycle, self._series_values(result))
        audit.store.append_cycle(result, [alert.to_dict() for alert in alerts])
        if spec.retention_cycles is not None:
            audit.store.compact(
                spec.retention_cycles, series_values=self._series_values
            )
        if checkpoint is not None and os.path.exists(checkpoint):
            # The cycle is durable in the store; the crawl journal has
            # served its purpose and a stale one would poison cycle
            # numbering on a later registration.
            os.remove(checkpoint)
        if self.stats is not None:
            self.stats.cycles_completed += 1
            self.stats.pairs_compared += streaming.pairs
            self.stats.alerts_emitted += len(alerts)
            if alerts:
                self.stats.alerts_by_audit[name] = self.stats.alerts_by_audit.get(
                    name, 0
                ) + len(alerts)
        return CycleOutcome(audit=name, cycle=cycle, result=result, alerts=alerts)

    def run_once(self, *, cycles: int = 1, **run_kwargs) -> List[CycleOutcome]:
        """Advance every pending audit by up to ``cycles`` cycles."""
        outcomes: List[CycleOutcome] = []
        for name in list(self.audits):
            for _ in range(cycles):
                if self.audits[name].done:
                    break
                outcomes.append(self.run_cycle(name, **run_kwargs))
        return outcomes

    # -- result building -----------------------------------------------------

    @staticmethod
    def _series_values(result: dict) -> Dict[str, float]:
        """The drift-monitored curves of one cycle result.

        Two series per (category, granularity) cell: the raw treatment
        edit mean (``edit:``) and the noise-corrected net edit
        (``net:``).  Cells missing either family that cycle contribute
        no value — the detector simply does not advance.
        """
        series: Dict[str, float] = {}
        for category, by_granularity in result["cells"].items():
            for granularity, cell in by_granularity.items():
                if cell.get("edit_mean") is not None:
                    series[f"edit:{category}:{granularity}"] = cell["edit_mean"]
                if cell.get("net_edit") is not None:
                    series[f"net:{category}:{granularity}"] = cell["net_edit"]
        return series

    def _build_result(
        self,
        spec: AuditSpec,
        cycle: int,
        study: Study,
        dataset,
        streaming: StreamingComparisons,
    ) -> dict:
        cells: Dict[str, Dict[str, dict]] = {}
        for category, granularity in streaming.cells():
            treatment = streaming.treatment.get((category, granularity))
            noise = streaming.noise.get((category, granularity))
            cell: dict = {
                "pairs": treatment.pairs if treatment else 0,
                "noise_pairs": noise.pairs if noise else 0,
            }
            if treatment is not None and treatment.pairs:
                cell["jaccard_mean"] = journal_round(treatment.jaccard.mean)
                cell["jaccard_std"] = journal_round(treatment.jaccard.std)
                cell["edit_mean"] = journal_round(treatment.edit.mean)
                cell["edit_std"] = journal_round(treatment.edit.std)
            if noise is not None and noise.pairs:
                cell["noise_edit_mean"] = journal_round(noise.edit.mean)
            net = streaming.net_edit(category, granularity)
            if net is not None:
                cell["net_edit"] = journal_round(net)
            cells.setdefault(category, {})[granularity] = cell
        return {
            "cycle": cycle,
            "started_minutes": journal_round(cycle * spec.cycle_interval()),
            "seed": study.config.seed,
            "pages": len(dataset),
            "failures": len(study.failures),
            "failures_by_kind": {
                kind: count
                for kind, count in sorted(study.stats.failures_by_kind.items())
            },
            "records_streamed": streaming.records,
            "pairs": streaming.pairs,
            "cells": cells,
        }
