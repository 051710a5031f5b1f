"""Crawl benchmark: sweep worker counts, prove parity, record history.

``run_crawl_bench`` measures the same study config at every worker
count, verifies every parallel dataset is byte-identical to the
sequential baseline (SHA-256 over the canonical JSONL serialisation),
and appends an entry to the ``BENCH_crawl.json`` perf *trajectory* —
a bounded, timestamped history keyed by git sha, so perf changes are
visible across PRs instead of overwritten by each one.

Every measurement is repeated (``--repeats``, default 5) with the
repeats *interleaved* across cells: the box's throughput drifts on the
scale of seconds (thermal/cgroup effects), so running all of cell A
then all of cell B folds that drift into the A-vs-B comparison.
Interleaving samples every cell under every drift regime; the reported
wall time is the minimum (least-noise estimator) with the median
alongside, and overhead percentages compare medians.  The ``--profile``
path wraps the sequential run in :mod:`cProfile` so future perf PRs
can cite the hot path they attack.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.datastore import SerpDataset
from repro.core.experiment import DEFAULT_STUDY_SEED, StudyConfig
from repro.core.runner import Study

__all__ = [
    "BenchCell",
    "BenchReport",
    "bench_config",
    "load_trajectory",
    "write_trajectory_entry",
    "TRAJECTORY_KEEP",
    "regression_message",
    "run_crawl_bench",
    "profile_sequential",
    "DEFAULT_WORKER_COUNTS",
    "DEFAULT_REPEATS",
]

DEFAULT_WORKER_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: Worker counts used by ``--smoke`` (CI: fast, still exercises the merge).
SMOKE_WORKER_COUNTS: Tuple[int, ...] = (1, 2)

#: Repeats per measurement; 5 keeps the min/median stable against the
#: box's observed ±30% run-to-run drift.
DEFAULT_REPEATS = 5

#: Trajectory entries kept in ``BENCH_crawl.json`` (oldest dropped).
TRAJECTORY_KEEP = 20


def dataset_digest(dataset: SerpDataset) -> str:
    """SHA-256 over the dataset's canonical JSONL bytes.

    Exactly what :meth:`SerpDataset.save` writes, so digest equality
    *is* byte-identity of the persisted artefact.
    """
    hasher = hashlib.sha256()
    for record in dataset:
        hasher.update(json.dumps(record.to_dict()).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def bench_config(
    scale: str = "standard",
    *,
    seed: int = DEFAULT_STUDY_SEED,
    route_via_gateway: bool = False,
) -> StudyConfig:
    """The benchmark study configs.

    ``standard`` keeps the full methodology at a size where a worker
    sweep finishes in minutes; ``smoke`` is the CI tier — seconds per
    cell, still covering every merge path.
    """
    from repro.queries.corpus import build_corpus
    from repro.queries.model import QueryCategory

    corpus = build_corpus()
    if scale == "standard":
        queries = (
            corpus.by_category(QueryCategory.LOCAL)[:20]
            + corpus.by_category(QueryCategory.CONTROVERSIAL)[:5]
            + corpus.by_category(QueryCategory.POLITICIAN)[:5]
        )
        config = StudyConfig.small(
            queries, seed=seed, days=2, locations_per_granularity=8
        )
    elif scale == "smoke":
        queries = (
            corpus.by_category(QueryCategory.LOCAL)[:3]
            + corpus.by_category(QueryCategory.CONTROVERSIAL)[:1]
        )
        config = StudyConfig.small(
            queries, seed=seed, days=1, locations_per_granularity=3
        )
    else:
        raise ValueError(f"unknown bench scale {scale!r} (standard, smoke)")
    return config.with_overrides(route_via_gateway=route_via_gateway)


@dataclass(frozen=True)
class BenchCell:
    """One worker count's measurement (aggregated over repeats)."""

    workers: int
    wall_seconds: float
    """Minimum wall time across repeats — the least-noise estimator."""
    wall_seconds_median: float
    repeats: int
    pages: int
    requests: int
    failures: int
    requests_per_second: float
    """Throughput at the minimum wall time."""
    speedup_vs_workers_1: float
    """min(workers=1 wall) / min(this cell's wall)."""
    dataset_sha256: str
    byte_identical_to_sequential: bool
    """True only if *every* repeat's dataset matched the baseline digest."""


@dataclass
class BenchReport:
    """The full sweep, serialisable to ``BENCH_crawl.json``."""

    benchmark: str
    scale: str
    seed: int
    route_via_gateway: bool
    queries: int
    locations: int
    treatments: int
    rounds: int
    cpus: int
    start_method: str
    repeats: int = 1
    cells: List[BenchCell] = field(default_factory=list)
    fault_layer: Optional[dict] = None
    """Injection-off overhead of the fault/breaker layer: one extra
    sequential run under a zero-rate :class:`~repro.faults.plan.
    FaultPlan` (``calm``), which wires the full hardened path —
    FaultyNetwork, per-IP breakers, fault accounting — but injects
    nothing.  Must stay byte-identical to the plain sequential run."""
    obs_layer: Optional[dict] = None
    """Tracing-off overhead of the observability layer: the tracer
    hooks are permanently wired (``tracer.enabled`` guards in the
    network / engine / retry path), so one extra sequential run with
    the tracer disabled — the default — bounds their cost against the
    baseline, and a second run with ``trace=`` records what switching
    tracing on costs.  Both must stay byte-identical to the plain
    sequential run."""
    events_layer: Optional[dict] = None
    """Wide-event-log overhead: the crawl events are synthesized
    parent-side from round outcomes (never on the worker hot path), so
    the disabled cost is one ``is None`` check per flushed round.  One
    sequential run with the log off bounds that cost against the
    baseline; a second with ``events=`` prices turning the log on and
    proves it never perturbs the dataset.  Both must stay
    byte-identical to the plain sequential run."""
    supervise_layer: Optional[dict] = None
    """Supervision overhead: one clean run under ``supervise=True`` at
    the sweep's largest worker count (recovery on: per-round snapshot
    capture and config-built workers, nothing failing), compared
    against the same worker count unsupervised — plus a kill-and-
    recover datapoint: the same run with a worker SIGKILLed at a round
    boundary, measuring what one full recovery costs end-to-end.  Both
    must stay byte-identical to the sequential baseline."""

    @property
    def parity_ok(self) -> bool:
        ok = all(cell.byte_identical_to_sequential for cell in self.cells)
        if self.fault_layer is not None:
            ok = ok and self.fault_layer["byte_identical_to_sequential"]
        if self.obs_layer is not None:
            ok = (
                ok
                and self.obs_layer["byte_identical_to_sequential"]
                and self.obs_layer["traced_byte_identical_to_sequential"]
            )
        if self.events_layer is not None:
            ok = (
                ok
                and self.events_layer["byte_identical_to_sequential"]
                and self.events_layer["enabled_byte_identical_to_sequential"]
            )
        if self.supervise_layer is not None:
            ok = (
                ok
                and self.supervise_layer["byte_identical_to_sequential"]
                and self.supervise_layer["kill_recover"][
                    "byte_identical_to_sequential"
                ]
            )
        return ok

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["parity_ok"] = self.parity_ok
        return raw

    def write(self, path, *, keep: int = TRAJECTORY_KEEP) -> Path:
        """Append this report to the trajectory file at ``path``.

        The file holds the last ``keep`` entries, each stamped with the
        UTC time and git sha that produced it.  A legacy single-report
        snapshot (the pre-trajectory format) is absorbed as the oldest
        entry rather than discarded.
        """
        return write_trajectory_entry(
            path, self.to_dict(), benchmark="crawl", keep=keep
        )

    def render(self) -> str:
        lines = [
            f"crawl bench [{self.scale}]: {self.queries} queries x "
            f"{self.rounds // max(1, self.queries)} days, "
            f"{self.treatments} treatments, {self.rounds} rounds, "
            f"{self.cpus} cpu(s), start_method={self.start_method}, "
            f"gateway={'on' if self.route_via_gateway else 'off'}, "
            f"repeats={self.repeats} (wall = min, med = median)",
            f"{'workers':>7} {'wall s':>8} {'med s':>8} {'pages':>7} "
            f"{'req/s':>8} {'speedup':>8} {'parity':>7}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.workers:>7} {cell.wall_seconds:>8.2f} "
                f"{cell.wall_seconds_median:>8.2f} {cell.pages:>7} "
                f"{cell.requests_per_second:>8.1f} "
                f"{cell.speedup_vs_workers_1:>7.2f}x "
                f"{'ok' if cell.byte_identical_to_sequential else 'FAIL':>7}"
            )
        if self.fault_layer is not None:
            layer = self.fault_layer
            lines.append(
                f"fault layer (calm plan, injection off): "
                f"{layer['wall_seconds']:.2f}s, "
                f"{layer['overhead_pct_vs_sequential']:+.1f}% vs sequential, "
                f"parity {'ok' if layer['byte_identical_to_sequential'] else 'FAIL'}"
            )
        if self.obs_layer is not None:
            layer = self.obs_layer
            lines.append(
                f"obs layer (tracing off, the default): "
                f"{layer['wall_seconds']:.2f}s, "
                f"{layer['overhead_pct_vs_sequential']:+.1f}% vs sequential, "
                f"parity {'ok' if layer['byte_identical_to_sequential'] else 'FAIL'}"
            )
            lines.append(
                f"obs layer (tracing on): {layer['traced_wall_seconds']:.2f}s, "
                f"{layer['traced_overhead_pct_vs_sequential']:+.1f}% vs sequential, "
                f"{layer['trace_spans']} spans, parity "
                f"{'ok' if layer['traced_byte_identical_to_sequential'] else 'FAIL'}"
            )
        if self.events_layer is not None:
            layer = self.events_layer
            lines.append(
                f"events layer (log off, the default): "
                f"{layer['wall_seconds']:.2f}s, "
                f"{layer['overhead_pct_vs_sequential']:+.1f}% vs sequential, "
                f"parity {'ok' if layer['byte_identical_to_sequential'] else 'FAIL'}"
            )
            lines.append(
                f"events layer (log on): {layer['enabled_wall_seconds']:.2f}s, "
                f"{layer['enabled_overhead_pct_vs_sequential']:+.1f}% vs sequential, "
                f"{layer['events']} events, parity "
                f"{'ok' if layer['enabled_byte_identical_to_sequential'] else 'FAIL'}"
            )
        if self.supervise_layer is not None:
            layer = self.supervise_layer
            lines.append(
                f"supervise layer (workers={layer['workers']}, clean): "
                f"{layer['wall_seconds']:.2f}s, "
                f"{layer['overhead_pct_vs_unsupervised']:+.1f}% vs unsupervised, "
                f"parity {'ok' if layer['byte_identical_to_sequential'] else 'FAIL'}"
            )
            kill = layer["kill_recover"]
            lines.append(
                f"supervise layer (one worker killed): "
                f"{kill['wall_seconds']:.2f}s, {kill['recoveries']} recovery, "
                f"parity "
                f"{'ok' if kill['byte_identical_to_sequential'] else 'FAIL'}"
            )
        return "\n".join(lines)


def _git_sha() -> Optional[str]:
    """Short sha of HEAD, or None outside a usable git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def write_trajectory_entry(
    path, entry: dict, *, benchmark: str, keep: int = TRAJECTORY_KEEP
) -> Path:
    """Append one stamped entry to a trajectory-v1 file.

    The shared history mechanics for every bench (crawl, serve, ...):
    the entry gets the UTC timestamp and git sha of the producing run,
    the file keeps the last ``keep`` entries, and a legacy single-report
    snapshot is absorbed as the oldest entry rather than discarded.
    """
    target = Path(path)
    stamped = dict(entry)
    stamped["timestamp"] = (
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    )
    stamped["git_sha"] = _git_sha()
    entries = load_trajectory(target)
    entries.append(stamped)
    payload = {
        "benchmark": benchmark,
        "format": "trajectory-v1",
        "entries": entries[-keep:],
    }
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return target


def load_trajectory(path) -> List[dict]:
    """Entries of a ``BENCH_crawl.json`` trajectory, oldest first.

    Understands both the trajectory format and the legacy single-report
    snapshot (returned as a one-entry history).  Unreadable or foreign
    content yields an empty history rather than an error — the bench
    then simply starts a fresh trajectory.
    """
    target = Path(path)
    if not target.exists():
        return []
    try:
        raw = json.loads(target.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return []
    if isinstance(raw, dict) and isinstance(raw.get("entries"), list):
        return [entry for entry in raw["entries"] if isinstance(entry, dict)]
    if isinstance(raw, dict) and "cells" in raw:
        return [raw]
    return []


def regression_message(
    report: BenchReport, history: Sequence[dict], *, threshold_pct: float
) -> Optional[str]:
    """The CI regression gate: None if within bounds, else a message.

    Compares the new workers=1 throughput against the most recent
    history entry measured under the same (scale, gateway, seed).  Pass
    the history loaded *before* the run appended its own entry.  No
    comparable baseline (fresh trajectory, changed config) passes the
    gate — a threshold needs something honest to compare against.
    """
    baseline = None
    for entry in reversed(list(history)):
        if (
            entry.get("scale") == report.scale
            and entry.get("route_via_gateway") == report.route_via_gateway
            and entry.get("seed") == report.seed
            and entry.get("cells")
        ):
            baseline = entry
            break
    if baseline is None:
        return None
    old_cell = next(
        (cell for cell in baseline["cells"] if cell.get("workers") == 1), None
    )
    new_cell = next((cell for cell in report.cells if cell.workers == 1), None)
    if old_cell is None or new_cell is None:
        return None
    old_rps = old_cell.get("requests_per_second")
    if not old_rps:
        return None
    new_rps = new_cell.requests_per_second
    if new_rps >= old_rps * (1.0 - threshold_pct / 100.0):
        return None
    return (
        f"PERF REGRESSION: workers=1 throughput {new_rps:.1f} req/s is "
        f"{100.0 * (old_rps - new_rps) / old_rps:.1f}% below the committed "
        f"baseline {old_rps:.1f} req/s "
        f"(entry {baseline.get('git_sha') or '?'} at "
        f"{baseline.get('timestamp') or '?'}; threshold {threshold_pct:.0f}%)"
    )


def run_crawl_bench(
    *,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    scale: str = "standard",
    seed: int = DEFAULT_STUDY_SEED,
    route_via_gateway: bool = False,
    out: Optional[os.PathLike] = None,
    start_method: Optional[str] = None,
    repeats: int = DEFAULT_REPEATS,
) -> BenchReport:
    """Sweep worker counts over one config; verify parity against workers=1.

    The workers=1 cell runs the plain sequential path and its dataset
    digest is the parity baseline; every other cell runs through the
    parallel executor.  Each cell — including the fault/obs/supervise
    layer probes — is measured ``repeats`` times with the repeats
    interleaved across cells (see the module docstring for why), and
    parity is checked on *every* run.  When ``out`` is given the report
    is appended to the trajectory file there.
    """
    import tempfile

    from repro.faults.plan import FaultPlan
    from repro.obs.exporters import read_trace
    from repro.parallel.executor import _preferred_start_method, run_parallel
    from repro.supervise import KillSpec

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not worker_counts or worker_counts[0] != 1:
        worker_counts = (1,) + tuple(w for w in worker_counts if w != 1)
    config = bench_config(scale, seed=seed, route_via_gateway=route_via_gateway)
    probe = Study(config)
    report = BenchReport(
        benchmark="crawl",
        scale=scale,
        seed=seed,
        route_via_gateway=route_via_gateway,
        queries=len(config.queries),
        locations=probe.locations.total(),
        treatments=len(probe.treatments),
        rounds=probe.round_count(),
        cpus=os.cpu_count() or 1,
        start_method=start_method or _preferred_start_method(),
        repeats=repeats,
    )

    walls: Dict[str, List[float]] = {}
    infos: Dict[str, dict] = {}
    baseline: List[str] = []  # the first workers=1 digest, once known

    def record(name: str, wall: float, digest: str, **info) -> None:
        if not baseline:
            baseline.append(digest)
        matched = digest == baseline[0]
        walls.setdefault(name, []).append(wall)
        if name not in infos:
            infos[name] = dict(info, digest=digest, parity=matched)
        else:
            infos[name]["parity"] = infos[name]["parity"] and matched

    def run_cell(workers: int) -> None:
        study = Study(config)
        started = time.perf_counter()
        if workers == 1:
            dataset = study.run()
        else:
            dataset = run_parallel(
                study, workers=workers, start_method=start_method
            )
        wall = time.perf_counter() - started
        record(
            f"w{workers}",
            wall,
            dataset_digest(dataset),
            pages=len(dataset),
            requests=study.stats.requests,
            failures=len(study.failures),
        )

    # Injection-off overhead: the hardened stack (FaultyNetwork with a
    # zero-rate plan + per-IP breakers) must be byte-identical to the
    # plain path, and its cost is recorded so perf history catches
    # regressions in the always-on robustness plumbing.
    def run_calm() -> None:
        study = Study(config.with_overrides(fault_plan=FaultPlan(seed=seed)))
        started = time.perf_counter()
        dataset = study.run()
        record("calm", time.perf_counter() - started, dataset_digest(dataset))

    # Tracing-off overhead: the tracer hooks stay wired even when no
    # trace is requested, so their disabled-path cost is bounded by an
    # identical sequential re-run; a traced run records what turning
    # tracing on costs and proves it never perturbs the dataset.
    def run_obs() -> None:
        study = Study(config)
        started = time.perf_counter()
        dataset = study.run()
        record("obs", time.perf_counter() - started, dataset_digest(dataset))

    def run_traced() -> None:
        handle, trace_path = tempfile.mkstemp(suffix=".trace.jsonl")
        os.close(handle)
        try:
            study = Study(config)
            started = time.perf_counter()
            dataset = study.run(trace=trace_path)
            wall = time.perf_counter() - started
            _, _, trace_summary = read_trace(trace_path)
        finally:
            os.unlink(trace_path)
        record(
            "traced",
            wall,
            dataset_digest(dataset),
            spans=trace_summary["spans"],
        )

    # Wide-event-log overhead: with no log requested the only cost is
    # the parent-side `is None` guard per flushed round; with a log the
    # builder synthesizes one event per crawl cell outside the workers.
    def run_events_off() -> None:
        study = Study(config)
        started = time.perf_counter()
        dataset = study.run()
        record(
            "events-off", time.perf_counter() - started, dataset_digest(dataset)
        )

    def run_events_on() -> None:
        from repro.obs.events import read_events

        handle, events_path = tempfile.mkstemp(suffix=".events.jsonl")
        os.close(handle)
        try:
            study = Study(config)
            started = time.perf_counter()
            dataset = study.run(events=events_path)
            wall = time.perf_counter() - started
            _, events, _ = read_events(events_path)
        finally:
            os.unlink(events_path)
        record(
            "events-on", wall, dataset_digest(dataset), events=len(events)
        )

    # Supervision overhead: what turning recovery on adds to the one
    # executor — a per-round snapshot capture, and workers that build
    # from the config instead of inheriting the parent's warmed study
    # (heartbeats and the watchdog run in both modes) — measured clean
    # against the same worker count unsupervised, then once more with a
    # worker murdered at a round boundary to price a full
    # detect-respawn-reexecute cycle.
    supervise_workers = max((w for w in worker_counts if w > 1), default=2)

    def run_sup() -> None:
        study = Study(config)
        started = time.perf_counter()
        dataset = run_parallel(
            study,
            workers=supervise_workers,
            supervise=True,
            start_method=start_method,
        )
        record("sup", time.perf_counter() - started, dataset_digest(dataset))

    def run_kill() -> None:
        study = Study(config)
        started = time.perf_counter()
        dataset = run_parallel(
            study,
            workers=supervise_workers,
            supervise=True,
            start_method=start_method,
            kill_specs=(KillSpec(shard=0, ordinal=1),),
        )
        record(
            "kill",
            time.perf_counter() - started,
            dataset_digest(dataset),
            recoveries=study.supervisor.stats.recoveries,
        )

    tasks = [(lambda w=w: run_cell(w)) for w in worker_counts]
    tasks += [
        run_calm,
        run_obs,
        run_traced,
        run_events_off,
        run_events_on,
        run_sup,
        run_kill,
    ]
    for _ in range(repeats):
        for task in tasks:
            task()

    def agg(name: str) -> Tuple[float, float]:
        samples = walls[name]
        return min(samples), median(samples)

    w1_min, w1_med = agg("w1")
    for workers in worker_counts:
        cell_min, cell_med = agg(f"w{workers}")
        info = infos[f"w{workers}"]
        report.cells.append(
            BenchCell(
                workers=workers,
                wall_seconds=round(cell_min, 4),
                wall_seconds_median=round(cell_med, 4),
                repeats=repeats,
                pages=info["pages"],
                requests=info["requests"],
                failures=info["failures"],
                requests_per_second=round(info["requests"] / cell_min, 2),
                speedup_vs_workers_1=round(w1_min / cell_min, 3),
                dataset_sha256=info["digest"],
                byte_identical_to_sequential=info["parity"],
            )
        )

    calm_min, calm_med = agg("calm")
    report.fault_layer = {
        "wall_seconds": round(calm_min, 4),
        "wall_seconds_median": round(calm_med, 4),
        "overhead_pct_vs_sequential": round(
            100.0 * (calm_med - w1_med) / w1_med, 2
        ),
        "byte_identical_to_sequential": infos["calm"]["parity"],
    }

    obs_min, obs_med = agg("obs")
    traced_min, traced_med = agg("traced")
    report.obs_layer = {
        "wall_seconds": round(obs_min, 4),
        "wall_seconds_median": round(obs_med, 4),
        "overhead_pct_vs_sequential": round(
            100.0 * (obs_med - w1_med) / w1_med, 2
        ),
        "byte_identical_to_sequential": infos["obs"]["parity"],
        "traced_wall_seconds": round(traced_min, 4),
        "traced_wall_seconds_median": round(traced_med, 4),
        "traced_overhead_pct_vs_sequential": round(
            100.0 * (traced_med - w1_med) / w1_med, 2
        ),
        "trace_spans": infos["traced"]["spans"],
        "traced_byte_identical_to_sequential": infos["traced"]["parity"],
    }

    events_off_min, events_off_med = agg("events-off")
    events_on_min, events_on_med = agg("events-on")
    report.events_layer = {
        "wall_seconds": round(events_off_min, 4),
        "wall_seconds_median": round(events_off_med, 4),
        "overhead_pct_vs_sequential": round(
            100.0 * (events_off_med - w1_med) / w1_med, 2
        ),
        "byte_identical_to_sequential": infos["events-off"]["parity"],
        "enabled_wall_seconds": round(events_on_min, 4),
        "enabled_wall_seconds_median": round(events_on_med, 4),
        "enabled_overhead_pct_vs_sequential": round(
            100.0 * (events_on_med - w1_med) / w1_med, 2
        ),
        "events": infos["events-on"]["events"],
        "enabled_byte_identical_to_sequential": infos["events-on"]["parity"],
    }

    unsup_med = (
        agg(f"w{supervise_workers}")[1]
        if f"w{supervise_workers}" in walls
        else w1_med
    )
    sup_min, sup_med = agg("sup")
    kill_min, kill_med = agg("kill")
    report.supervise_layer = {
        "workers": supervise_workers,
        "wall_seconds": round(sup_min, 4),
        "wall_seconds_median": round(sup_med, 4),
        "overhead_pct_vs_unsupervised": round(
            100.0 * (sup_med - unsup_med) / unsup_med, 2
        ),
        "byte_identical_to_sequential": infos["sup"]["parity"],
        "kill_recover": {
            "wall_seconds": round(kill_min, 4),
            "wall_seconds_median": round(kill_med, 4),
            "recoveries": infos["kill"]["recoveries"],
            "byte_identical_to_sequential": infos["kill"]["parity"],
        },
    }
    if out is not None:
        report.write(out)
    return report


def profile_sequential(
    *,
    scale: str = "standard",
    seed: int = DEFAULT_STUDY_SEED,
    route_via_gateway: bool = False,
    top: int = 20,
) -> str:
    """cProfile the sequential crawl; return the top-N cumulative table."""
    import cProfile
    import pstats

    config = bench_config(scale, seed=seed, route_via_gateway=route_via_gateway)
    study = Study(config)
    profiler = cProfile.Profile()
    profiler.enable()
    study.run()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python benchmarks/bench_crawl.py ...``)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        default=",".join(str(w) for w in DEFAULT_WORKER_COUNTS),
        help="comma-separated worker counts to sweep",
    )
    parser.add_argument("--scale", choices=["standard", "smoke"], default="standard")
    parser.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    parser.add_argument("--gateway", action="store_true", help="crawl via the gateway")
    parser.add_argument("--out", default="BENCH_crawl.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: smoke scale, workers 1,2, parity enforced",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also print a cProfile top-20 cumulative table of the sequential run",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_REPEATS,
        help="repeats per cell, interleaved; wall = min, median alongside",
    )
    parser.add_argument(
        "--fail-on-regress",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero if workers=1 throughput drops more than PCT%% "
        "below the latest comparable trajectory entry",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scale, counts = "smoke", SMOKE_WORKER_COUNTS
    else:
        scale = args.scale
        counts = tuple(int(part) for part in args.workers.split(",") if part)
    history = load_trajectory(args.out)
    report = run_crawl_bench(
        worker_counts=counts,
        scale=scale,
        seed=args.seed,
        route_via_gateway=args.gateway,
        out=args.out,
        repeats=args.repeats,
    )
    print(report.render())
    print(f"appended to {args.out}")
    if args.profile:
        print()
        print(profile_sequential(scale=scale, seed=args.seed,
                                 route_via_gateway=args.gateway))
    if not report.parity_ok:
        print("PARITY FAILURE: parallel dataset differs from sequential",
              file=sys.stderr)
        return 1
    if args.fail_on_regress is not None:
        message = regression_message(
            report, history, threshold_pct=args.fail_on_regress
        )
        if message is not None:
            print(message, file=sys.stderr)
            return 1
    return 0
