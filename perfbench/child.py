"""One benchmark iteration in a fresh interpreter.

``python3 -m perfbench.child --workload W --variant V --spawn-ns T
--workdir D [--trace]`` is started by ``run.py`` with
``PYTHONHASHSEED`` pinned and ``src`` on the path.  Set-up time runs
from ``T`` (the parent's clock just before the spawn; the monotonic
clock is shared by every process on the host) to the ``gc.collect()``
that closes set-up, so it includes interpreter start and imports.  A
:class:`~perfbench.harness.SpeedProbe` runs from the start of the
iteration to the end of its window, in the iteration process and in
every worker it forks.  The last line of standard output is one JSON
sample.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional

from perfbench import harness

EXPECTED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected.json"
)

#: A traced window's span accounting must close within this share of its wall.
ACCOUNTING_TOLERANCE = 0.05


def accounting_closes(attributed: float, unattributed: float, wall: float) -> bool:
    """Reported self times plus unattributed time equal the traced wall, ±5%."""
    return abs(attributed + unattributed - wall) <= ACCOUNTING_TOLERANCE * wall


class Context:
    """What a workload needs from the harness: its inputs, clocks, checks."""

    def __init__(self, args, recorder=None, gc_pauses=None):
        self.variant = args.variant
        self.workdir = args.workdir
        self.recorder = recorder
        self.gc_pauses = gc_pauses
        self.spawn_ns = args.spawn_ns
        self.probe = harness.SpeedProbe().start()
        self.probe_start_ns = time.perf_counter_ns()
        self.setup_s = 0.0
        self.setup_end_ns = 0
        self.window_start_ns = 0
        self.lap_ns = 0
        self.window_end_ns = 0
        self._times = None
        self._times_end = None
        self._expected = None
        self.layer: Dict[str, float] = {}
        self.memo: List[int] = [0, 0]

    # -- clocks --------------------------------------------------------------

    def setup_done(self) -> None:
        gc.collect()
        self.setup_end_ns = time.perf_counter_ns()
        self.setup_s = (self.setup_end_ns - self.spawn_ns) / 1e9

    def start(self) -> None:
        if self.recorder is not None:
            self.recorder.open_window()
            self.gc_pauses.reset()
        self._times = harness.cpu_reading()
        self.window_start_ns = time.perf_counter_ns()

    def lap(self):
        """(wall seconds, CPU seconds) from :meth:`start` until now.

        Marks the end of the stretch the workload's pages are timed over
        (the whole window when a workload does not lap).
        """
        self.lap_ns = time.perf_counter_ns()
        elapsed = (self.lap_ns - self.window_start_ns) / 1e9
        return elapsed, harness.cpu_seconds(self._times, harness.cpu_reading())

    def stop(self) -> None:
        self.window_end_ns = time.perf_counter_ns()
        self._times_end = harness.cpu_reading()
        self.probe.stop()
        if self.recorder is not None:
            parent_cpu, worker_cpu = (
                after - before for after, before in zip(self._times_end, self._times)
            )
            self.layer.update(
                {
                    "parallel.parent_cpu_s": parent_cpu,
                    "parallel.worker_cpu_s": worker_cpu,
                    "parallel.parent_idle_s": max(0.0, self.window_s - parent_cpu),
                }
            )

    @property
    def window_s(self) -> float:
        return (self.window_end_ns - self.window_start_ns) / 1e9

    def op_latencies(self, op_spans) -> Dict[str, List[float]]:
        """Op latencies in ms as the clock read them, and scaled to reference speed."""
        probes = self.probe.probes
        window = [p for p in probes if self.window_start_ns <= p[0] < self.window_end_ns]
        speeds = harness.op_speeds(probes, op_spans, harness.steal_share(window))
        plain = [(end - start) / 1e6 for start, end in op_spans]
        return {
            "ops_ms": plain,
            "ops_ref_ms": [ms * speed for ms, speed in zip(plain, speeds)],
        }

    def speeds(self) -> Dict[str, float]:
        """Scale factors: wall over set-up, pages and window; CPU over pages."""
        probes = self.probe.probes
        pages_end = self.lap_ns or self.window_end_ns
        pages = harness.host_speeds(probes, self.window_start_ns, pages_end)
        return {
            "setup": harness.host_speeds(
                probes, self.probe_start_ns, self.setup_end_ns
            )["wall"],
            "pages": pages["wall"],
            "cpu": pages["cpu"],
            "window": harness.host_speeds(
                probes, self.window_start_ns, self.window_end_ns
            )["wall"],
        }

    @property
    def cpu_s(self) -> float:
        """CPU seconds of this process and its reaped children in the window."""
        return harness.cpu_seconds(self._times, self._times_end)

    # -- checks and layer facts ----------------------------------------------

    def expected(self, workload: str, key: str) -> Optional[str]:
        if self._expected is None:
            try:
                with open(EXPECTED_PATH) as handle:
                    self._expected = json.load(handle)
            except (OSError, ValueError):
                self._expected = {}
        return self._expected.get(workload, {}).get(str(self.variant), {}).get(key)

    def layer_facts(self, *, memo: List[int], facts: Optional[dict] = None) -> None:
        self.memo = list(memo)
        self.layer.update(facts or {})


#: Layer facts that only some workloads read off the program; 0 where
#: the layer does not run.
ZERO_LAYER_FACTS = {
    "supervise.heartbeats": 0,
    "supervise.snapshots": 0,
    "supervise.recoveries": 0,
    "serve.cache.hit_ratio": 0.0,
    "serve.cache.live_entries": 0,
}


def run(args) -> dict:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if not args.trace:
        ctx = Context(args)
        sample = workload(ctx)
        sample["setup_s"] = ctx.setup_s
        sample["window_s"] = ctx.window_s
        sample["speed"] = ctx.speeds()
        sample.update(ctx.op_latencies(sample.pop("op_spans")))
        sample["peak_rss_mb"] = harness.peak_rss_mb()
        return sample

    from repro.store.fileops import use_fileops

    from perfbench import tracing

    flush_dir = os.path.join(args.workdir, "spans")
    os.makedirs(flush_dir, exist_ok=True)
    recorder = tracing.SpanRecorder(flush_dir)
    tracing.install_layer_wrappers(recorder)
    gc_pauses = tracing.GcPauses().install()
    ctx = Context(args, recorder, gc_pauses)
    ctx.layer.update(ZERO_LAYER_FACTS)
    with use_fileops(tracing.store_fileops(recorder)):
        sample = workload(ctx)
    gc.callbacks.remove(gc_pauses)
    layers, traced_wall = tracing.layer_metrics(
        recorder,
        window=(ctx.window_start_ns, ctx.window_end_ns),
        gc_pauses=gc_pauses,
        pages=sample["pages"],
        memo=ctx.memo,
        layer_facts=ctx.layer,
    )
    attributed = sum(layers[name] for name in tracing.SELF_TIME_METRICS)
    unattributed = layers["trace.unattributed_s"]
    sample["layers"] = layers
    sample["window_s"] = ctx.window_s
    sample["speed"] = ctx.speeds()
    del sample["op_spans"]
    sample["checks"]["trace_accounting"] = accounting_closes(
        attributed, unattributed, traced_wall
    )
    sample["accounting"] = {
        "attributed_s": attributed,
        "unattributed_s": unattributed,
        "traced_wall_s": traced_wall,
    }
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sample = run(args)
    sys.stdout.write(json.dumps(sample) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
