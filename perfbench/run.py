"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload paper-study --seed 3 --seconds 30 --trace 0

Every iteration runs in a fresh interpreter (``perfbench/child.py``,
``PYTHONHASHSEED=0``) that sets up, times one window of a fixed op
count, measures the host's speed through it and checks its outputs.
Iterations repeat, on consecutive input variants, while the next one
would end nearer to ``--seconds`` than the run is now (at least
:data:`MIN_ITERATIONS`); :func:`end_to_end` says how they combine.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of ``BENCHMARK.json`` (medians over traced
iterations) plus the tracing overhead.  A diagnostics line (seed,
variants, host speeds, unscaled metrics, steal share, load average)
precedes the result.

``--record`` re-derives ``perfbench/expected.json``, the output digests
of every input variant, from the current program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import harness  # noqa: E402
from perfbench.workloads import TAIL_PCT, VARIANTS, WORKLOADS  # noqa: E402

#: Untraced iterations per run whatever ``--seconds`` says.
MIN_ITERATIONS = 2

#: A run must end within 180 s: iterations get what is left of this.
RUN_DEADLINE_S = 170


def spawn(
    workload: str, variant: int, workdir: str, *, trace: bool, timeout: float
) -> dict:
    """Run one iteration in a fresh interpreter and return its sample."""
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    command = [
        sys.executable,
        "-m",
        "perfbench.child",
        "--workload",
        workload,
        "--variant",
        str(variant),
        "--workdir",
        workdir,
    ] + (["--trace"] if trace else [])
    command += ["--spawn-ns", str(time.perf_counter_ns())]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} iteration exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def remove_work_root(work_root: str) -> None:
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work_root))
    except OSError:
        pass  # another run still uses it


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def end_to_end(workload: str, samples, *, scaled: bool = True) -> dict:
    """The run's end-to-end metrics from its untraced iterations.

    Every time is scaled by the host speed its iteration measured over
    the same stretch (see :class:`perfbench.harness.SpeedProbe`), so it
    reads in seconds at the reference speed: on a shared 2-vCPU VM the
    same code runs up to twice as fast at one moment as at another.  Each op
    latency is scaled by the speed around that op
    (:func:`perfbench.harness.op_speeds`).  ``scaled=False`` gives the
    times as the clock read them, for the diagnostics line.
    Per-iteration values combine by median; op latencies are pooled
    before taking percentiles.
    """

    def scale(sample, stretch: str) -> float:
        return sample["speed"][stretch] if scaled else 1.0

    def median(values) -> float:
        return statistics.median(list(values))

    ops_key = "ops_ref_ms" if scaled else "ops_ms"
    ops = [latency for sample in samples for latency in sample[ops_key]]
    return {
        "setup_s": median(s["setup_s"] * scale(s, "setup") for s in samples),
        "pages_per_s": median(
            s["pages"] / (s["page_s"] * scale(s, "pages")) for s in samples
        ),
        "cpu_ms_per_page": median(
            harness.cpu_ms_per_page(s["cpu_s"] * scale(s, "cpu"), s["pages"])
            for s in samples
        ),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
        "result_s": median(s["result_s"] * scale(s, "window") for s in samples),
        "op_p50_ms": harness.percentile(ops, 50),
        "op_tail_ms": harness.percentile(ops, TAIL_PCT[workload]),
    }


def per_layer(untraced, traced) -> dict:
    values = harness.median_metrics([sample["layers"] for sample in traced])

    def window(samples) -> float:
        return statistics.median(
            sample["window_s"] * sample["speed"]["window"] for sample in samples
        )

    plain = window(untraced)
    values["trace.overhead_pct"] = 100.0 * (window(traced) - plain) / plain
    return values


def run(args, benchmark: dict) -> dict:
    work_root = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    started = time.perf_counter()
    host_before = harness.read_cpu_jiffies()
    untraced, traced, durations = [], [], []
    iteration = 0
    try:
        while True:
            done = len(traced) if args.trace else len(untraced)
            if done >= MIN_ITERATIONS or (args.trace and done >= 1):
                # Stop where the next iteration would end nearer past
                # --seconds than the run already stands short of it.
                elapsed = time.perf_counter() - started
                if elapsed + statistics.mean(durations) / 2 > args.seconds:
                    break
            began = time.perf_counter()
            # Consecutive iterations take consecutive input variants,
            # so no single input set decides the run's medians.
            variant = (args.seed + len(durations)) % VARIANTS
            for trace in (False, True) if args.trace else (False,):
                iteration += 1
                sample = spawn(
                    args.workload,
                    variant,
                    os.path.join(work_root, str(iteration)),
                    trace=trace,
                    timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - started)),
                )
                sample["variant"] = variant
                (traced if trace else untraced).append(sample)
            durations.append(time.perf_counter() - began)
    finally:
        remove_work_root(work_root)
    samples = untraced + traced
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "variants": [sample["variant"] for sample in samples],
        "iterations": len(samples),
        "wall_s": time.perf_counter() - started,
        **harness.host_diagnostics(host_before, harness.read_cpu_jiffies()),
        "failed_checks": sorted(
            {name for s in samples for name, ok in s["checks"].items() if not ok}
        ),
        "window_s": [round(sample["window_s"], 4) for sample in samples],
        "speed": [sample["speed"] for sample in samples],
    }
    if args.trace:
        values = per_layer(untraced, traced)
        declared = benchmark["per_layer"]
        diagnostics["accounting"] = [sample["accounting"] for sample in traced]
    else:
        values = end_to_end(args.workload, untraced)
        diagnostics["unscaled"] = end_to_end(args.workload, untraced, scaled=False)
        declared = benchmark["end_to_end"]
    print(json.dumps({"diagnostics": diagnostics}))
    missing = {metric["name"] for metric in declared} - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": not diagnostics["failed_checks"],
        "attempted": sum(sample["attempted"] for sample in samples),
        "failed": sum(sample["failed"] for sample in samples),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def record() -> dict:
    """Output digests of every variant, for ``expected.json``."""
    expected: dict = {}
    work_root = os.path.join(ROOT, ".perfbench_work", f"record-{os.getpid()}")
    for workload, keys in (
        ("paper-study", ("dataset", "figures")),
        ("supervised-audit", ("store",)),
        ("serve-zipf", ("served",)),
    ):
        for variant in range(VARIANTS):
            sample = spawn(
                workload, variant, os.path.join(work_root, f"{workload}-{variant}"),
                trace=False, timeout=RUN_DEADLINE_S,
            )
            expected.setdefault(workload, {})[str(variant)] = {
                key: sample["digests"][key] for key in keys
            }
            print(workload, variant, sample["digests"], file=sys.stderr)
    remove_work_root(work_root)
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record:
        expected = record()
        with open(os.path.join(HERE, "expected.json"), "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args, load_benchmark())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
