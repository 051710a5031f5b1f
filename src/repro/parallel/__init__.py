"""Parallel crawl execution: shard the lock-step study across processes.

Public surface:

* :func:`run_parallel` — execute a :class:`~repro.core.runner.Study`
  sharded over N worker processes, byte-identical to the sequential
  run (reachable as ``Study.run(workers=N)``); the one executor, with
  recovery on under ``supervise=True``;
* :func:`plan_shards` / :class:`ShardPlan` — the machine-granular
  treatment partition the parity argument rests on: each worker takes
  a contiguous, treatment-balanced run of crawl machines, which keeps
  a location's treatment and control (neighbouring machines, when the
  machine count is even) on one worker unless a cut falls between
  them, so per-location engine state is built once;
* :func:`bench_config` / :func:`dataset_digest` — the benchmark's
  crawl config and the dataset digest its parity checks compare.
"""

from repro.parallel.executor import (
    ShardPlan,
    WorkerFailure,
    plan_shards,
    run_parallel,
)
from repro.parallel.bench import bench_config, dataset_digest

__all__ = [
    "ShardPlan",
    "WorkerFailure",
    "plan_shards",
    "run_parallel",
    "bench_config",
    "dataset_digest",
]
