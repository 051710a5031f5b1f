"""Self-healing supervision for parallel crawls and the serve gateway.

Public surface:

* :func:`run_supervised` — :func:`repro.parallel.run_parallel` with
  recovery on: crash/hang detection, deterministic recovery, and
  quarantine (reachable as ``Study.run(workers=N, supervise=True)``);
* :class:`SupervisorPolicy` — detection/recovery knobs;
* :class:`KillSpec` — reproducible worker-murder points for tests and
  the ``repro chaos --kill-workers`` CLI;
* :class:`SupervisorStats` / :class:`SupervisorReport` /
  :class:`SupervisorEvent` — counters plus the ordered recovery ledger.
"""

from repro.supervise.stats import (
    SupervisorEvent,
    SupervisorReport,
    SupervisorStats,
)
from repro.supervise.supervisor import (
    KillSpec,
    SupervisorPolicy,
    run_supervised,
)

__all__ = [
    "KillSpec",
    "SupervisorEvent",
    "SupervisorPolicy",
    "SupervisorReport",
    "SupervisorStats",
    "run_supervised",
]
