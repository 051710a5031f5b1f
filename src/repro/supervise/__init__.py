"""Self-healing supervision for parallel crawls and the serve gateway.

Recovery is a switch on the one parallel executor:
``Study.run(workers=N, supervise=True)`` or
:func:`repro.parallel.run_parallel` with ``supervise=True`` turns on
crash/hang detection, deterministic recovery, and quarantine.

Public surface:

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
from repro.supervise.supervisor import KillSpec, SupervisorPolicy

__all__ = [
    "KillSpec",
    "SupervisorEvent",
    "SupervisorPolicy",
    "SupervisorReport",
    "SupervisorStats",
]
