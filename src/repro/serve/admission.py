"""Admission control: bounded per-replica queues over virtual time.

Each replica serves one request at a time at a fixed virtual service
time (the paper's crawl budgeted ~6 wall seconds per query; the default
matches).  A bounded FIFO in front of it models the socket backlog:
requests that arrive while the replica is busy wait their turn, and
once ``capacity`` requests are in flight the queue exerts backpressure
— the gateway spills to the next replica in routing-preference order or
sheds the request outright.

The queue is a deque of *completion times*.  Because load sources
generate non-decreasing virtual arrival times, pruning completed work
from the front on every operation keeps each operation O(backlog).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

__all__ = ["QueueSlot", "ReplicaQueue", "DEFAULT_SERVICE_MINUTES"]

#: Virtual service time per request: ~6 seconds, the per-query budget
#: the paper's crawl schedule was engineered around.
DEFAULT_SERVICE_MINUTES = 0.1


@dataclass(frozen=True)
class QueueSlot:
    """The virtual timeline of one admitted request."""

    arrival_minutes: float
    start_minutes: float
    completion_minutes: float

    @property
    def wait_minutes(self) -> float:
        return self.start_minutes - self.arrival_minutes

    @property
    def latency_minutes(self) -> float:
        return self.completion_minutes - self.arrival_minutes


@dataclass
class ReplicaQueue:
    """A bounded single-server FIFO in virtual time."""

    capacity: int = 32
    service_minutes: float = DEFAULT_SERVICE_MINUTES
    _completions: Deque[float] = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {self.capacity}")
        if self.service_minutes <= 0:
            raise ValueError("service time must be positive")

    def _prune(self, now_minutes: float) -> None:
        while self._completions and self._completions[0] <= now_minutes:
            self._completions.popleft()

    def depth(self, now_minutes: float) -> int:
        """Requests in flight (queued + serving) at ``now``."""
        self._prune(now_minutes)
        return len(self._completions)

    def try_admit(self, now_minutes: float) -> Optional[QueueSlot]:
        """Admit one request, or ``None`` when the queue is full."""
        self._prune(now_minutes)
        if len(self._completions) >= self.capacity:
            return None
        start = self._completions[-1] if self._completions else now_minutes
        start = max(start, now_minutes)
        completion = start + self.service_minutes
        self._completions.append(completion)
        return QueueSlot(
            arrival_minutes=now_minutes,
            start_minutes=start,
            completion_minutes=completion,
        )

    # -- checkpointing -------------------------------------------------------

    def capture_state(self) -> dict:
        """JSON-able snapshot of the in-flight completion times."""
        return {"completions": list(self._completions)}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`."""
        self._completions = deque(state["completions"])
