"""Cookie-keyed session state: the 10-minute personalization window.

Prior work found Google personalizes on searches made within the last
10 minutes (paper §2.2, noise control #3).  The engine reproduces this:
for a cookie seen recently, documents topically matching a recent query
get a score boost, and the session *remembers the last location* — two
confounds the paper's methodology removes by clearing cookies after
every query and waiting 11 minutes between queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geo.coords import LatLon
from repro.web.urls import slugify

__all__ = ["SessionStore"]


@dataclass
class _SessionEntry:
    recent: List[Tuple[float, str]] = field(default_factory=list)  # (time, query slug)
    last_location: Optional[LatLon] = None
    last_seen_minutes: float = 0.0


@dataclass
class SessionStore:
    """Per-cookie search history with a sliding relevance window."""

    window_minutes: float = 10.0
    _sessions: Dict[str, _SessionEntry] = field(default_factory=dict)

    def record(
        self,
        cookie_id: str,
        query_text: str,
        timestamp_minutes: float,
        location: Optional[LatLon],
    ) -> None:
        """Record a completed search for a cookie."""
        entry = self._sessions.setdefault(cookie_id, _SessionEntry())
        entry.recent.append((timestamp_minutes, slugify(query_text)))
        entry.last_seen_minutes = timestamp_minutes
        if location is not None:
            entry.last_location = location
        self._prune(entry, timestamp_minutes)

    def recent_query_slugs(self, cookie_id: Optional[str], now_minutes: float) -> List[str]:
        """Slugs of the cookie's searches inside the window."""
        if cookie_id is None:
            return []
        entry = self._sessions.get(cookie_id)
        if entry is None:
            return []
        self._prune(entry, now_minutes)
        return [slug for _, slug in entry.recent]

    def remembered_location(
        self, cookie_id: Optional[str], now_minutes: float
    ) -> Optional[LatLon]:
        """The location the session remembers, if still fresh.

        Location memory outlives the 10-minute topical window a little
        (3x), modelling the "remembering a treatment's prior location"
        effect the paper clears cookies to avoid.
        """
        if cookie_id is None:
            return None
        entry = self._sessions.get(cookie_id)
        if entry is None:
            return None
        if now_minutes - entry.last_seen_minutes > 3 * self.window_minutes:
            return None
        return entry.last_location

    def clear(self, cookie_id: str) -> None:
        """Forget one cookie entirely (what clearing cookies causes)."""
        self._sessions.pop(cookie_id, None)

    def _prune(self, entry: _SessionEntry, now_minutes: float) -> None:
        entry.recent = [
            (t, slug)
            for t, slug in entry.recent
            if now_minutes - t <= self.window_minutes
        ]

    def __len__(self) -> int:
        return len(self._sessions)

    # -- checkpointing -------------------------------------------------------

    def capture_state(self, now_minutes: float) -> dict:
        """JSON-able snapshot of every session still able to affect output.

        Sessions whose every timestamp lies more than ``3 * window``
        before ``now_minutes`` are dropped — from the snapshot *and* from
        this store, so after a capture the live store equals
        ``restore_state(snapshot)``, the state a resumed run continues
        from, and holds only the sessions of the last ``3 * window``
        minutes instead of one per cookie ever seen.  Dropping is exact
        for requests at or after ``now_minutes``: none can read a
        remembered location or a recent slug from a dropped session,
        and the next ``record`` on that cookie overwrites location and
        last-seen while pruning the stale slugs.  The overwrite needs a
        location: :class:`~repro.engine.frontend.SearchEngine` always
        records the resolved, non-``None`` one, whereas ``record(...,
        None)`` would revive the old location of a session kept past
        the horizon, which a dropped one no longer has.
        Entries that survive are captured verbatim (timestamps may be
        non-monotonic: retries overshoot into the next round).
        """
        horizon = 3 * self.window_minutes
        sessions = {}
        dropped = []
        for cookie_id, entry in self._sessions.items():
            freshest = max(
                [entry.last_seen_minutes] + [t for t, _ in entry.recent]
            )
            if now_minutes - freshest > horizon:
                dropped.append(cookie_id)
                continue
            sessions[cookie_id] = [
                [[t, slug] for t, slug in entry.recent],
                (
                    [entry.last_location.lat, entry.last_location.lon]
                    if entry.last_location is not None
                    else None
                ),
                entry.last_seen_minutes,
            ]
        for cookie_id in dropped:
            del self._sessions[cookie_id]
        return {"sessions": sessions}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`."""
        self._sessions = {
            cookie_id: _SessionEntry(
                recent=[(t, slug) for t, slug in recent],
                last_location=LatLon(*location) if location is not None else None,
                last_seen_minutes=last_seen,
            )
            for cookie_id, (recent, location, last_seen) in state["sessions"].items()
        }
