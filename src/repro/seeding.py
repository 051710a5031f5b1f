"""Deterministic seed derivation for the whole reproduction.

Every stochastic decision in this repository — where a synthetic business
sits, which A/B bucket a request lands in, how a news pool rotates — is
drawn from a :class:`random.Random` instance whose seed is *derived*, not
chosen ad hoc.  Derivation walks a tree: a single master seed fans out
into child seeds via SHA-256 over a path of string labels.  Two
consequences follow:

* The entire study (world, engine, crawl, analysis, figures) regenerates
  bit-identically from one integer.
* Subsystems are *independent*: re-rolling the news pool does not perturb
  where POIs sit, because their seeds live on different branches.

Python's built-in ``hash()`` is salted per process and must never be used
for this purpose; everything here goes through :func:`hashlib.sha256`.

Hot path
--------
The ranker draws one score term per document from a label path that
differs only in the document (``("ab-jitter", seed, bucket, url)``,
``("state-perturb", seed, url, state)``, ...), and the suggestion
strip one rank key per suggestion.  Such multi-draw sites call
:func:`stable_hashes`: it takes the shared head's hasher state once,
encodes the shared tail once, and per value does one copy, one update
and one digest.  Their keys almost never repeat, so it leaves no
result-cache entry behind.

Single draws (request nonces, probability gates, :func:`derive_seed`)
still go through two LRU caches, without changing a single digest:

* a **result cache** keyed on the raw part tuple (``typed=True`` keeps
  ``1`` / ``True`` / ``1.0`` distinct, matching the canonical type
  tagging), so a repeated call is one C-level lookup with no encoding
  or hashing at all, and
* a **prefix-state cache** holding the hasher state for every proper
  prefix, so even a call whose last component is unique (a per-request
  nonce) only encodes and hashes that final component — the shared
  prefix is a cache hit plus a ``.copy()``.  :func:`stable_hashes`
  takes its head's state from this cache too.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from typing import Iterable, List, Sequence, Union

__all__ = [
    "derive_seed",
    "derive_rng",
    "stable_hash",
    "stable_hashes",
    "stable_unit",
    "digest_cache_info",
    "clear_digest_cache",
]

_SeedPart = Union[str, int, float, bool]

_SEED_TAG = b"repro-seed-v1"
_HASH_TAG = b"repro-hash-v1"


def _encode_part(part: _SeedPart) -> bytes:
    """Encode one path component canonically.

    Types are tagged so that ``derive_seed(s, 1)`` and
    ``derive_seed(s, "1")`` differ, and floats are serialised via
    ``repr`` which round-trips exactly in Python 3.  ``-0.0`` encodes
    as ``0.0``: the caches match parts by equality, and ``-0.0 == 0.0``,
    so distinct encodings would make a draw depend on call order.
    """
    if isinstance(part, bool):  # must precede int: bool is an int subclass
        return b"b:" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i:" + str(part).encode("ascii")
    if isinstance(part, float):
        return b"f:" + repr(part + 0.0).encode("ascii")
    if isinstance(part, str):
        return b"s:" + part.encode("utf-8")
    raise TypeError(f"unsupported seed path component: {part!r}")


@lru_cache(maxsize=1 << 15, typed=True)
def _prefix_state(tag: bytes, *parts: _SeedPart):
    """Hasher state for ``tag`` plus each encoded part behind ``\\x00``.

    Cached objects are shared — callers must ``.copy()`` before
    updating, never mutate the returned hasher.
    """
    if not parts:
        return hashlib.sha256(tag)
    hasher = _prefix_state(tag, *parts[:-1]).copy()
    hasher.update(b"\x00")
    hasher.update(_encode_part(parts[-1]))
    return hasher


@lru_cache(maxsize=1 << 17, typed=True)
def _digest64(tag: bytes, *parts: _SeedPart) -> int:
    """First 8 digest bytes as an int; states cached per proper prefix."""
    if parts:
        hasher = _prefix_state(tag, *parts[:-1]).copy()
        hasher.update(b"\x00")
        hasher.update(_encode_part(parts[-1]))
    else:
        hasher = hashlib.sha256(tag)
    return int.from_bytes(hasher.digest()[:8], "big")


def digest_cache_info() -> dict:
    """Hit/miss counters of the two digest caches (for benchmarks)."""
    return {
        "digest": _digest64.cache_info()._asdict(),
        "prefix": _prefix_state.cache_info()._asdict(),
    }


def clear_digest_cache() -> None:
    """Drop both caches (cold-start measurements; results unchanged)."""
    _digest64.cache_clear()
    _prefix_state.cache_clear()


def derive_seed(master: int, *path: _SeedPart) -> int:
    """Derive a 64-bit child seed from ``master`` and a label path.

    >>> derive_seed(7, "web", "poi", "school") == derive_seed(7, "web", "poi", "school")
    True
    >>> derive_seed(7, "web") != derive_seed(8, "web")
    True
    """
    return _digest64(_SEED_TAG + _encode_part(master), *path)


def derive_rng(master: int, *path: _SeedPart) -> random.Random:
    """Return a :class:`random.Random` seeded at the derived child seed."""
    return random.Random(derive_seed(master, *path))


def stable_hash(*parts: _SeedPart) -> int:
    """A process-independent 64-bit hash of a tuple of primitives.

    Used where a *value*, not a stream, is needed — e.g. mapping a URL to
    a shard, or tie-breaking two documents with equal scores.
    """
    return _digest64(_HASH_TAG, *parts)


def stable_hashes(
    head: Sequence[_SeedPart],
    varying: Iterable[_SeedPart],
    tail: Sequence[_SeedPart] = (),
) -> List[int]:
    """``[stable_hash(*head, v, *tail) for v in varying]``, batched.

    The head's hasher state comes from the prefix cache once and the
    tail is encoded once; each value then costs one copy, one update
    and one digest, and adds no result-cache entry.
    """
    base = _prefix_state(_HASH_TAG, *head)
    suffix = b"".join(b"\x00" + _encode_part(part) for part in tail)
    digests = []
    for value in varying:
        hasher = base.copy()
        hasher.update(b"\x00" + _encode_part(value) + suffix)
        digests.append(int.from_bytes(hasher.digest()[:8], "big"))
    return digests


def stable_unit(*parts: _SeedPart) -> float:
    """A deterministic float in ``[0, 1)`` derived from ``parts``.

    Handy for probability gates ("does this request get a Maps card?")
    that must be reproducible and independent of draw order.
    """
    return stable_hash(*parts) / 2**64
