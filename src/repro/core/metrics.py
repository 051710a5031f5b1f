"""Comparison metrics for pages of search results (paper §2.3).

Two metrics, exactly as the paper defines them:

* **Jaccard index** over the *sets* of result URLs — 1 means the two
  pages contain the same results (order ignored), 0 means no overlap.
* **Edit distance** over the *sequences* of result URLs — "the number
  of additions, deletions, and swaps necessary to make two lists
  identical", i.e. Damerau–Levenshtein distance (optimal string
  alignment variant, which counts a transposition as one operation).

The edit distance strips the two lists' common prefix and suffix, then
runs Hyyrö's bit-parallel OSA algorithm ("A bit-vector algorithm for
computing Levenshtein and Damerau edit distances", 2003) with one
Python int per symbol as the match mask, so it costs one pass over the
shorter remainder with no length cap.  Symbols are dict keys (every
caller passes URL strings).  The textbook O(n·m) dynamic program it
replaces is kept in ``tests/test_core_metrics.py`` as the oracle the
tests compare it against.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

__all__ = ["jaccard_index", "damerau_levenshtein", "edit_distance"]


def jaccard_index(a: Sequence[str], b: Sequence[str]) -> float:
    """Jaccard index of the URL *sets* of two result pages.

    Two empty pages are defined as identical (1.0), matching the
    convention needed when type-filtering removes every result.

    >>> jaccard_index(["x", "y"], ["y", "x"])
    1.0
    >>> jaccard_index(["x"], ["y"])
    0.0
    """
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    return len(set_a & set_b) / len(union)


def damerau_levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Damerau–Levenshtein distance between two result sequences.

    Optimal string alignment: insertions, deletions, substitutions, and
    adjacent transpositions each cost 1 (a transposition models two
    results swapping places on the page).

    >>> damerau_levenshtein(["a", "b", "c"], ["a", "c", "b"])
    1
    >>> damerau_levenshtein(["a", "b"], ["a", "b", "c"])
    1
    """
    start, end_a, end_b = 0, len(a), len(b)
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    if start == end_a or start == end_b:
        return (end_a - start) + (end_b - start)
    if end_a - start < end_b - start:
        a, b, end_a, end_b = b, a, end_b, end_a
    # Bit i of a symbol's mask is set where the trimmed a holds it;
    # vp/vn are the +1/-1 vertical deltas of the DP column, d0 its
    # zero-diagonal-delta bits, so bit m-1 tracks the last row.
    masks: Dict[Hashable, int] = {}
    bit = 1
    for index in range(start, end_a):
        masks[a[index]] = masks.get(a[index], 0) | bit
        bit <<= 1
    last = bit >> 1
    distance = end_a - start
    vp, vn, d0, previous = bit - 1, 0, 0, 0
    for index in range(start, end_b):
        match = masks.get(b[index], 0)
        transposed = ((~d0 & match) << 1) & previous
        d0 = (((match & vp) + vp) ^ vp) | match | vn | transposed
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        vp = (hn << 1) | ~(d0 | hp)
        vn = hp & d0
        previous = match
    return distance


def edit_distance(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Alias for :func:`damerau_levenshtein` (the paper's "edit distance")."""
    return damerau_levenshtein(a, b)
