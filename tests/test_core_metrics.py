"""Tests for the comparison metrics (paper §2.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import damerau_levenshtein, edit_distance, jaccard_index


def reference_damerau_levenshtein(a, b) -> int:
    """The textbook O(n·m) optimal-string-alignment DP: the oracle the
    affix-trimmed bit-vector :func:`damerau_levenshtein` must match."""
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        return len_b
    if len_b == 0:
        return len_a
    # Classic O(n·m) DP with one extra diagonal for transpositions.
    previous2 = [0] * (len_b + 1)
    previous = list(range(len_b + 1))
    for i in range(1, len_a + 1):
        current = [i] + [0] * len_b
        for j in range(1, len_b + 1):
            substitution_cost = 0 if a[i - 1] == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + substitution_cost,  # substitution
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                current[j] = min(current[j], previous2[j - 2] + 1)  # transposition
        previous2, previous = previous, current
    return previous[len_b]


def _up_to_renaming(length: int, symbols: int):
    """Every sequence of ``length`` over ``symbols`` symbols, up to
    renaming: symbol k first appears after symbols 0..k-1."""
    sequences = [()]
    for _ in range(length):
        sequences = [
            s + (x,)
            for s in sequences
            for x in range(min(max(s, default=-1) + 2, symbols))
        ]
    return sequences


@st.composite
def _sequence_pairs(draw):
    """Two lists of up to 25 items over one alphabet of at most 5
    symbols, sharing a prefix and a suffix (either may be empty)."""
    alphabet = st.sampled_from("abcde"[: draw(st.integers(1, 5))])
    prefix = draw(st.lists(alphabet, max_size=9))
    suffix = draw(st.lists(alphabet, max_size=8))
    middle = st.lists(alphabet, max_size=8)
    return prefix + draw(middle) + suffix, prefix + draw(middle) + suffix


class TestAgainstReferenceDP:
    def test_every_short_pair_over_three_symbols(self):
        # Both functions compare symbols only for equality, so renaming
        # symbols cannot change a distance: one pair per renaming class
        # (a sequence of up to 12 symbols, split into two of length
        # 0-6) covers every pair of sequences of length 0-6 over 2 or 3
        # symbols.
        checked = 0
        for total in range(13):
            for joined in _up_to_renaming(total, 3):
                for split in range(max(0, total - 6), min(6, total) + 1):
                    a, b = joined[:split], joined[split:]
                    assert damerau_levenshtein(a, b) == reference_damerau_levenshtein(
                        a, b
                    ), (a, b)
                    checked += 1
        assert checked == 199_133

    @settings(max_examples=200)
    @given(_sequence_pairs())
    def test_random_pairs_with_shared_affixes(self, pair):
        a, b = pair
        assert damerau_levenshtein(a, b) == reference_damerau_levenshtein(a, b)

    def test_longer_than_a_machine_word(self):
        a = [f"u{i % 7}" for i in range(90)]
        b = a[1:] + ["x"] + a[:1]
        b[40], b[41] = b[41], b[40]
        assert damerau_levenshtein(a, b) == reference_damerau_levenshtein(a, b)

    def test_tuples_and_lists_agree(self):
        # Records hold URL tuples; the comparison layer passes lists.
        a, b = list("abcdefg"), list("xbdcefy")
        assert damerau_levenshtein(tuple(a), tuple(b)) == damerau_levenshtein(a, b) == 3


class TestJaccard:
    def test_identical_lists(self):
        assert jaccard_index(["a", "b"], ["a", "b"]) == 1.0

    def test_order_ignored(self):
        # Paper: Jaccard of 1 means same results, "although not
        # necessarily in the same order".
        assert jaccard_index(["a", "b", "c"], ["c", "b", "a"]) == 1.0

    def test_disjoint(self):
        assert jaccard_index(["a"], ["b"]) == 0.0

    def test_partial_overlap(self):
        assert jaccard_index(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)

    def test_both_empty_is_identical(self):
        assert jaccard_index([], []) == 1.0

    def test_one_empty(self):
        assert jaccard_index(["a"], []) == 0.0

    def test_duplicates_collapse(self):
        assert jaccard_index(["a", "a"], ["a"]) == 1.0

    def test_symmetry(self):
        a, b = ["a", "b", "c"], ["b", "d"]
        assert jaccard_index(a, b) == jaccard_index(b, a)

    def test_bounded(self):
        assert 0.0 <= jaccard_index(["a", "b"], ["b", "c", "d"]) <= 1.0


class TestEditDistance:
    def test_identical(self):
        assert edit_distance(["a", "b", "c"], ["a", "b", "c"]) == 0

    def test_empty_vs_empty(self):
        assert edit_distance([], []) == 0

    def test_insertion(self):
        assert edit_distance(["a", "b"], ["a", "b", "c"]) == 1

    def test_deletion(self):
        assert edit_distance(["a", "b", "c"], ["a", "c"]) == 1

    def test_substitution(self):
        assert edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_adjacent_swap_costs_one(self):
        # The paper counts "swaps" as single operations.
        assert damerau_levenshtein(["a", "b", "c"], ["a", "c", "b"]) == 1

    def test_pure_levenshtein_would_cost_two(self):
        # Sanity: the transposition rule is actually engaged.
        assert damerau_levenshtein(["a", "b"], ["b", "a"]) == 1

    def test_empty_against_full(self):
        assert edit_distance([], ["a", "b", "c"]) == 3
        assert edit_distance(["a", "b", "c"], []) == 3

    def test_completely_different(self):
        assert edit_distance(["a", "b"], ["x", "y"]) == 2

    def test_symmetry(self):
        a = ["a", "b", "c", "d"]
        b = ["b", "a", "d", "e"]
        assert edit_distance(a, b) == edit_distance(b, a)

    def test_triangle_inequality_spot_check(self):
        a = ["a", "b", "c"]
        b = ["b", "c", "d"]
        c = ["d", "e", "f"]
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_bounded_by_longer_length(self):
        a = ["a", "b", "c", "d", "e"]
        b = ["v", "w", "x", "y", "z", "q"]
        assert edit_distance(a, b) <= max(len(a), len(b))

    def test_rotation_example(self):
        # Moving the head to the tail of a 4-list costs 2 ops
        # (delete + insert), not 4.
        assert edit_distance(["a", "b", "c", "d"], ["b", "c", "d", "a"]) == 2

    def test_known_dp_case(self):
        assert edit_distance(list("kitten"), list("sitting")) == 3

    def test_alias(self):
        assert edit_distance(["a"], ["b"]) == damerau_levenshtein(["a"], ["b"])
