"""Tests for deterministic seed derivation."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import (
    _encode_part,
    clear_digest_cache,
    derive_rng,
    derive_seed,
    stable_hash,
    stable_hashes,
    stable_unit,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_master_changes_child(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_path_changes_child(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_path_depth_matters(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "ab")
        assert derive_seed(7, "a") != derive_seed(7, "a", "a")

    def test_type_tagging_distinguishes_int_and_str(self):
        assert derive_seed(7, 1) != derive_seed(7, "1")

    def test_type_tagging_distinguishes_bool_and_int(self):
        assert derive_seed(7, True) != derive_seed(7, 1)

    def test_float_components(self):
        assert derive_seed(7, 1.5) == derive_seed(7, 1.5)
        assert derive_seed(7, 1.5) != derive_seed(7, 1.25)

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            derive_seed(7, [1, 2])

    def test_result_is_64_bit(self):
        for path in ("x", "y", "z"):
            assert 0 <= derive_seed(7, path) < 2**64


class TestDeriveRng:
    def test_returns_seeded_random(self):
        rng = derive_rng(7, "stream")
        assert isinstance(rng, random.Random)

    def test_same_path_same_stream(self):
        a = derive_rng(7, "s").random()
        b = derive_rng(7, "s").random()
        assert a == b

    def test_different_paths_diverge(self):
        a = [derive_rng(7, "s1").random() for _ in range(3)]
        b = [derive_rng(7, "s2").random() for _ in range(3)]
        assert a != b


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("u", 1) == stable_hash("u", 1)

    def test_sensitive_to_every_part(self):
        assert stable_hash("u", 1) != stable_hash("u", 2)
        assert stable_hash("u", 1) != stable_hash("v", 1)

    def test_differs_from_derive_seed(self):
        # Different domain separation tags.
        assert stable_hash("a") != derive_seed("a")  # type: ignore[arg-type]


class TestStableUnit:
    def test_in_unit_interval(self):
        for i in range(100):
            assert 0.0 <= stable_unit("gate", i) < 1.0

    def test_deterministic(self):
        assert stable_unit("gate", 5) == stable_unit("gate", 5)

    def test_roughly_uniform(self):
        values = [stable_unit("uniformity", i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        assert min(values) < 0.05
        assert max(values) > 0.95


class _Label(str):
    """A ``str`` subclass: encoded as its text, cached as its own type."""


#: One part of every type ``_encode_part`` accepts, edge values included.
_PARTS = (
    "",
    "Zürich ☃",
    _Label("label"),
    "url.example.com",
    -7,
    2**64 + 5,
    1,
    True,
    False,
    -0.0,
    1e300,
    2.5,
)


def _uncached_hash(*parts):
    """``stable_hash`` from its definition, bypassing both caches."""
    message = b"repro-hash-v1" + b"".join(b"\x00" + _encode_part(p) for p in parts)
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


_part = st.one_of(
    st.text(),
    st.text().map(_Label),
    st.integers(),
    st.booleans(),
    st.floats(),
)


class TestStableHashes:
    """``stable_hashes`` against the per-value ``stable_hash`` calls."""

    @pytest.mark.parametrize("tail_len", range(4))
    @pytest.mark.parametrize("head_len", range(4))
    def test_matches_per_value_calls(self, head_len, tail_len):
        for offset in range(len(_PARTS)):
            rotated = _PARTS[offset:] + _PARTS[:offset]
            head = rotated[:head_len]
            tail = rotated[head_len : head_len + tail_len]
            assert stable_hashes(head, iter(_PARTS), tail) == [
                stable_hash(*head, value, *tail) for value in _PARTS
            ]

    def test_every_part_type_is_tagged(self):
        # Distinct parts (True and 1 among them) draw distinct values,
        # and a str subclass encodes as its text.
        assert len(set(stable_hashes(("tagged",), _PARTS))) == len(_PARTS)
        assert stable_hashes((_Label("x"),), ["y"]) == stable_hashes(("x",), ["y"])

    def test_empty_varying(self):
        assert stable_hashes(("a", 1), []) == []
        assert stable_hashes((), (), ("tail",)) == []

    @pytest.mark.parametrize(
        "head, varying, tail",
        [
            (([1],), ["x"], ()),
            ((), [None], ()),
            ((), ["x"], (b"bytes",)),
        ],
    )
    def test_rejects_unsupported_types(self, head, varying, tail):
        with pytest.raises(TypeError):
            stable_hash(*head, *varying, *tail)
        with pytest.raises(TypeError):
            stable_hashes(head, varying, tail)

    def test_negative_zero_does_not_depend_on_call_order(self):
        # The caches key parts by equality and -0.0 == 0.0, so both
        # zeros encode alike: a draw cannot depend on which came first.
        clear_digest_cache()
        first = stable_hash("zero", -0.0, "x")
        clear_digest_cache()
        stable_hash("zero", 0.0, "x")
        assert stable_hash("zero", -0.0, "x") == first
        assert stable_hashes(("zero",), [-0.0, 0.0], ("x",)) == [first, first]
        assert stable_hashes(("zero", -0.0), ["x"]) == [first]

    @settings(max_examples=200, deadline=None)
    @given(
        head=st.lists(_part, max_size=3),
        varying=st.lists(_part, max_size=6),
        tail=st.lists(_part, max_size=3),
    )
    def test_matches_per_value_calls_hypothesis(self, head, varying, tail):
        expected = [stable_hash(*head, value, *tail) for value in varying]
        assert stable_hashes(head, varying, tail) == expected
        assert expected == [_uncached_hash(*head, value, *tail) for value in varying]
