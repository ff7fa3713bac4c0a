"""Tests for the global hash family (repro.hashing.hash_family)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.hash_family import (
    HashFamily,
    _fixed_width_bytes,
    fold_key,
    fold_keys,
    hash_distribution_chi2,
    mix64,
    splitmix64,
    stable_key_bytes,
)

key_strategy = st.one_of(
    st.binary(min_size=0, max_size=32),
    st.text(max_size=32),
    st.integers(min_value=0, max_value=2**128),
    st.tuples(st.integers(min_value=0, max_value=2**32), st.text(max_size=8)),
)


class TestStableKeyBytes:
    def test_bytes_pass_through(self):
        assert stable_key_bytes(b"\x01\x02") == b"\x01\x02"

    def test_str_utf8(self):
        assert stable_key_bytes("flow") == b"flow"

    def test_int_big_endian_min_8_bytes(self):
        assert stable_key_bytes(5) == b"\x00" * 7 + b"\x05"
        assert len(stable_key_bytes(2**100)) == 13

    def test_tuple_length_prefixed(self):
        encoded = stable_key_bytes((b"ab", b"c"))
        assert encoded == b"\x00\x00\x00\x02ab\x00\x00\x00\x01c"

    def test_tuple_nesting_distinguishes_groupings(self):
        assert stable_key_bytes(((b"a", b"b"), b"c")) != stable_key_bytes(
            (b"a", (b"b", b"c"))
        )

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            stable_key_bytes(-1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            stable_key_bytes(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            stable_key_bytes(3.14)

    @given(key=key_strategy)
    def test_deterministic(self, key):
        assert stable_key_bytes(key) == stable_key_bytes(key)


class TestMixers:
    def test_splitmix64_reference_values(self):
        # Reference sequence from the splitmix64 paper seed 0 stream.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    @given(value=st.integers(min_value=0, max_value=2**64 - 1))
    def test_mix64_stays_in_64_bits(self, value):
        assert 0 <= mix64(value) < 2**64

    @given(value=st.integers(min_value=0, max_value=2**64 - 1))
    def test_mix64_seed_changes_output(self, value):
        assert mix64(value, seed=1) != mix64(value, seed=2)


class TestHashFamily:
    def test_same_seed_same_functions(self):
        """The global property: independent parties agree on every hash."""
        a, b = HashFamily(seed=7), HashFamily(seed=7)
        for index in range(8):
            assert a.hash_key(b"key", index) == b.hash_key(b"key", index)

    def test_different_seeds_differ(self):
        assert HashFamily(0).hash_key(b"key") != HashFamily(1).hash_key(b"key")

    def test_different_indexes_differ(self):
        family = HashFamily()
        hashes = family.hash_many(b"key", 16)
        assert len(set(hashes)) == 16

    def test_equality_and_hash(self):
        assert HashFamily(3) == HashFamily(3)
        assert HashFamily(3) != HashFamily(4)
        assert hash(HashFamily(3)) == hash(HashFamily(3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            HashFamily(seed=-1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            HashFamily().hash_key(b"key", -1)

    def test_mod_bounds(self):
        family = HashFamily()
        for index in range(4):
            value = family.hash_key_mod(b"key", index, 97)
            assert 0 <= value < 97

    def test_mod_zero_rejected(self):
        with pytest.raises(ValueError):
            HashFamily().hash_key_mod(b"key", 0, 0)

    @given(key=key_strategy, index=st.integers(min_value=0, max_value=64))
    def test_deterministic(self, key, index):
        family = HashFamily(seed=42)
        assert family.hash_key(key, index) == family.hash_key(key, index)

    def test_distribution_uniform(self):
        """Chi-squared over 64 buckets should be near 63 for uniform hashes."""
        family = HashFamily(seed=123)
        samples = [family.hash_key(i) for i in range(20000)]
        chi2 = hash_distribution_chi2(samples, buckets=64)
        # 99.9th percentile of chi2(63) is ~106; far above means a broken hash.
        assert chi2 < 120

    def test_avalanche(self):
        """Flipping one key bit flips close to half the output bits."""
        family = HashFamily(seed=9)
        flipped_fractions = []
        for i in range(200):
            base = family.hash_key(i)
            neighbour = family.hash_key(i ^ 1)
            flipped_fractions.append(bin(base ^ neighbour).count("1") / 64)
        mean = sum(flipped_fractions) / len(flipped_fractions)
        assert 0.45 < mean < 0.55


class TestVectorisedHashing:
    def test_hash_array_matches_shape(self):
        family = HashFamily()
        keys = np.arange(1000, dtype=np.uint64)
        hashes = family.hash_array(keys, index=2)
        assert hashes.shape == keys.shape
        assert hashes.dtype == np.uint64

    def test_hash_array_deterministic_and_index_sensitive(self):
        family = HashFamily(seed=5)
        keys = np.arange(100, dtype=np.uint64)
        assert np.array_equal(family.hash_array(keys, 0), family.hash_array(keys, 0))
        assert not np.array_equal(
            family.hash_array(keys, 0), family.hash_array(keys, 1)
        )

    def test_hash_array_mod_bounds(self):
        family = HashFamily()
        keys = np.arange(10000, dtype=np.uint64)
        reduced = family.hash_array_mod(keys, 0, 1009)
        assert int(reduced.max()) < 1009
        assert int(reduced.min()) >= 0

    def test_hash_array_mod_uniform(self):
        family = HashFamily(seed=11)
        keys = np.arange(100000, dtype=np.uint64)
        reduced = family.hash_array_mod(keys, 0, 64)
        counts = np.bincount(reduced.astype(np.int64), minlength=64)
        expected = len(keys) / 64
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 120

    def test_mod_zero_rejected(self):
        with pytest.raises(ValueError):
            HashFamily().hash_array_mod(np.arange(4, dtype=np.uint64), 0, 0)


U64_MAX = 2**64 - 1

#: Keys the general encoder must handle: empty and non-ASCII strings,
#: bytes, wide ints, ``("flow", int)`` pairs and nested tuples.
general_key_strategy = st.recursive(
    st.one_of(
        st.text(max_size=12),
        st.binary(max_size=20),
        st.integers(min_value=0, max_value=2**80),
        st.tuples(st.just("flow"), st.integers(min_value=0, max_value=2**70)),
    ),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=8,
)


@st.composite
def equal_arity_int_tuples(draw):
    """Same-arity int tuples; sometimes one row carries an element >= 2**64."""
    arity = draw(st.integers(min_value=0, max_value=7))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=U64_MAX),
                min_size=arity,
                max_size=arity,
            ),
            max_size=40,
        )
    )
    if arity and rows and draw(st.booleans()):
        row = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        column = draw(st.integers(min_value=0, max_value=arity - 1))
        rows[row][column] = draw(st.integers(min_value=2**64, max_value=2**80))
    return [tuple(row) for row in rows]


def assert_fold_matches_scalar(keys):
    folded = fold_keys(keys)
    assert folded.dtype == np.uint64
    assert folded.tolist() == [fold_key(key) for key in keys]


class TestFoldKeysDifferential:
    """The columnar fold is bit-identical to the scalar ``fold_key``."""

    @given(keys=st.lists(st.integers(min_value=0, max_value=2**80), max_size=40))
    def test_plain_ints(self, keys):
        assert_fold_matches_scalar(keys)

    @given(keys=equal_arity_int_tuples())
    def test_equal_arity_int_tuples(self, keys):
        assert_fold_matches_scalar(keys)

    @given(
        keys=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=U64_MAX), max_size=6
            ).map(tuple),
            max_size=40,
        )
    )
    def test_ragged_arities(self, keys):
        assert_fold_matches_scalar(keys)

    @given(keys=st.lists(general_key_strategy, max_size=40))
    def test_general_keys(self, keys):
        assert_fold_matches_scalar(keys)

    @given(keys=st.lists(general_key_strategy, max_size=20))
    def test_any_iterable_input(self, keys):
        expected = [fold_key(key) for key in keys]
        assert fold_keys(key for key in keys).tolist() == expected
        assert fold_keys(tuple(keys)).tolist() == expected

    def test_empty_encodings(self):
        assert_fold_matches_scalar(["", b"", ()])
        assert_fold_matches_scalar([(), ()])
        assert_fold_matches_scalar([""])

    def test_empty_batch(self):
        folded = fold_keys([])
        assert folded.dtype == np.uint64 and folded.shape == (0,)
        assert fold_keys(iter(())).shape == (0,)

    def test_five_tuples_take_the_fixed_width_encoder(self):
        keys = [(167772161, 3232235777, 5000, 80, 6), (U64_MAX, 0, 1, 2, 17)]
        data, length = _fixed_width_bytes(keys)
        assert length == 60
        for row, key in zip(data, keys):
            assert row[:length].tobytes() == stable_key_bytes(key)
        assert_fold_matches_scalar(keys)

    @pytest.mark.parametrize(
        "keys",
        [
            [("5", 2)],
            ["5", "6"],
            [(1, 2), (3, "4")],
            [(1, 2), (3, 4, 5)],
            [(1, 2**64)],
            [2**64, 1],
        ],
    )
    def test_other_batches_take_the_general_encoder(self, keys):
        """Strings are never parsed by numpy; wide or ragged ints fall back."""
        assert _fixed_width_bytes(keys) is None
        assert_fold_matches_scalar(keys)

    @given(
        bad=st.sampled_from(
            [True, False, -1, -(2**70), 1.5, float("nan"), None, [1], {1}]
        ),
        as_element=st.booleans(),
        size=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_invalid_key_raises_like_stable_key_bytes(
        self, bad, as_element, size, data
    ):
        keys = [(i, i + 1) for i in range(size)]
        position = data.draw(st.integers(min_value=0, max_value=size - 1))
        keys[position] = (position, bad) if as_element else bad
        with pytest.raises(Exception) as scalar_error:
            stable_key_bytes(keys[position])
        with pytest.raises(Exception) as batch_error:
            fold_keys(keys)
        assert type(batch_error.value) is scalar_error.type


def test_chi2_empty_rejected():
    with pytest.raises(ValueError):
        hash_distribution_chi2([], buckets=8)
