"""Indexed family of independent global hash functions.

DART (paper section 3.1) requires a *stateless* mapping from telemetry keys
to memory addresses that every switch and every query client computes
identically: ``h_n(key)`` for ``n in [0, N)`` selects the N redundant slot
addresses, and a separate function selects the collector.

We realise the family with strong 64-bit integer mixers (splitmix64 /
xxhash-style avalanche) over a canonical byte encoding of the key, seeded per
function index.  Mixers of this form are well-distributed and pass avalanche
tests, which the property-based test-suite checks directly.

Vectorised variants (numpy ``uint64`` arrays in, arrays out) power the
statistical simulator, which needs to hash tens of millions of keys.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Key = Union[bytes, str, int, tuple]

_U64 = 0xFFFFFFFFFFFFFFFF

#: Starting accumulator of the key fold: the FNV offset basis, an
#: arbitrary non-zero start.
_FOLD_BASIS = 0xCBF29CE484222325


def stable_key_bytes(key: Key) -> bytes:
    """Canonical byte encoding of a telemetry key.

    Keys in DART deployments are things like flow 5-tuples, (switch ID,
    5-tuple) pairs, or query IDs (Table 1 of the paper).  All parties must
    encode a key the same way, so this function is the single source of
    truth: ints become 8-byte big-endian (wider ints use as many bytes as
    needed), strings become UTF-8, tuples are length-prefixed
    concatenations of their encoded elements.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, bool):
        raise TypeError("bool is not a valid telemetry key")
    if isinstance(key, int):
        if key < 0:
            raise ValueError(f"telemetry keys must be non-negative, got {key}")
        length = max(8, (key.bit_length() + 7) // 8)
        return key.to_bytes(length, "big")
    if isinstance(key, tuple):
        parts = []
        for element in key:
            encoded = stable_key_bytes(element)
            parts.append(struct.pack(">I", len(encoded)))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"unsupported key type: {type(key).__name__}")


def splitmix64(value: int) -> int:
    """One round of the splitmix64 generator/mixer (scalar)."""
    value = (value + 0x9E3779B97F4A7C15) & _U64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _U64
    return value ^ (value >> 31)


def mix64(value: int, seed: int = 0) -> int:
    """Strong 64-bit avalanche mix of ``value`` under ``seed``."""
    return splitmix64((value ^ splitmix64(seed)) & _U64)


def fold_key(key: Key) -> int:
    """Fold a key into its seed-independent 64-bit lane.

    This is the expensive, per-key part of every family hash (byte
    encoding plus chunk mixing) and it does not depend on the function
    index, so batch paths compute it once per key and finish each family
    member with the cheap :meth:`HashFamily.hash_folded` mix.  By
    construction ``hash_folded(fold_key(k), i) == hash_key(k, i)``.
    """
    return _fold_bytes(stable_key_bytes(key))


def _fold_bytes(data: bytes) -> int:
    """Fold arbitrary-length bytes into a 64-bit lane with mixing per word."""
    acc = _FOLD_BASIS
    for offset in range(0, len(data), 8):
        chunk = data[offset : offset + 8]
        word = int.from_bytes(chunk, "big")
        acc = splitmix64((acc ^ word) & _U64)
    # Mix in the length so prefixes don't collide with padded keys.
    return splitmix64((acc ^ len(data)) & _U64)


def fold_keys(keys: Iterable[Key]) -> np.ndarray:
    """Fold many keys into a ``uint64`` lane array, equal to :func:`fold_key` each.

    The batch is first laid out as a zero-padded byte matrix, one encoded
    key per row, and then folded column-wise: one vectorised splitmix64
    pass per 8-byte word, whatever the batch size.  Two encoders build the
    matrix:

    - fixed-width batches (plain ints, or same-arity tuples of ints, all
      in ``[0, 2**64)``) are encoded with numpy, no Python per key;
    - any other batch is encoded per key with :func:`stable_key_bytes`,
      which also raises its errors for invalid keys.

    Every family hash then finishes vectorised via
    :meth:`HashFamily.hash_folded_array`.
    """
    keys = keys if isinstance(keys, (list, tuple)) else list(keys)
    if not keys:
        return np.zeros(0, dtype=np.uint64)
    fixed = _fixed_width_bytes(keys)
    if fixed is not None:
        data, length = fixed
        return _fold_rows(data, np.full(len(keys), length, dtype=np.int64))
    encoded = [stable_key_bytes(key) for key in keys]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(keys))
    width = _word_aligned(int(lengths.max()))
    data = np.frombuffer(
        b"".join(row.ljust(width, b"\x00") for row in encoded), dtype=np.uint8
    ).reshape(len(keys), width)
    return _fold_rows(data, lengths)


def _word_aligned(length: int) -> int:
    """``length`` rounded up to a whole number of 8-byte words."""
    return -(-length // 8) * 8


def _fixed_width_bytes(keys: Sequence[Key]) -> Optional[Tuple[np.ndarray, int]]:
    """``stable_key_bytes`` of every key as a padded ``uint8`` matrix, or ``None``.

    Only batches of plain ``int`` keys, or of tuples of one arity whose
    elements are all plain ``int``, qualify; every value must lie in
    ``[0, 2**64)`` (numpy's conversion raises ``OverflowError`` otherwise,
    and the general encoder takes over).  A plain int encodes as its 8
    big-endian bytes; a tuple element as a 4-byte length 8 followed by
    those 8 bytes.  Returns the matrix, zero-padded to whole words, and
    the encoded length every row shares.
    """
    count = len(keys)
    kinds = set(map(type, keys))
    try:
        if kinds == {int}:
            values = np.fromiter(keys, dtype=np.uint64, count=count)
            return values.astype(">u8").view(np.uint8).reshape(count, 8), 8
        if kinds != {tuple} or len(set(map(len, keys))) != 1:
            return None
        if not set(map(type, chain.from_iterable(keys))) <= {int}:
            return None
        arity = len(keys[0])
        values = np.fromiter(
            chain.from_iterable(keys), dtype=np.uint64, count=count * arity
        )
    except OverflowError:
        return None
    length = 12 * arity
    data = np.zeros((count, _word_aligned(length)), dtype=np.uint8)
    # A view: splitting the contiguous last axis never copies.
    elements = data[:, :length].reshape(count, arity, 12)
    elements[:, :, 3] = 8
    elements[:, :, 4:] = values.astype(">u8").view(np.uint8).reshape(count, arity, 8)
    return data, length


def _fold_rows(data: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`_fold_bytes` of every row of a zero-padded byte matrix.

    Row ``i`` holds ``lengths[i]`` bytes, and the matrix width is a whole
    number of words.  The matrix is read as big-endian words, a partial
    last word is right-aligned (as ``int.from_bytes`` reads a short
    chunk), and each word column is mixed in one pass; a row's
    accumulator only advances while the column lies inside that row.
    """
    words = data.view(">u8").astype(np.uint64)
    tail = lengths % 8
    partial = np.flatnonzero(tail)
    words[partial, lengths[partial] // 8] >>= (8 * (8 - tail[partial])).astype(
        np.uint64
    )
    word_counts = (lengths + 7) // 8
    acc = np.full(len(lengths), _FOLD_BASIS, dtype=np.uint64)
    for column, word in enumerate(words.T):
        mixed = _splitmix64_np(acc ^ word)
        acc = np.where(column < word_counts, mixed, acc)
    return _splitmix64_np(acc ^ lengths.astype(np.uint64))


def _splitmix64_np(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        values = values + np.uint64(0x9E3779B97F4A7C15)
        values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return values ^ (values >> np.uint64(31))


class HashFamily:
    """A family of independent hash functions ``h_0, h_1, ...``.

    Every party constructing a ``HashFamily`` with the same ``seed`` obtains
    the same functions; this is what makes DART's addressing *global* and
    coordination-free.

    Parameters
    ----------
    seed:
        Network-wide configuration constant distributed to switches by the
        control plane and known to query clients.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = seed
        self._base = splitmix64(seed & _U64)
        self._seed_cache: dict = {}

    def __repr__(self) -> str:
        return f"HashFamily(seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashFamily) and other.seed == self.seed

    def __hash__(self) -> int:
        return hash(("HashFamily", self.seed))

    def _function_seed(self, index: int) -> int:
        seed = self._seed_cache.get(index)
        if seed is None:
            if index < 0:
                raise ValueError("hash function index must be non-negative")
            seed = splitmix64((self._base ^ (index * 0xA24BAED4963EE407)) & _U64)
            self._seed_cache[index] = seed
        return seed

    def hash_key(self, key: Key, index: int = 0) -> int:
        """64-bit hash of ``key`` under family member ``index``."""
        folded = _fold_bytes(stable_key_bytes(key))
        return mix64(folded, self._function_seed(index))

    def hash_folded(self, folded: int, index: int = 0) -> int:
        """Finish a :func:`fold_key` lane under family member ``index``.

        Equals ``hash_key(key, index)`` when ``folded == fold_key(key)``;
        the batch addressing path folds each key once and calls this per
        family member.
        """
        return mix64(folded, self._function_seed(index))

    def hash_folded_array(self, folded: np.ndarray, index: int = 0) -> np.ndarray:
        """Vectorised :meth:`hash_folded` over a ``uint64`` lane array.

        Bit-identical to the scalar method element-wise (unlike
        :meth:`hash_array`, which hashes integer identities): this is the
        mixer the columnar batch path uses so that columnar addressing
        matches scalar addressing exactly.
        """
        folded = np.asarray(folded, dtype=np.uint64)
        seed = np.uint64(splitmix64(self._function_seed(index)))
        with np.errstate(over="ignore"):
            return _splitmix64_np(folded ^ seed)

    def hash_key_mod(self, key: Key, index: int, modulus: int) -> int:
        """``hash_key`` reduced to ``[0, modulus)``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return self.hash_key(key, index) % modulus

    def hash_many(self, key: Key, count: int) -> list:
        """The first ``count`` family hashes of ``key``."""
        return [self.hash_key(key, index) for index in range(count)]

    # ------------------------------------------------------------------
    # Vectorised interface (statistical simulator path)
    # ------------------------------------------------------------------

    def hash_array(self, keys: np.ndarray, index: int = 0) -> np.ndarray:
        """Vectorised 64-bit hash of integer keys under member ``index``.

        ``keys`` is interpreted as identities (e.g. flow numbers); the result
        matches what a scalar path hashing the same integer identity would
        produce only in distribution, not bit-for-bit -- the simulator cares
        about uniformity and independence, not wire-format equality.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        seed = np.uint64(self._function_seed(index))
        return _splitmix64_np(keys ^ seed)

    def hash_array_mod(
        self, keys: np.ndarray, index: int, modulus: int
    ) -> np.ndarray:
        """Vectorised ``hash_array`` reduced to ``[0, modulus)``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return self.hash_array(keys, index) % np.uint64(modulus)


def hash_distribution_chi2(samples: Iterable[int], buckets: int) -> float:
    """Chi-squared statistic of hash samples bucketed uniformly.

    A helper for tests and for operators validating that a configured hash
    family spreads their real key population evenly.  The expected value for
    a uniform hash is approximately ``buckets - 1``.
    """
    counts = np.zeros(buckets, dtype=np.int64)
    total = 0
    for sample in samples:
        counts[sample % buckets] += 1
        total += 1
    if total == 0:
        raise ValueError("no samples supplied")
    expected = total / buckets
    return float(((counts - expected) ** 2 / expected).sum())
