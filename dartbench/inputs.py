"""Seeded input generation for every workload.

Everything a workload feeds the system is generated here, from the seed
alone and before any timing starts: the same seed gives byte-identical
inputs, a different seed gives different ones.  The timed loop then only
indexes into these arrays (cycling when a run outlasts them), so the
program under test never sees the random generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Reports per ``put_many`` batch on ``ingest_5tuple``.
INGEST_BATCH = 4096
#: Distinct pre-generated batches the ingest loop cycles through.  Large
#: enough that one cycle (~5 s on a 2-core VM) defeats any small key
#: cache; small enough that the correctness replay stays a few seconds.
INGEST_POOL = 64
#: Batches written during set-up so timing starts on warm regions/pools.
INGEST_WARMUP = 2
VALUE_BYTES = 20

#: ``query_fanout``: preloaded keys and keys per query (alpha = 4096/2^16).
FANOUT_KEYS = 4096
FANOUT_QUERY_KEYS = 48
#: Pre-generated query key sets (cycled if a run serves more).
FANOUT_QUERIES = 32768

#: ``mixed_lossy`` geometry.
MIXED_HOT_KEYS = 512
MIXED_DASHBOARDS = 64
MIXED_DASHBOARD_KEYS = 16
MIXED_ROUND_KEYS = 32
MIXED_ROUND_SERVES = 8
MIXED_ROUNDS = 16384
#: Zipf exponent of dashboard popularity (rank r drawn with weight r^-s);
#: with the 256-tick cache TTL (4 rounds) about 0.68 of serves hit.
MIXED_ZIPF = 1.5
#: The four dashboard query texts (dashboard d uses text d % 4).
MIXED_TEXTS = (
    "select value from keys policy plurality",
    "select est from counters",
    "select max(est) from counters",
    # ``answered`` compares as 0/1; a bareword ``true`` is a string literal.
    "select count(*) from keys where answered == 1",
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _distinct_rows(rng: np.random.Generator, rows: int, width: int, high: int):
    """``rows`` index rows of ``width`` distinct values in ``[0, high)``."""
    out = rng.integers(0, high, size=(rows, width))
    while True:
        ordered = np.sort(out, axis=1)
        bad = np.flatnonzero((np.diff(ordered, axis=1) == 0).any(axis=1))
        if not len(bad):
            return out.astype(np.int32)
        out[bad] = rng.integers(0, high, size=(len(bad), width))


@dataclass
class IngestInputs:
    """IPv4 5-tuples ``(src_ip, dst_ip, src_port, dst_port, proto)`` as ints."""

    columns: np.ndarray  # (batches, INGEST_BATCH, 5) uint32
    values: np.ndarray  # (batches, INGEST_BATCH, VALUE_BYTES) uint8

    @property
    def batches(self) -> int:
        return len(self.columns)

    def items(self, index: int) -> List[Tuple[tuple, bytes]]:
        """Batch ``index`` as the ``(key, value)`` list ``put_many`` takes."""
        keys = list(map(tuple, self.columns[index].tolist()))
        raw = self.values[index].tobytes()
        return [
            (key, raw[row * VALUE_BYTES : (row + 1) * VALUE_BYTES])
            for row, key in enumerate(keys)
        ]


def ingest_inputs(seed: int) -> IngestInputs:
    """Warm-up batches first, then the timed pool."""
    rng = _rng(seed, 1)
    batches = INGEST_WARMUP + INGEST_POOL
    shape = (batches, INGEST_BATCH)
    columns = np.stack(
        [
            rng.integers(0, 1 << 32, size=shape, dtype=np.uint64),
            rng.integers(0, 1 << 32, size=shape, dtype=np.uint64),
            rng.integers(1024, 1 << 16, size=shape, dtype=np.uint64),
            rng.choice(np.array([53, 80, 443, 4791, 8080], dtype=np.uint64), size=shape),
            rng.choice(np.array([6, 17], dtype=np.uint64), size=shape),
        ],
        axis=2,
    )
    values = rng.integers(0, 256, size=shape + (VALUE_BYTES,), dtype=np.uint8)
    return IngestInputs(columns=columns, values=values)


@dataclass
class FanoutInputs:
    keys: List[str]
    values: List[bytes]
    queries: np.ndarray  # (FANOUT_QUERIES, FANOUT_QUERY_KEYS) key indexes


def fanout_inputs(seed: int) -> FanoutInputs:
    rng = _rng(seed, 2)
    raw = rng.integers(0, 256, size=FANOUT_KEYS * VALUE_BYTES, dtype=np.uint8).tobytes()
    return FanoutInputs(
        keys=[f"flow-{index}" for index in range(FANOUT_KEYS)],
        values=[
            raw[i * VALUE_BYTES : (i + 1) * VALUE_BYTES] for i in range(FANOUT_KEYS)
        ],
        queries=_distinct_rows(rng, FANOUT_QUERIES, FANOUT_QUERY_KEYS, FANOUT_KEYS),
    )


@dataclass
class MixedInputs:
    hot_keys: List[str]
    #: Per dashboard: (text index, key indexes into ``hot_keys``).
    dashboards: List[Tuple[int, List[int]]]
    round_keys: np.ndarray  # (MIXED_ROUNDS, MIXED_ROUND_KEYS)
    round_values: np.ndarray  # (MIXED_ROUNDS, MIXED_ROUND_KEYS, VALUE_BYTES)
    round_amounts: np.ndarray  # (MIXED_ROUNDS, MIXED_ROUND_KEYS)
    round_dashboards: np.ndarray  # (MIXED_ROUNDS, MIXED_ROUND_SERVES)
    preload_values: np.ndarray  # (MIXED_HOT_KEYS, VALUE_BYTES)
    #: Loss-RNG seeds of the keys-plane and store-plane fabrics.
    fabric_seeds: List[int]


def _hot_key(rng: np.random.Generator) -> str:
    """One variable-length string key (lengths ~14 to ~40 bytes)."""
    site, rack, port = rng.integers(0, 1000, size=3).tolist()
    digits = int(rng.integers(1, 12))
    flow = int(rng.integers(0, 10**digits))
    tag = "x" * int(rng.integers(0, 16))
    return f"sw{site}/r{rack}/p{port}/f{flow}{tag}"


def mixed_inputs(seed: int) -> MixedInputs:
    rng = _rng(seed, 3)
    hot: List[str] = []
    seen = set()
    while len(hot) < MIXED_HOT_KEYS:
        key = _hot_key(rng)
        if key not in seen:
            seen.add(key)
            hot.append(key)
    dashboard_keys = _distinct_rows(
        rng, MIXED_DASHBOARDS, MIXED_DASHBOARD_KEYS, MIXED_HOT_KEYS
    )
    dashboards = [
        (index % len(MIXED_TEXTS), dashboard_keys[index].tolist())
        for index in range(MIXED_DASHBOARDS)
    ]
    # Popularity rank is a seeded permutation, so each text has hot and
    # cold dashboards.
    ranks = rng.permutation(MIXED_DASHBOARDS)
    weights = 1.0 / (ranks + 1.0) ** MIXED_ZIPF
    return MixedInputs(
        hot_keys=hot,
        dashboards=dashboards,
        round_keys=_distinct_rows(
            rng, MIXED_ROUNDS, MIXED_ROUND_KEYS, MIXED_HOT_KEYS
        ),
        round_values=rng.integers(
            0, 256, size=(MIXED_ROUNDS, MIXED_ROUND_KEYS, VALUE_BYTES), dtype=np.uint8
        ),
        round_amounts=rng.integers(1, 9, size=(MIXED_ROUNDS, MIXED_ROUND_KEYS)),
        round_dashboards=rng.choice(
            MIXED_DASHBOARDS,
            size=(MIXED_ROUNDS, MIXED_ROUND_SERVES),
            p=weights / weights.sum(),
        ).astype(np.int32),
        preload_values=rng.integers(
            0, 256, size=(MIXED_HOT_KEYS, VALUE_BYTES), dtype=np.uint8
        ),
        fabric_seeds=rng.integers(0, 1 << 31, size=2).tolist(),
    )


GENERATORS = {
    "ingest_5tuple": ingest_inputs,
    "query_fanout": fanout_inputs,
    "mixed_lossy": mixed_inputs,
}
