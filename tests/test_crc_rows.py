"""Property tests for the row-vectorised CRC (``CrcAlgorithm.compute_rows``).

``compute_rows`` derives every row's CRC from shared per-position tables
(the CRC is affine over GF(2)) instead of running the byte loop per row.
These tests hold it to the scalar :meth:`CrcAlgorithm.compute` for every
catalogue algorithm on the shapes where such a derivation could slip:
no rows, one row, identical rows (no varying column), rows that differ in
every column, every width from 1 to 256, and random matrices.  The iCRC
wrapper ``icrc_rows`` is checked against the scalar ``compute_icrc`` on
the frame batches the datapath really seals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.collector.store import DartStore
from repro.fabric import InlineFabric
from repro.hashing import crc
from repro.hashing.crc import CrcAlgorithm
from repro.primitives.translator import PrimitiveTranslator
from repro.rdma.frames import icrc_rows
from repro.rdma.packets import RoceV2Packet, compute_icrc

#: Every algorithm the module defines (CRC-8, CRC-16, CRC-32, CRC-32C).
CATALOGUE = sorted(
    (value for value in vars(crc).values() if isinstance(value, CrcAlgorithm)),
    key=lambda algorithm: algorithm.name,
)

#: Parameterisations beyond the catalogue: a 64-bit width (``uint64``
#: results) and a mixed reflection (reflected output only).
EXTRA = [
    CrcAlgorithm(
        name="CRC-64/XZ",
        width=64,
        poly=0x42F0E1EBA9EA3693,
        init=0xFFFFFFFFFFFFFFFF,
        reflect_in=True,
        reflect_out=True,
        xor_out=0xFFFFFFFFFFFFFFFF,
        check=0x995DC9BBDF1939FA,
    ),
    CrcAlgorithm(
        name="CRC-12/UMTS",
        width=12,
        poly=0x80F,
        init=0x000,
        reflect_in=False,
        reflect_out=True,
        xor_out=0x000,
        check=0xDAF,
    ),
]

ALGORITHMS = CATALOGUE + EXTRA


def scalar_rows(algorithm, rows):
    return [algorithm.compute(row.tobytes()) for row in rows]


def test_catalogue_covers_the_module():
    assert [a.name for a in CATALOGUE] == [
        "CRC-16/CCITT-FALSE", "CRC-32", "CRC-32C", "CRC-8",
    ]
    for algorithm in ALGORITHMS:
        assert algorithm.verify(), algorithm.name


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
class TestComputeRowsMatchesCompute:
    def test_zero_rows(self, algorithm):
        for width in (0, 1, 84):
            result = algorithm.compute_rows(np.empty((0, width), np.uint8))
            assert result.shape == (0,)

    def test_one_row(self, algorithm):
        rng = np.random.default_rng(1)
        for width in (0, 1, 9, 84):
            rows = rng.integers(0, 256, (1, width), dtype=np.uint8)
            assert algorithm.compute_rows(rows).tolist() == scalar_rows(
                algorithm, rows
            )

    def test_check_vector(self, algorithm):
        rows = np.frombuffer(b"123456789", dtype=np.uint8).reshape(1, -1)
        assert algorithm.compute_rows(rows).tolist() == [algorithm.check]

    def test_identical_rows(self, algorithm):
        row = np.random.default_rng(2).integers(0, 256, 40, dtype=np.uint8)
        rows = np.tile(row, (7, 1))
        assert algorithm.compute_rows(rows).tolist() == [
            algorithm.compute(row.tobytes())
        ] * 7

    def test_every_column_differs(self, algorithm):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 256, (5, 33), dtype=np.uint8)
        rows[1] = rows[0] ^ 0xFF
        assert (rows != rows[0]).any(axis=0).all()
        assert algorithm.compute_rows(rows).tolist() == scalar_rows(
            algorithm, rows
        )

    def test_columns_varying_in_one_row_only(self, algorithm):
        """Enough rows that varying columns are found group-wise: a column
        that changes only in a grouped row, or only in a left-over one."""
        rows = np.tile(np.arange(9, dtype=np.uint8), (1000, 1))
        rows[5, 2] = 0xEE  # inside the side-by-side groups
        rows[-1, 7] = 0x11  # in the rows left over after the last group
        assert algorithm.compute_rows(rows).tolist() == scalar_rows(
            algorithm, rows
        )

    def test_widths_1_to_256(self, algorithm):
        rng = np.random.default_rng(4)
        for width in range(1, 257):
            rows = rng.integers(0, 256, (3, width), dtype=np.uint8)
            rows[1, : width // 2] = rows[0, : width // 2]
            assert algorithm.compute_rows(rows).tolist() == scalar_rows(
                algorithm, rows
            ), width

    def test_result_dtype(self, algorithm):
        rows = np.zeros((2, 4), dtype=np.uint8)
        expected = np.uint32 if algorithm.width <= 32 else np.uint64
        assert algorithm.compute_rows(rows).dtype == expected

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(min_value=0, max_value=70),
            st.integers(min_value=0, max_value=40),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        constant=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_random_matrices(self, algorithm, shape, seed, constant):
        """Random rows, with a random share of columns held constant."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 256, shape, dtype=np.uint8)
        if shape[0]:
            held = rng.random(shape[1]) < constant
            rows[:, held] = rows[0, held]
        assert algorithm.compute_rows(rows).tolist() == scalar_rows(
            algorithm, rows
        )


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError, match="2-D"):
        crc.CRC32.compute_rows(np.zeros(8, dtype=np.uint8))


def scalar_icrcs(frames):
    """``compute_icrc`` over each frame's scalar-decoded headers."""
    icrcs = []
    for row in frames:
        packet = RoceV2Packet.unpack(row.tobytes(), validate_icrc=False)
        after_bth = row.tobytes()[54:-4]
        icrcs.append(compute_icrc(packet.ipv4, packet.udp, packet.bth, after_bth))
    return icrcs


def test_icrc_rows_matches_compute_icrc_on_encode_batch():
    config = DartConfig(slots_per_collector=1 << 10, num_collectors=3, seed=3)
    store = DartStore(config, packet_level=True, fabric=InlineFabric())
    switch = store._switch
    items = [((i, 7 * i, 80, 443, 6), b"value-%d" % i) for i in range(50)]
    batch = switch.encode_batch(ReportBatch.from_items(switch.addressing, items))
    try:
        sealed = np.ascontiguousarray(batch.frames[:, -4:]).view("<u4").ravel()
        assert icrc_rows(batch.frames).tolist() == scalar_icrcs(batch.frames)
        assert sealed.tolist() == scalar_icrcs(batch.frames)
    finally:
        batch.release()


@pytest.mark.parametrize("count", [1, 8, 300])
def test_icrc_rows_matches_compute_icrc_on_fetch_add_batch(count):
    translator = PrimitiveTranslator(
        InlineFabric(), endpoint_id=0, qp_number=0x11, rkey=0x42, psn=5
    )
    rng = np.random.default_rng(count)
    addresses = 0x10000 + 8 * rng.integers(0, 1 << 12, count)
    amounts = rng.integers(0, 1 << 62, count)
    batch = translator._encode_fetch_add_batch(addresses, amounts)
    try:
        sealed = np.ascontiguousarray(batch.frames[:, -4:]).view("<u4").ravel()
        assert icrc_rows(batch.frames).tolist() == scalar_icrcs(batch.frames)
        assert sealed.tolist() == scalar_icrcs(batch.frames)
    finally:
        batch.release()
