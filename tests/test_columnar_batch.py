"""Byte-equivalence suite for the columnar batch datapath.

The columnar datapath replaces per-report Python objects with one array
batch per layer: key folding (``fold_keys``), addressing
(``resolve_folded``), wire encoding (``DartSwitch.encode_batch``), fabric
transport (``send_batch``), NIC validation (``ingest_batch``) and region
landing (``write_offset_columnar``).  Every test here pins the contract
that makes that safe: *identical wire bytes and identical store state* to
the scalar reference path -- including PSN register evolution, drop
taxonomy and overwrite accounting, and including under impairment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import COLLECTOR_FUNCTION_INDEX, DartAddressing
from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.collector.store import DartStore
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.hashing.checksum import CHECKSUM_FUNCTION_INDEX
from repro.hashing.crc import CRC32
from repro.hashing.hash_family import _fixed_width_bytes, fold_key, fold_keys
from repro.mem.region import MemoryRegion, RegionAccessError
from repro.rdma.frames import FrameBatch, icrc_rows, write_be64, write_le32
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import Bth, Opcode, Reth, RoceV2Packet
from repro.rdma.qp import PsnPolicy, QueuePair
from repro.switch.dart_switch import DartSwitch


def small_config(**overrides):
    defaults = dict(slots_per_collector=1 << 10, num_collectors=3, seed=3)
    defaults.update(overrides)
    return DartConfig(**defaults)


def make_items(count, width=7):
    """Flow-tuple keyed items with varied value lengths (including empty)."""
    items = []
    for i in range(count):
        key = (f"10.0.{i >> 8 & 255}.{i & 255}", "10.9.9.9", 5000 + i, 80, 6)
        value = (b"val-%d!" % i)[: i % (width + 1)]
        items.append((key, value))
    return items


def make_int_5tuple_items(count):
    """All-int ``(src_ip, dst_ip, src_port, dst_port, proto)`` keyed items.

    Every element is a plain ``int`` below 2**64, so these keys reach the
    fixed-width (numpy) encoder of ``fold_keys``; some rows sit at the top
    of the 64-bit range to exercise the big-endian layout's high bytes.
    """
    top = 2**64 - 1
    items = []
    for i in range(count):
        if i % 4 == 3:
            key = (top - i, top - 2 * i, top, 65535 - i, 17)
        else:
            key = (0x0A000000 + i, 0x0A090909, 5000 + i, 80, 6)
        items.append((key, b"val-%d!" % i))
    return items


def region_snapshots(store):
    return [collector.region.snapshot() for collector in store.cluster]


def nic_counter_views(store):
    return [collector.nic.counters for collector in store.cluster]


def frame_accounting(counters):
    """Fabric counters minus ``flushes``: the per-frame conservation fields.

    Flush *cadence* legitimately differs between the paths -- a columnar
    enqueue crosses a buffered threshold once per batch where the scalar
    path crosses it once per frame -- but every per-frame series
    (offered/delivered/executed/rejected/lost/duplicated/reordered) must
    be identical.
    """
    return {
        name: getattr(counters, name)
        for name, _metric in counters.FIELDS
        if name != "flushes"
    }


class TestVectorisedPrimitives:
    def test_hash_folded_array_matches_scalar(self):
        config = small_config()
        family = config.hash_family()
        keys = [("flow", i, "x" * (i % 5)) for i in range(64)]
        folded = fold_keys(keys)
        assert folded.dtype == np.uint64
        for index in (0, 1, 5, COLLECTOR_FUNCTION_INDEX, CHECKSUM_FUNCTION_INDEX):
            vector = family.hash_folded_array(folded, index)
            scalar = [family.hash_folded(fold_key(key), index) for key in keys]
            assert vector.tolist() == scalar

    def test_resolve_folded_matches_scalar_resolve(self):
        config = small_config(redundancy=3)
        addressing = DartAddressing(config)
        keys = [("flow", i) for i in range(128)]
        collectors, checksums, slots = addressing.resolve_folded(
            fold_keys(keys)
        )
        assert slots.shape == (3, len(keys))
        for position, key in enumerate(keys):
            resolved = addressing.resolve(key)
            assert int(collectors[position]) == resolved.collector_id
            assert int(checksums[position]) == resolved.checksum
            assert (
                tuple(int(slots[n, position]) for n in range(3))
                == resolved.slot_indexes
            )

    def test_crc_compute_rows_matches_scalar(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 256, size=(40, 91), dtype=np.uint8)
        vector = CRC32.compute_rows(rows)
        for position in range(len(rows)):
            assert int(vector[position]) == CRC32.compute(
                rows[position].tobytes()
            )

    def test_icrc_rows_matches_scalar_packed_trailers(self):
        """Row-vectorised iCRC equals the trailer the scalar packer wrote."""
        config = small_config(num_collectors=2)
        store = DartStore(config, packet_level=True, fabric=InlineFabric())
        frames = [
            frame
            for key, value in make_items(16)
            for _cid, frame in store._switch.report(key, value)
        ]
        matrix = np.frombuffer(b"".join(frames), dtype=np.uint8).reshape(
            len(frames), -1
        )
        computed = icrc_rows(matrix)
        trailers = np.ascontiguousarray(matrix[:, -4:]).view("<u4").ravel()
        assert np.array_equal(computed, trailers)


class TestReportBatch:
    def test_payload_rows_match_scalar_codec(self):
        config = small_config()
        addressing = DartAddressing(config)
        codec = config.slot_codec()
        items = make_items(50)
        batch = ReportBatch.from_items(addressing, items)
        assert batch.count == len(items)
        for position, (key, value) in enumerate(items):
            expected = codec.encode(addressing.checksum_of(key), value)
            assert batch.payloads[position].tobytes() == expected

    def test_oversized_value_raises_like_scalar_codec(self):
        config = small_config()
        addressing = DartAddressing(config)
        oversized = b"x" * (config.layout.value_bytes + 1)
        with pytest.raises(ValueError) as batch_error:
            ReportBatch.from_items(addressing, [(("flow", 1), oversized)])
        with pytest.raises(ValueError) as codec_error:
            config.slot_codec().encode(0, oversized)
        assert str(batch_error.value) == str(codec_error.value)

    def test_empty_batch(self):
        batch = ReportBatch.from_items(
            DartAddressing(small_config()), []
        )
        assert batch.count == 0
        assert batch.payloads.shape[0] == 0


class TestEncodeBatchWireEquality:
    def test_frames_and_psn_registers_identical_to_scalar(self):
        """Every columnar frame is byte-for-byte the scalar frame, in the
        scalar emission order, and PSN registers advance identically."""
        config = small_config(num_collectors=3, redundancy=2)
        scalar = DartStore(config, packet_level=True, fabric=InlineFabric())
        columnar = DartStore(config, packet_level=True, fabric=InlineFabric())
        items = make_items(120)

        expected = []
        for key, value in items:
            expected.extend(scalar._switch.report(key, value))

        switch = columnar._switch
        batch = switch.encode_batch(
            ReportBatch.from_items(switch.addressing, items)
        )
        try:
            assert batch.count == len(expected)
            for position, (collector_id, frame) in enumerate(expected):
                assert int(batch.endpoint_ids[position]) == collector_id
                assert batch.frame_bytes(position) == frame, (
                    f"frame {position} diverges from the scalar encoding"
                )
            for role in range(config.num_collectors):
                assert switch.psn_registers.read(role) == (
                    scalar._switch.psn_registers.read(role)
                )
        finally:
            batch.release()

    def test_missing_collector_entry_raises_like_scalar(self):
        config = small_config(num_collectors=2)
        fabric = InlineFabric()
        switch = DartSwitch(config, switch_id=0, fabric=fabric)
        scalar_switch = DartSwitch(config, switch_id=0, fabric=InlineFabric())
        # Find a key addressed to the (unprovisioned) collector 1.
        addressing = switch.addressing
        key = next(
            ("flow", i)
            for i in range(1000)
            if addressing.collector_of(("flow", i)) == 1
        )
        with pytest.raises(LookupError) as batch_error:
            switch.report_batch_into([(key, b"v")])
        with pytest.raises(LookupError) as scalar_error:
            scalar_switch.report(key, b"v")
        assert str(batch_error.value) == str(scalar_error.value)
        assert switch.counters.c_drops_no_entry.value == 1


FABRIC_FACTORIES = [
    ("inline", lambda: InlineFabric()),
    ("buffered_17", lambda: BufferedFabric(flush_threshold=17)),
    ("buffered_manual", lambda: BufferedFabric(flush_threshold=None)),
    ("impaired_loss", lambda: ImpairedFabric(InlineFabric(), loss=0.1, seed=11)),
    (
        "impaired_all_inline",
        lambda: ImpairedFabric(
            InlineFabric(),
            loss=0.05,
            duplication=0.08,
            reordering=0.15,
            seed=23,
        ),
    ),
    (
        "impaired_all_buffered",
        lambda: ImpairedFabric(
            BufferedFabric(flush_threshold=13),
            loss=0.05,
            duplication=0.08,
            reordering=0.15,
            seed=23,
        ),
    ),
]


class TestStoreStateEquivalence:
    @pytest.mark.parametrize(
        "factory", [f for _name, f in FABRIC_FACTORIES],
        ids=[name for name, _f in FABRIC_FACTORIES],
    )
    def test_columnar_store_matches_scalar_store(self, factory):
        """Same workload, same fabric (same seeds): scalar and columnar
        stores end with identical region bytes, NIC counters and fabric
        counters -- impairments draw the identical RNG sequence."""
        config = small_config(num_collectors=3, slots_per_collector=512)
        items = make_items(150)

        scalar = DartStore(config, packet_level=True, fabric=factory())
        columnar = DartStore(
            config, packet_level=True, fabric=factory(), columnar=True
        )
        offered_scalar = scalar.put_many(items)
        offered_columnar = columnar.put_many(items)
        scalar.fabric.flush()
        columnar.fabric.flush()

        assert offered_scalar == offered_columnar
        assert region_snapshots(scalar) == region_snapshots(columnar)
        for left, right in zip(
            nic_counter_views(scalar), nic_counter_views(columnar)
        ):
            assert left == right
        assert frame_accounting(scalar.fabric.counters) == frame_accounting(
            columnar.fabric.counters
        )
        if isinstance(scalar.fabric, ImpairedFabric):
            assert frame_accounting(
                scalar.fabric.delivered
            ) == frame_accounting(columnar.fabric.delivered)

    @pytest.mark.parametrize(
        "factory", [f for _name, f in FABRIC_FACTORIES],
        ids=[name for name, _f in FABRIC_FACTORIES],
    )
    def test_int_5tuple_columnar_store_matches_scalar_store(self, factory):
        """All-int 5-tuples take the numpy key encoder on the columnar
        path and the scalar fold on the packet path; both must land the
        same region bytes, NIC counters and frame accounting."""
        config = small_config(num_collectors=3, slots_per_collector=512)
        items = make_int_5tuple_items(150)
        assert _fixed_width_bytes([key for key, _value in items]) is not None

        scalar = DartStore(config, packet_level=True, fabric=factory())
        columnar = DartStore(
            config, packet_level=True, fabric=factory(), columnar=True
        )
        assert scalar.put_many(items) == columnar.put_many(items)
        scalar.fabric.flush()
        columnar.fabric.flush()

        assert region_snapshots(scalar) == region_snapshots(columnar)
        assert nic_counter_views(scalar) == nic_counter_views(columnar)
        assert frame_accounting(scalar.fabric.counters) == frame_accounting(
            columnar.fabric.counters
        )
        if isinstance(scalar.fabric, ImpairedFabric):
            assert frame_accounting(
                scalar.fabric.delivered
            ) == frame_accounting(columnar.fabric.delivered)

    def test_columnar_store_queries_answer(self):
        config = small_config()
        store = DartStore(
            config, packet_level=True, fabric=InlineFabric(), columnar=True
        )
        items = make_items(60)
        store.put_many(items)
        hits = sum(
            1
            for key, value in items
            if (store.get_value(key) or b"").startswith(value)
        )
        # Collisions can cost a few keys; the vast majority must answer.
        assert hits >= 55

    def test_columnar_requires_packet_level(self):
        with pytest.raises(ValueError, match="packet_level=True"):
            DartStore(small_config(), columnar=True)


class TestNicBatchValidationParity:
    def _encode_batch(self, store, items):
        switch = store._switch
        return switch.encode_batch(
            ReportBatch.from_items(switch.addressing, items)
        )

    def test_drop_taxonomy_matches_scalar_ingest(self):
        """Corrupted iCRC, unknown QP, stale PSN and out-of-bounds VA all
        land in the same NIC drop counters on both ingest paths."""
        config = small_config(num_collectors=1, slots_per_collector=256)
        items = make_items(24)
        scalar = DartStore(config, packet_level=True, fabric=InlineFabric())
        columnar = DartStore(config, packet_level=True, fabric=InlineFabric())

        batch = self._encode_batch(columnar, items)
        frames = batch.frames
        width = batch.width
        # Out-of-bounds virtual address on row 3 (region ends well below).
        write_be64(
            frames[3:4], 54, np.array([1 << 40], dtype=np.uint64)
        )
        # Unknown destination QP on row 5.
        frames[5, 47:50] = (0xAB, 0xCD, 0xEF)
        # Re-seal every frame, then corrupt row 1's payload *after* sealing
        # so its iCRC check fails.
        write_le32(frames, width - 4, icrc_rows(frames))
        frames[1, 70] ^= 0xFF
        # Stale PSN: replay row 0 at the end (same PSN a second time).
        order = np.concatenate(
            [np.arange(batch.count, dtype=np.int64), np.array([0])]
        )
        replay = batch.select(order)
        batch.release()

        raw = [replay.frame_bytes(i) for i in range(replay.count)]
        executed_scalar = scalar.cluster[0].nic.ingest_many(raw)
        executed_columnar = columnar.cluster[0].nic.ingest_batch(replay)
        replay.release()

        assert executed_scalar == executed_columnar
        left = scalar.cluster[0].nic.counters
        right = columnar.cluster[0].nic.counters
        assert left == right
        assert right.dropped_decode >= 1  # iCRC corruption
        assert right.dropped_unknown_qp >= 1
        assert right.dropped_psn >= 1  # the replayed frame
        assert right.dropped_access >= 1  # out-of-bounds VA
        assert (
            scalar.cluster[0].region.snapshot()
            == columnar.cluster[0].region.snapshot()
        )


def write_frames(writes, rkey=0x42, dest_qp=0x11):
    """Scalar-packed RC WRITE ONLY frames, one per ``(va, payload)``."""
    return [
        RoceV2Packet(
            bth=Bth(
                opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=dest_qp, psn=psn
            ),
            reth=Reth(virtual_address=va, rkey=rkey, dma_length=len(payload)),
            payload=payload,
        ).pack()
        for psn, (va, payload) in enumerate(writes)
    ]


def ingest_both_ways(frames, size, base=0x10000):
    """Feed ``frames`` to one NIC per frame and to another as one batch.

    Returns ``(scalar, columnar)`` NICs; both own a fresh region of
    ``size`` bytes at ``base`` and a PSN-ignoring QP, so every well-formed
    in-bounds WRITE executes.
    """
    nics = []
    for _ in range(2):
        nic = RdmaNic(MemoryRegion(size=size, base_address=base, rkey=0x42))
        nic.create_queue_pair(QueuePair(qp_number=0x11, policy=PsnPolicy.IGNORE))
        nics.append(nic)
    scalar, columnar = nics
    executed_scalar = scalar.ingest_many(frames)
    matrix = np.frombuffer(b"".join(frames), dtype=np.uint8).reshape(
        len(frames), -1
    )
    batch = FrameBatch(matrix.copy(), np.zeros(len(frames), dtype=np.int64))
    assert columnar.ingest_batch(batch) == executed_scalar
    return scalar, columnar


def assert_same_outcome(scalar, columnar):
    assert scalar.counters == columnar.counters
    assert scalar.region.snapshot() == columnar.region.snapshot()
    assert scalar.region.write_count == columnar.region.write_count
    assert (
        scalar.region.c_slot_overwrites.value
        == columnar.region.c_slot_overwrites.value
    )


class TestNicBatchWriteAlignment:
    """WRITEs whose ranges overlap without being equal keep arrival order."""

    def test_overlapping_unequal_writes_land_in_arrival_order(self):
        base = 0x10000
        first, second = b"A" * 24, b"B" * 24
        frames = write_frames([(base + 24, first), (base + 12, second)])
        scalar, columnar = ingest_both_ways(frames, size=96, base=base)
        assert_same_outcome(scalar, columnar)
        image = columnar.region.snapshot()
        assert image[12:36] == second  # bytes 24-35: the later write wins
        assert image[36:48] == first[12:]
        assert columnar.counters.writes_executed == 2

    def test_aligned_batch_keeps_the_columnar_path(self, monkeypatch):
        base = 0x10000
        frames = write_frames(
            [(base + 48, b"x" * 24), (base, b"y" * 24), (base + 48, b"z" * 24)]
        )
        calls = []
        original = MemoryRegion.write_offset_columnar

        def spy(region, offsets, payloads):
            calls.append(offsets.tolist())
            return original(region, offsets, payloads)

        monkeypatch.setattr(MemoryRegion, "write_offset_columnar", spy)
        scalar, columnar = ingest_both_ways(frames, size=96, base=base)
        assert calls == [[48, 0, 48]]
        assert_same_outcome(scalar, columnar)
        assert columnar.region.snapshot()[48:72] == b"z" * 24

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from([8, 12, 24]),
        writes=st.lists(
            st.tuples(
                st.sampled_from(["aligned", "unaligned", "repeat"]),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_random_in_bounds_writes_match_scalar_ingest(self, width, writes):
        """Aligned, unaligned and repeated VAs: same bytes, same counters."""
        base, slots = 0x10000, 8
        size = slots * width
        vas = []
        payloads = []
        for kind, draw, fill in writes:
            if kind == "aligned" or (kind == "repeat" and not vas):
                va = base + width * (draw % slots)
            elif kind == "unaligned":
                va = base + draw % (size - width + 1)
            else:
                va = vas[draw % len(vas)]
            vas.append(va)
            # Zero fills leave a slot dead, for the overwrite accounting.
            payloads.append(bytes([fill]) * width if fill % 5 else bytes(width))
        frames = write_frames(list(zip(vas, payloads)))
        scalar, columnar = ingest_both_ways(frames, size=size, base=base)
        assert_same_outcome(scalar, columnar)


class TestRegionColumnarWrites:
    def _paired_regions(self, size=1024):
        return MemoryRegion(size), MemoryRegion(size)

    def test_matches_sequential_writes_with_duplicates(self):
        """Duplicate offsets resolve last-wins with identical overwrite
        accounting to applying the writes one at a time, in order."""
        rng = np.random.default_rng(9)
        width = 16
        slots = np.arange(0, 1024, width)
        offsets = rng.choice(slots, size=60, replace=True).astype(np.int64)
        payloads = rng.integers(0, 256, size=(60, width), dtype=np.uint8)
        # Some all-zero payloads so overwrite accounting sees dead slots.
        payloads[::7] = 0

        sequential, columnar = self._paired_regions()
        for offset, payload in zip(offsets, payloads):
            sequential.write_offset(int(offset), payload.tobytes())
        written = columnar.write_offset_columnar(offsets, payloads)

        assert written == len(offsets)
        assert sequential.snapshot() == columnar.snapshot()
        assert sequential.write_count == columnar.write_count
        assert (
            sequential.c_bytes_written.value == columnar.c_bytes_written.value
        )
        assert (
            sequential.c_slot_overwrites.value
            == columnar.c_slot_overwrites.value
        )

    def test_out_of_bounds_batch_applies_nothing(self):
        region = MemoryRegion(256)
        offsets = np.array([0, 16, 255], dtype=np.int64)  # last row spills
        payloads = np.full((3, 16), 0x5A, dtype=np.uint8)
        with pytest.raises(RegionAccessError, match="outside region"):
            region.write_offset_columnar(offsets, payloads)
        assert region.snapshot() == bytes(256)
        assert region.write_count == 0

    def test_empty_batch_is_a_no_op(self):
        region = MemoryRegion(64)
        assert region.write_offset_columnar(
            np.empty(0, dtype=np.int64), np.empty((0, 8), dtype=np.uint8)
        ) == 0
        assert region.write_count == 0

    def test_unaligned_offset_raises_before_any_byte_lands(self):
        region = MemoryRegion(256)
        offsets = np.array([0, 32, 40], dtype=np.int64)  # 40 is not 16-aligned
        payloads = np.full((3, 16), 0x5A, dtype=np.uint8)
        with pytest.raises(ValueError, match="not aligned"):
            region.write_offset_columnar(offsets, payloads)
        assert region.snapshot() == bytes(256)
        assert region.write_count == 0
        assert region.c_slot_overwrites.value == 0

    def test_zero_width_is_rejected(self):
        region = MemoryRegion(64)
        with pytest.raises(ValueError, match="non-empty"):
            region.write_offset_columnar(
                np.array([0], dtype=np.int64), np.empty((1, 0), dtype=np.uint8)
            )
        assert region.write_count == 0

    def test_overwrites_exact_for_repeats_and_live_slots(self):
        """Slot 0 live before the batch, slot 1 written three times in it
        (one all-zero write between two live ones), slot 2 fresh."""
        width = 8
        sequential, columnar = self._paired_regions(size=64)
        for region in (sequential, columnar):
            region.write_offset(0, b"\x01" * width)
        offsets = np.array([8, 0, 8, 16, 8], dtype=np.int64)
        payloads = np.array(
            [[2] * width, [3] * width, [0] * width, [4] * width, [5] * width],
            dtype=np.uint8,
        )
        for offset, payload in zip(offsets, payloads):
            sequential.write_offset(int(offset), payload.tobytes())
        columnar.write_offset_columnar(offsets, payloads)
        # Slot 0 was live before the batch (1); slot 1's second write
        # replaces live bytes (1), its third lands on the zeroed slot (0);
        # slot 2 is fresh (0).
        assert columnar.c_slot_overwrites.value == 2
        assert (
            sequential.c_slot_overwrites.value
            == columnar.c_slot_overwrites.value
        )
        assert sequential.snapshot() == columnar.snapshot()
        assert columnar.snapshot()[8:16] == bytes([5]) * width
