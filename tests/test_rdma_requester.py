"""Tests for the host-side reliable requester (repro.rdma.requester)."""


import pytest

from repro.mem.region import MemoryRegion
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import Bth, Opcode, Reth, RoceV2Packet
from repro.rdma.qp import PsnPolicy, QueuePair
from repro.rdma.requester import ConnectionState, ReliableRequester


def make_responder():
    """A NIC serving READs, fronted as a delivery function."""
    region = MemoryRegion(size=256, base_address=0x1000, rkey=1)
    region.dma_write(0x1000, bytes(range(64)))
    nic = RdmaNic(region)
    nic.create_queue_pair(QueuePair(qp_number=7, policy=PsnPolicy.IGNORE))

    def deliver(frame: bytes):
        nic.receive_frame(frame)
        return nic.transmit()

    return nic, deliver


def read_request(va=0x1000, length=8):
    return RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=7),
        reth=Reth(virtual_address=va, rkey=1, dma_length=length),
    )


class LossyDelivery:
    """Wraps a delivery function, dropping the first ``drop_first`` frames."""

    def __init__(self, inner, drop_first=0, drop_every=0, seed=0):
        self.inner = inner
        self.drop_first = drop_first
        self.drop_every = drop_every
        self.sent = 0

    def __call__(self, frame):
        self.sent += 1
        if self.sent <= self.drop_first:
            return []
        if self.drop_every and self.sent % self.drop_every == 0:
            return []
        return self.inner(frame)


class TestHappyPath:
    def test_post_and_complete(self):
        _, deliver = make_responder()
        requester = ReliableRequester(deliver)
        psn = requester.post(read_request(va=0x1008, length=4))
        assert requester.is_complete(psn)
        assert requester.response_of(psn) == bytes([8, 9, 10, 11])
        assert requester.outstanding == 0
        assert requester.stats.acked == 1

    def test_psns_consecutive(self):
        _, deliver = make_responder()
        requester = ReliableRequester(deliver, initial_psn=10)
        psns = [requester.post(read_request()) for _ in range(5)]
        assert psns == [10, 11, 12, 13, 14]


class TestLossRecovery:
    def test_retransmit_recovers_lost_request(self):
        _, inner = make_responder()
        lossy = LossyDelivery(inner, drop_first=1)
        requester = ReliableRequester(lossy, timeout_ticks=2)
        psn = requester.post(read_request())
        assert not requester.is_complete(psn)
        requester.tick(2)  # timeout fires, retransmission succeeds
        assert requester.is_complete(psn)
        assert requester.stats.retransmitted == 1

    def test_retry_budget_exhaustion_errors_connection(self):
        requester = ReliableRequester(
            lambda frame: [], timeout_ticks=1, max_retries=2
        )
        requester.post(read_request())
        requester.tick(10)
        assert requester.state is ConnectionState.ERROR
        assert requester.stats.timeouts == 1
        with pytest.raises(RuntimeError):
            requester.post(read_request())

    def test_sustained_random_loss_eventually_completes(self):
        _, inner = make_responder()
        lossy = LossyDelivery(inner, drop_every=3)  # every 3rd frame lost
        requester = ReliableRequester(lossy, timeout_ticks=1, max_retries=10)
        psns = [requester.post(read_request()) for _ in range(20)]
        for _ in range(40):
            if requester.outstanding == 0:
                break
            requester.tick()
        assert requester.state is ConnectionState.READY
        assert all(requester.is_complete(psn) for psn in psns)

    def test_duplicate_ack_ignored(self):
        _, inner = make_responder()
        captured = []

        def deliver(frame):
            responses = inner(frame)
            captured.extend(responses)
            return responses + responses  # duplicate every response

        requester = ReliableRequester(deliver)
        psn = requester.post(read_request())
        assert requester.is_complete(psn)
        assert requester.stats.acked == 1  # duplicate did not double-count

    def test_corrupt_response_ignored_then_recovered(self):
        _, inner = make_responder()

        def deliver(frame):
            responses = inner(frame)
            return [response[:-2] for response in responses]  # truncate

        requester = ReliableRequester(deliver, timeout_ticks=1, max_retries=5)
        psn = requester.post(read_request())
        assert not requester.is_complete(psn)
        # Recovery needs an uncorrupted path; swap it in and retransmit.
        requester._deliver = inner
        requester.tick(2)
        assert requester.is_complete(psn)


class TestResponseDecodeDrops:
    def test_truncated_response_counted_then_retried_on_timeout(self):
        _, inner = make_responder()
        truncated = []

        def deliver(frame):
            responses = inner(frame)
            if not truncated:  # only the first round trip is corrupted
                truncated.append(True)
                return [response[:20] for response in responses]
            return responses

        requester = ReliableRequester(deliver, timeout_ticks=2, max_retries=3)
        psn = requester.post(read_request(va=0x1010, length=4))
        assert not requester.is_complete(psn)
        assert requester.stats.dropped_decode == 1
        assert requester.stats.acked == 0
        requester.tick(2)  # timeout fires; the retransmission is answered
        assert requester.is_complete(psn)
        assert requester.response_of(psn) == bytes([16, 17, 18, 19])
        assert requester.stats.retransmitted == 1
        assert requester.stats.dropped_decode == 1

    def test_non_decode_errors_propagate(self):
        """Only malformed frames are dropped; a bug surfaces."""
        requester = ReliableRequester(lambda frame: [None])
        with pytest.raises(TypeError):
            requester.post(read_request())
        assert requester.stats.dropped_decode == 0


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ReliableRequester(lambda f: [], timeout_ticks=0)
        with pytest.raises(ValueError):
            ReliableRequester(lambda f: [], max_retries=-1)

    def test_tick_validation(self):
        requester = ReliableRequester(lambda f: [])
        with pytest.raises(ValueError):
            requester.tick(-1)

    def test_unknown_psn_queries(self):
        requester = ReliableRequester(lambda f: [])
        assert not requester.is_complete(99)
        assert requester.response_of(99) is None
