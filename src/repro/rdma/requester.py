"""Requester-side reliable connection: send queue, ACKs, retransmission.

DART's *switches* deliberately run open-loop -- they keep no retransmit
state and let slot redundancy absorb loss (paper sections 1 and 3).  Host
software talking to collectors (operator query stations, the control
plane, epoch archivers) has no such constraint: it runs a normal reliable
RC requester.  This module models that side of the protocol:

- work requests are queued, stamped with consecutive PSNs and transmitted
  through a caller-supplied (lossy) delivery function;
- responder ACKs / READ responses retire requests cumulatively by PSN;
- requests older than a timeout are retransmitted, up to a retry budget,
  after which the connection errors out (like a QP entering the error
  state after retry exhaustion).

Time is explicit (``tick()``) so tests drive loss/timeout scenarios
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.rdma.packets import PacketDecodeError, RoceV2Packet
from repro.rdma.qp import PSN_MODULUS

#: Delivers one wire frame toward the responder; returns response frames
#: that came back on this round trip (possibly none -- loss or one-way).
DeliveryFn = Callable[[bytes], List[bytes]]


class ConnectionState(Enum):
    """Requester connection lifecycle."""

    READY = "ready"
    ERROR = "error"


@dataclass
class PendingRequest:
    """One in-flight work request awaiting acknowledgement."""

    psn: int
    frame: bytes
    sent_at: int
    retries: int = 0
    #: Response payload, once retired by a READ response.
    response: Optional[bytes] = None


@dataclass
class RequesterStats:
    """Diagnostics for tests and operators."""

    sent: int = 0
    retransmitted: int = 0
    acked: int = 0
    timeouts: int = 0
    #: Responses dropped because they failed to decode (truncated,
    #: corrupt, bad iCRC); the request's timeout retransmits it.
    dropped_decode: int = 0


class ReliableRequester:
    """A minimal RC requester over an explicit delivery function.

    Parameters
    ----------
    deliver:
        Transmits a frame and returns any response frames (the test
        harness injects loss here).
    timeout_ticks:
        Ticks a request may remain unacked before retransmission.
    max_retries:
        Retransmissions per request before the connection errors out.
    initial_psn:
        First PSN stamped onto outgoing requests.
    """

    def __init__(
        self,
        deliver: DeliveryFn,
        timeout_ticks: int = 4,
        max_retries: int = 3,
        initial_psn: int = 0,
    ) -> None:
        if timeout_ticks < 1:
            raise ValueError("timeout_ticks must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._deliver = deliver
        self.timeout_ticks = timeout_ticks
        self.max_retries = max_retries
        self.next_psn = initial_psn % PSN_MODULUS
        self.state = ConnectionState.READY
        self.stats = RequesterStats()
        self.clock = 0
        self._pending: Dict[int, PendingRequest] = {}
        self._completed: Dict[int, PendingRequest] = {}

    def __repr__(self) -> str:
        return (
            f"ReliableRequester(state={self.state.value}, "
            f"pending={len(self._pending)})"
        )

    # ------------------------------------------------------------------
    # Posting work
    # ------------------------------------------------------------------

    def post(self, packet: RoceV2Packet) -> int:
        """Stamp the next PSN onto ``packet``, transmit, track; returns PSN."""
        if self.state is not ConnectionState.READY:
            raise RuntimeError("connection is in the error state")
        psn = self.next_psn
        self.next_psn = (self.next_psn + 1) % PSN_MODULUS
        packet.bth.psn = psn
        frame = packet.pack()
        request = PendingRequest(psn=psn, frame=frame, sent_at=self.clock)
        self._pending[psn] = request
        self._transmit(request)
        return psn

    def _transmit(self, request: PendingRequest) -> None:
        self.stats.sent += 1
        for response in self._deliver(request.frame):
            self._process_response(response)

    # ------------------------------------------------------------------
    # Responses and time
    # ------------------------------------------------------------------

    def _process_response(self, frame: bytes) -> None:
        try:
            packet = RoceV2Packet.unpack(frame)
        except PacketDecodeError:
            self.stats.dropped_decode += 1
            return  # the request's timeout recovers
        psn = packet.bth.psn
        request = self._pending.pop(psn, None)
        if request is None:
            return  # duplicate/stale ACK
        request.response = packet.payload
        self._completed[psn] = request
        self.stats.acked += 1

    def tick(self, ticks: int = 1) -> None:
        """Advance time; retransmit or fail requests past the timeout."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        for _ in range(ticks):
            self.clock += 1
            if self.state is not ConnectionState.READY:
                return
            for request in list(self._pending.values()):
                if self.clock - request.sent_at < self.timeout_ticks:
                    continue
                if request.retries >= self.max_retries:
                    self.state = ConnectionState.ERROR
                    self.stats.timeouts += 1
                    return
                request.retries += 1
                request.sent_at = self.clock
                self.stats.retransmitted += 1
                self._transmit(request)

    # ------------------------------------------------------------------
    # Completion interface
    # ------------------------------------------------------------------

    def is_complete(self, psn: int) -> bool:
        """Whether the request with ``psn`` has been acknowledged."""
        return psn in self._completed

    def response_of(self, psn: int) -> Optional[bytes]:
        """The READ-response payload of a completed request, if any."""
        request = self._completed.get(psn)
        return request.response if request is not None else None

    @property
    def outstanding(self) -> int:
        """Requests posted but not yet acknowledged."""
        return len(self._pending)
