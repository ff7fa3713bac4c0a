"""Outside-in per-layer timing: wrap each layer's public functions.

The traced run replaces the attributes listed in :data:`HOOKS` with thin
wrappers, times every call, and puts the originals back afterwards.  No
file under ``src/`` knows it is being measured.  A wrapper records one
span (layer, parent span, request, start, end).  A layer's *self time* is
its spans' durations minus the time of wrapped calls made inside them, so
the self times of all layers plus ``bench.other_s`` (request time spent
outside every wrapped call) add up exactly to the traced requests' time.

A function imported by name into another module is wrapped where it is
*bound*: ``icrc_rows`` as called from ``repro.switch.dart_switch`` seals
frames (``rdma.icrc_seal``), as called from ``repro.rdma.nic`` checks them
(``rdma.icrc_check``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: An optional argument counter: (count metric, (args, kwargs) -> units).
_Counter = Optional[Tuple[str, Callable]]

_FABRICS = (
    "repro.fabric.fabric:Fabric",
    "repro.fabric.fabric:InlineFabric",
    "repro.fabric.fabric:BufferedFabric",
    "repro.fabric.impaired:ImpairedFabric",
)


def _on_fabrics(method: str) -> Tuple[str, ...]:
    return tuple(f"{owner}.{method}" for owner in _FABRICS)


#: (layer metric, wrapped targets "module:Owner.attr", optional counter).
#: A class that only inherits the method is skipped: its base's wrapper
#: covers it.
HOOKS: Tuple[Tuple[str, Tuple[str, ...], _Counter], ...] = (
    # Write path: hashing -> core -> switch -> fabric -> rdma -> mem.
    ("hashing.fold_keys", (
        "repro.core.batch:fold_keys",
        "repro.primitives.translator:fold_keys",
    ), None),
    ("core.report_batch", ("repro.core.batch:ReportBatch.from_items",), None),
    ("core.resolve_folded", ("repro.core.addressing:DartAddressing.resolve_folded",), None),
    ("switch.encode_batch", ("repro.switch.dart_switch:DartSwitch.encode_batch",), None),
    ("rdma.icrc_seal", (
        "repro.switch.dart_switch:icrc_rows",
        "repro.primitives.translator:icrc_rows",
    ), None),
    ("fabric.send_batch", _on_fabrics("send_batch"), None),
    ("rdma.ingest_batch", ("repro.rdma.nic:RdmaNic.ingest_batch",), None),
    ("rdma.icrc_check", ("repro.rdma.nic:icrc_rows",), None),
    ("mem.write_offset_columnar", ("repro.mem.region:MemoryRegion.write_offset_columnar",), None),
    ("collector.counter_add_many", ("repro.collector.counters:CounterStore.add_many",), None),
    ("mem.dma_fetch_add_many", ("repro.mem.region:MemoryRegion.dma_fetch_add_many",), None),
    ("switch.report", ("repro.switch.dart_switch:DartSwitch.report",), None),
    ("fabric.send", _on_fabrics("send"), None),
    ("rdma.receive_frame", ("repro.rdma.nic:RdmaNic.receive_frame",), None),
    # Read path: query -> primitives -> rdma -> core.policies.
    ("rdma.pack", ("repro.rdma.packets:RoceV2Packet.pack",), None),
    ("rdma.unpack", ("repro.rdma.packets:RoceV2Packet.unpack",), None),
    ("hashing.crc_compute", ("repro.hashing.crc:CrcAlgorithm.compute",), None),
    ("core.resolve", ("repro.core.addressing:DartAddressing.resolve",), None),
    ("query.keys_rows", ("repro.query.backend:FanoutBackend.keys_rows",), None),
    ("query.counter_rows", ("repro.query.backend:FanoutBackend.counter_rows",), None),
    ("mem.slot_decode", ("repro.mem.slots:SlotCodec.decode",), None),
    ("core.policy_resolve", (
        "repro.query.backend:resolve",
        "repro.core.client:resolve",
    ), None),
    ("primitives.read_run", ("repro.primitives.clients:OneSidedReader.read_run",),
     ("primitives.reads_sent", lambda args, kwargs: len(args[1]))),
    ("primitives.demux_poll", ("repro.primitives.translator:ResponseDemux.poll",), None),
    ("fabric.send_many", _on_fabrics("send_many"), None),
    ("rdma.ingest_many", ("repro.rdma.nic:RdmaNic.ingest_many",), None),
    ("query.read_reliable", ("repro.query.backend:FanoutBackend.read_reliable",),
     ("query.reads_needed", lambda args, kwargs: len(args[2]))),
    ("query.serve", ("repro.query.service:QueryService.serve",), None),
    ("query.parse", ("repro.query.service:QueryService.parse",), None),
    ("query.plan", ("repro.query.service:plan_query",), None),
    ("query.execute_shard", ("repro.query.planner:QueryPlan.execute_shard",), None),
    ("query.merge", ("repro.query.planner:QueryPlan.merge",), None),
)

LAYERS: Tuple[str, ...] = tuple(metric for metric, _targets, _counter in HOOKS)
COUNTS: Tuple[str, ...] = tuple(c[0] for _m, _t, c in HOOKS if c is not None)


def _resolve_target(target: str):
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Wraps :data:`HOOKS`, accumulates self time per layer, keeps spans.

    :meth:`install` the wrappers for the traced phase and :meth:`restore`
    them after it; bracket each timed call with :meth:`start_request` and
    :meth:`end_request`.  Calls made outside a request pass straight
    through and are not counted.
    """

    def __init__(self) -> None:
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        #: Total duration of traced requests (the root) and its part
        #: covered by top-level wrapped calls.
        self.root_s = 0.0
        self.covered_s = 0.0
        self.requests = 0
        self._recording = False
        self._request = -1
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []
        # Spans, column-wise (kept in memory, written by dump_spans).
        self._span_layer = array("H")
        self._span_parent = array("l")
        self._span_request = array("l")
        self._span_start = array("d")
        self._span_end = array("d")

    # ------------------------------------------------------------------
    # Installing and restoring the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Replace every hooked attribute with its timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for slot, (_metric, targets, counter) in enumerate(HOOKS):
                for target in targets:
                    owner, attr = _resolve_target(target)
                    original = getattr(owner, attr)
                    if isinstance(owner, type):
                        if attr not in vars(owner):
                            continue
                        original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(original, slot, counter))
                    self._installed.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original attribute object back, last wrapped first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def installed_targets(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original object) for every live wrapper."""
        return list(self._installed)

    def _wrap(self, original, slot: int, counter: _Counter):
        if isinstance(original, (staticmethod, classmethod)):
            return type(original)(self._wrap(original.__func__, slot, counter))
        func = original
        tracer = self
        count_name, count_of = counter if counter is not None else (None, None)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return func(*args, **kwargs)
            if count_name is not None:
                tracer.counts[count_name] += count_of(args, kwargs)
            entry = tracer._open(slot)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(entry)

        return traced

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _open(self, slot: int) -> list:
        stack = self._stack
        index = len(self._span_layer)
        self._span_layer.append(slot)
        self._span_parent.append(stack[-1][3] if stack else -1)
        self._span_request.append(self._request)
        self._span_end.append(0.0)
        entry = [slot, 0.0, 0.0, index]
        stack.append(entry)
        start = perf_counter()
        entry[1] = start
        self._span_start.append(start)
        return entry

    def _close(self, entry: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        slot, start, child, index = entry
        duration = end - start
        self.self_s[slot] += duration - child
        self.calls[slot] += 1
        self._span_end[index] = end
        if stack:
            stack[-1][2] += duration
        else:
            self.covered_s += duration

    def start_request(self) -> None:
        """Open one timed request (the root of its spans)."""
        self.requests += 1
        self._request += 1
        self._recording = True
        self._request_start = perf_counter()

    def end_request(self) -> float:
        """Close the request; returns its duration in seconds."""
        duration = perf_counter() - self._request_start
        self._recording = False
        self.root_s += duration
        return duration

    @property
    def other_s(self) -> float:
        """Request time spent outside every wrapped call."""
        return self.root_s - self.covered_s

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer, plus
        argument counts, ``bench.root_s`` and ``bench.other_s``."""
        out: Dict[str, float] = {}
        for slot, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[slot]
            out[f"{layer}.calls"] = self.calls[slot]
        out.update(self.counts)
        out["bench.root_s"] = self.root_s
        out["bench.other_s"] = self.other_s
        return out

    @property
    def span_count(self) -> int:
        return len(self._span_layer)

    def dump_spans(self, path) -> None:
        """Write every span as gzipped JSON: layer names plus rows of
        ``[layer, parent span, request, start_us, duration_us]``."""
        starts = self._span_start
        t0 = starts[0] if len(starts) else 0.0
        rows = [
            [
                layer,
                parent,
                request,
                round((start - t0) * 1e6, 3),
                round((end - start) * 1e6, 3),
            ]
            for layer, parent, request, start, end in zip(
                self._span_layer,
                self._span_parent,
                self._span_request,
                starts,
                self._span_end,
            )
        ]
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"layers": list(LAYERS), "spans": rows}, handle)
