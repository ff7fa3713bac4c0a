"""The three workloads: set-up, one timed request, and the output check.

Each workload is a closed loop with one caller on one thread: the next
request starts only after the previous one returned.  The whole system
runs on one Python thread, so a second request in flight could only queue
behind the first; the loop therefore measures service time.

A *request* is the unit the caller waits for:

- ``ingest_5tuple``: one ``put_many`` of 4,096 reports;
- ``query_fanout``: one uncached ``serve`` of a 48-key lookup;
- ``mixed_lossy``: one round -- a write call (``put_many`` of 32 string
  keys, then ``count_many`` on the same keys) and 8 ``serve`` calls.

Only time inside the program's calls is counted; building each batch
from the pre-generated arrays happens between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.collector.store import DartStore
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.fabric.fabric import InlineFabric
from repro.fabric.impaired import ImpairedFabric
from repro.query import AdmissionRejected, QueryFleet, QueryService, QuotaExceeded

from dartbench import inputs as gen

#: A clock pair: ``start()`` opens a timed call, ``stop()`` returns its
#: duration in seconds.
Clock = Tuple[Callable[[], None], Callable[[], float]]

FANOUT_TEXT = "select value from keys policy plurality"
MIXED_LOSS = 0.02
MIXED_CACHE_TTL = 256
#: Quotas are not under test: one tenant with an effectively endless bucket.
UNMETERED = dict(tenant_rate=1.0, tenant_burst=1e18)


@dataclass
class Tally:
    """What the timed loop observed (the inputs to every metric)."""

    #: Per-request durations (seconds), the gated latency samples.
    request_s: List[float] = field(default_factory=list)
    #: Operations completed (reports + queries).
    ops: int = 0
    #: One write-call duration per request (write workloads only).
    write_s: List[float] = field(default_factory=list)
    reports: int = 0
    query_s: List[float] = field(default_factory=list)
    #: Index of the request each ``query_s`` entry belongs to.
    query_req: List[int] = field(default_factory=list)
    #: One calibration pass per request (see ``calibration.py``).
    cal_s: List[float] = field(default_factory=list)
    queries_failed: int = 0
    cache_hits: int = 0
    key_rows: int = 0
    key_rows_answered: int = 0
    write_frames_offered: int = 0
    #: Wire counters over the timed phase (see :func:`wire_counters`).
    wire: Dict[str, int] = field(default_factory=dict)
    #: Output kept for the correctness check (query_fanout: one list of
    #: ``(key, value, answered)`` per query).
    answers: List[object] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.reports + len(self.query_s)


def wire_counters(fabrics, nics) -> Dict[str, int]:
    """Frame totals across fabrics (senders' side) and NICs."""
    totals = dict(offered=0, dropped_loss=0, written=0, read=0, dropped=0)
    for fabric in fabrics:
        totals["offered"] += fabric.counters.frames_offered
        totals["dropped_loss"] += fabric.counters.frames_dropped_loss
    for nic in nics:
        c = nic.counters
        totals["written"] += c.writes_executed + c.atomics_executed
        totals["read"] += c.reads_executed
        totals["dropped"] += (
            c.dropped_decode + c.dropped_unknown_qp + c.dropped_psn
            + c.dropped_access + c.dropped_opcode
        )
    return totals


def _fresh_registry() -> None:
    """Each deployment registers its metrics in a registry of its own, so
    repeated set-ups do not grow one shared registry."""
    obs.set_registry(obs.MetricsRegistry(enabled=True))


class Workload:
    """Base: subclasses set ``name`` and implement the four hooks."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = gen.GENERATORS[self.name](seed)

    def setup(self):
        """Build the deployment and preload its data; returns its state."""
        raise NotImplementedError

    def step(self, state, index: int, clock: Clock, tally: Tally) -> None:
        """Issue request ``index``, timing each program call with ``clock``."""
        raise NotImplementedError

    def wire(self, state) -> Dict[str, int]:
        """The deployment's :func:`wire_counters` right now."""
        raise NotImplementedError

    def check(self, state, answers: List[object], requests: int) -> List[str]:
        """Mismatches between the outputs and their reference (empty = ok).

        ``answers`` is what the timed loop kept (``Tally.answers``) and
        ``requests`` how many requests it issued."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# ingest_5tuple
# ----------------------------------------------------------------------

INGEST_CONFIG = DartConfig(
    redundancy=2, checksum_bits=32, value_bytes=gen.VALUE_BYTES,
    slots_per_collector=1 << 18, num_collectors=4,
)


class Ingest(Workload):
    """Write only: columnar packet-level ``put_many`` of 5-tuple batches."""

    name = "ingest_5tuple"

    def setup(self):
        _fresh_registry()
        store = DartStore(
            INGEST_CONFIG, packet_level=True, columnar=True, fabric=InlineFabric()
        )
        for batch in range(gen.INGEST_WARMUP):
            store.put_many(self.inputs.items(batch))
        return store

    def step(self, store, index, clock, tally):
        items = self.inputs.items(gen.INGEST_WARMUP + index % gen.INGEST_POOL)
        offered = store.fabric.counters.frames_offered
        start, stop = clock
        start()
        store.put_many(items)
        elapsed = stop()
        tally.write_frames_offered += store.fabric.counters.frames_offered - offered
        tally.request_s.append(elapsed)
        tally.write_s.append(elapsed)
        tally.reports += len(items)
        tally.ops += len(items)

    def wire(self, store):
        return wire_counters(
            [store.fabric], [node.nic for node in store.cluster.collectors]
        )

    def check(self, store, answers, requests):
        # Every slot write is a plain overwrite with bytes fixed by the
        # report, and each pool batch repeats in full, so the regions after
        # the whole run equal those after the warm-up plus the last
        # min(requests, pool) batches in their order.
        last = min(requests, gen.INGEST_POOL)
        order = list(range(gen.INGEST_WARMUP)) + [
            gen.INGEST_WARMUP + index % gen.INGEST_POOL
            for index in range(requests - last, requests)
        ]
        reference = DartStore(INGEST_CONFIG)
        for batch in order:
            reference.put_many(self.inputs.items(batch))
        errors = []
        for role in range(INGEST_CONFIG.num_collectors):
            got = store.cluster[role].region.snapshot()
            want = reference.cluster[role].region.snapshot()
            if got != want:
                differing = sum(a != b for a, b in zip(got, want))
                errors.append(f"collector {role}: {differing} region bytes differ")
        return errors


# ----------------------------------------------------------------------
# query_fanout
# ----------------------------------------------------------------------

QUERY_CONFIG = DartConfig(
    redundancy=2, checksum_bits=32, value_bytes=gen.VALUE_BYTES,
    slots_per_collector=1 << 14, num_collectors=4,
)


def _serve(service, text, keys, use_cache, tally) -> Optional[object]:
    """One ``serve``; refusals and incomplete answers count as failed."""
    try:
        result = service.serve(text, keys=keys, use_cache=use_cache)
    except (QuotaExceeded, AdmissionRejected):
        tally.queries_failed += 1
        return None
    if not result.answer.complete:
        tally.queries_failed += 1
    return result


def _direct_rows(config, fleet, keys) -> Dict[str, Tuple[object, bool]]:
    """``key -> (value, answered)`` read straight from collector memory."""
    client = DartQueryClient(config, reader=fleet.cluster.read_slot)
    out = {}
    for key in keys:
        result = client.query(key)
        out[key] = (result.value, result.answered)
    return out


class Fanout(Workload):
    """Read only: uncached 48-key lookups over a preloaded fleet."""

    name = "query_fanout"

    def setup(self):
        _fresh_registry()
        fleet = QueryFleet(QUERY_CONFIG)
        fleet.put_many(zip(self.inputs.keys, self.inputs.values))
        return QueryService(fleet, **UNMETERED)

    def step(self, service, index, clock, tally):
        keys = self.inputs.keys
        row = self.inputs.queries[index % len(self.inputs.queries)]
        query_keys = [keys[position] for position in row.tolist()]
        start, stop = clock
        start()
        result = _serve(service, FANOUT_TEXT, query_keys, False, tally)
        elapsed = stop()
        tally.query_req.append(len(tally.request_s))
        tally.request_s.append(elapsed)
        tally.query_s.append(elapsed)
        tally.ops += 1
        if result is not None:
            rows = [(r["key"], r["value"], r["answered"]) for r in result.answer.rows]
            tally.key_rows += len(rows)
            tally.key_rows_answered += sum(1 for row in rows if row[2])
            tally.answers.append(rows)

    def wire(self, service):
        fleet = service.fleet
        return wire_counters(
            [fleet.fabric, fleet.store_fabric],
            [node.nic for node in fleet.cluster.collectors],
        )

    def check(self, service, answers, requests):
        fleet = service.fleet
        written = dict(zip(self.inputs.keys, self.inputs.values))
        seen = {key for rows in answers for key, _value, _answered in rows}
        direct = _direct_rows(QUERY_CONFIG, fleet, sorted(seen))
        errors = []
        for rows in answers:
            for key, value, answered in rows:
                if (value, answered) != direct[key]:
                    errors.append(f"{key}: fan-out row differs from direct read")
                elif answered and value != written[key]:
                    errors.append(f"{key}: answered value is not the last write")
        return errors[:20]


# ----------------------------------------------------------------------
# mixed_lossy
# ----------------------------------------------------------------------


class Mixed(Workload):
    """Writes beside cached and uncached reads over a 2%-loss fabric."""

    name = "mixed_lossy"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        hot = self.inputs.hot_keys
        self._dashboards = [
            (gen.MIXED_TEXTS[text], [hot[k] for k in keys])
            for text, keys in self.inputs.dashboards
        ]

    def setup(self):
        _fresh_registry()
        fabric_seeds = iter(self.inputs.fabric_seeds)

        def impaired():
            return ImpairedFabric(
                InlineFabric(), loss=MIXED_LOSS, seed=next(fabric_seeds)
            )

        fleet = QueryFleet(QUERY_CONFIG, fabric_factory=impaired)
        hot = self.inputs.hot_keys
        raw = self.inputs.preload_values
        fleet.put_many((key, raw[i].tobytes()) for i, key in enumerate(hot))
        fleet.count_many((key, 1) for key in hot)
        return QueryService(fleet, cache_ttl_ticks=MIXED_CACHE_TTL, **UNMETERED)

    def step(self, service, index, clock, tally):
        fleet = service.fleet
        inp = self.inputs
        r = index % gen.MIXED_ROUNDS
        keys = [inp.hot_keys[k] for k in inp.round_keys[r].tolist()]
        values = [value.tobytes() for value in inp.round_values[r]]
        amounts = inp.round_amounts[r].tolist()
        puts = list(zip(keys, values))
        counts = list(zip(keys, amounts))
        offered = fleet.fabric.counters.frames_offered + (
            fleet.store_fabric.counters.frames_offered
        )
        start, stop = clock
        start()
        fleet.put_many(puts)
        fleet.count_many(counts)
        round_s = stop()
        tally.write_frames_offered += (
            fleet.fabric.counters.frames_offered
            + fleet.store_fabric.counters.frames_offered
            - offered
        )
        tally.write_s.append(round_s)
        tally.reports += len(puts) + len(counts)
        for dashboard in inp.round_dashboards[r].tolist():
            text, query_keys = self._dashboards[dashboard]
            start()
            result = _serve(service, text, query_keys, True, tally)
            elapsed = stop()
            round_s += elapsed
            tally.query_s.append(elapsed)
            tally.query_req.append(len(tally.request_s))
            if result is None:
                continue
            tally.cache_hits += result.cached
            if text == FANOUT_TEXT:
                rows = result.answer.rows
                tally.key_rows += len(rows)
                tally.key_rows_answered += sum(1 for row in rows if row["answered"])
        tally.request_s.append(round_s)
        tally.ops += len(puts) + len(counts) + gen.MIXED_ROUND_SERVES

    def wire(self, service):
        fleet = service.fleet
        nics = [node.nic for node in fleet.cluster.collectors]
        nics += [store.nic for store in fleet.counter_stores.values()]
        return wire_counters([fleet.fabric, fleet.store_fabric], nics)

    def check(self, service, answers, requests):
        fleet = service.fleet
        hot = sorted(set(self.inputs.hot_keys))
        direct = _direct_rows(QUERY_CONFIG, fleet, hot)
        estimate = {key: fleet.direct_estimate(key) for key in hot}
        errors = []
        for number, (text, keys) in enumerate(self._dashboards):
            result = service.serve(text, keys=keys, use_cache=False)
            answer = result.answer
            if not answer.complete:
                errors.append(f"dashboard {number}: incomplete answer")
                continue
            if text == gen.MIXED_TEXTS[0]:
                got = {row["key"]: (row["value"], row["answered"]) for row in answer.rows}
                want = {key: direct[key] for key in keys}
            elif text == gen.MIXED_TEXTS[1]:
                got = {row["key"]: row["est"] for row in answer.rows}
                want = {key: estimate[key] for key in keys}
            elif text == gen.MIXED_TEXTS[2]:
                got = answer.value
                want = float(max(estimate[key] for key in keys))
            else:
                got = answer.value
                want = float(sum(direct[key][1] for key in keys))
            if got != want:
                errors.append(f"dashboard {number} ({text!r}): {got!r} != {want!r}")
        return errors


WORKLOADS = {cls.name: cls for cls in (Ingest, Fanout, Mixed)}
