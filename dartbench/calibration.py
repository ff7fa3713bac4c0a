"""Machine-speed calibration: report timings at a fixed reference speed.

On a shared 2-core VM the same code runs up to ~2x slower for seconds or
minutes at a time, because neighbours compete for the host; CPU time
swings as much as wall time, so neither repeats nor medians inside one
run can remove it.  The benchmark therefore times a fixed calibration
pass (pure-Python arithmetic plus small-object work: ``struct``, ``str``,
tuples and a dict, the interpreter work the datapath consists of)
before every request and once after the last, and multiplies each
request's duration by ``CAL_REF_S`` over the mean of the two passes
that bracket it.  Transient slowdowns last from milliseconds to
minutes, so the factor is taken as close to the request as possible.
A calibrated duration is the time the request would take on a machine
that runs the calibration pass in exactly :data:`CAL_REF_S`.

The calibration code is part of the benchmark, so a change to the
program cannot move it; raw wall-clock values are printed and recorded
next to the calibrated ones.
"""

from __future__ import annotations

import statistics
import struct
from time import perf_counter
from typing import List, Sequence

#: Reference duration of one calibration pass (about its time on an
#: unloaded 2.1 GHz Xeon VM core).
CAL_REF_S = 1.0e-3


def calibration_pass() -> int:
    """Fixed interpreter work; its duration tracks machine speed."""
    acc = 0
    for i in range(5000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    table = {}
    for i in range(750):
        packed = struct.pack(">IHH", i, i & 0xFFFF, 7)
        entry = (i, packed, str(i))
        table[entry[2]] = entry
        acc ^= int.from_bytes(packed[:4], "big")
    return acc + len(table)


def timed_pass() -> float:
    """Seconds one :func:`calibration_pass` takes right now."""
    started = perf_counter()
    calibration_pass()
    return perf_counter() - started


def factors(samples: Sequence[float]) -> List[float]:
    """Scale ``CAL_REF_S / mean(pass before, pass after)`` per request,
    from the ``requests + 1`` passes taken around them."""
    return [
        2.0 * CAL_REF_S / (before + after)
        for before, after in zip(samples, samples[1:])
    ]


def bracketed(work, repeats: int = 3):
    """Run ``work()``; return (its result, seconds, calibration pass time
    around it -- the mean of the medians of ``repeats`` passes before and
    after)."""
    before = statistics.median(timed_pass() for _ in range(repeats))
    started = perf_counter()
    result = work()
    seconds = perf_counter() - started
    after = statistics.median(timed_pass() for _ in range(repeats))
    return result, seconds, (before + after) / 2.0
