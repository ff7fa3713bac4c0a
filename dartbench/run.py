"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 dartbench/run.py --workload query_fanout --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs half the time untraced and half with every layer's
public functions wrapped (see ``layers.py``), and prints the per-layer
metrics plus the tracing overhead.  Both print a table of every metric
with its unit and sample count, append a record to
``dartbench/history.jsonl``, and end with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The run exits non-zero if any output differs from its reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dartbench.calibration import CAL_REF_S, bracketed, factors, timed_pass  # noqa: E402
from dartbench.record import percentile  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The end-to-end metrics gated in ``BENCHMARK.json`` (defined for every
#: workload; the rest of the table is reported and recorded).  The gated
#: tail is p90: ingest and mixed make only a few hundred requests per run,
#: and on query_fanout p99 (~18 samples beyond it) spread 0.09 run to run.
GATED = ("setup_s", "ops_per_s", "request_p50_ms", "request_p90_ms", "peak_rss_mb")


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"dartbench: no program source at {src}/repro")
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"dartbench: imported repro from {repro.__file__}, not {src}")


def _plain_clock():
    state = {}

    def start():
        state["t"] = perf_counter()

    def stop():
        return perf_counter() - state["t"]

    return start, stop


def _run_phase(workload, state, clock, seconds, first_index, tally):
    """Issue requests back to back until ``seconds`` have passed, with one
    calibration pass before each."""
    index = first_index
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        tally.cal_s.append(timed_pass())
        workload.step(state, index, clock, tally)
        index += 1
    tally.cal_s.append(timed_pass())
    return index


def _delta(after, before):
    return {key: after[key] - before[key] for key in after}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _timings(tally, scale):
    """Request, write and query durations, each times its request's scale."""
    requests = [d * k for d, k in zip(tally.request_s, scale)]
    writes = [d * k for d, k in zip(tally.write_s, scale)]
    queries = [d * scale[r] for d, r in zip(tally.query_s, tally.query_req)]
    return requests, writes, queries


def _time_metrics(tally, scale, setup_samples):
    """Every timing metric that applies to the workload: ``{name: (value,
    unit, samples)}``, with each duration scaled by ``scale``."""
    requests, writes, queries = _timings(tally, scale)
    out = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "ops_per_s": (tally.ops / sum(requests), "1/s", len(requests)),
        "request_p50_ms": (percentile(requests, 50) * 1e3, "ms", len(requests)),
        "request_p90_ms": (percentile(requests, 90) * 1e3, "ms", len(requests)),
    }
    if writes:
        out.update({
            "reports_per_s": (tally.reports / sum(writes), "1/s", len(writes)),
            "write_p50_ms": (percentile(writes, 50) * 1e3, "ms", len(writes)),
            "write_p90_ms": (percentile(writes, 90) * 1e3, "ms", len(writes)),
        })
    if queries:
        out.update({
            "queries_per_s": (len(queries) / sum(queries), "1/s", len(queries)),
            "query_p50_ms": (percentile(queries, 50) * 1e3, "ms", len(queries)),
            "query_p99_ms": (percentile(queries, 99) * 1e3, "ms", len(queries)),
        })
    return out


def end_to_end(tally, setups, rss_mb):
    """Every end-to-end metric that applies to the workload:
    ``{name: (calibrated value, raw value, unit, samples)}``; the gated
    ones come first.  ``setups`` holds (seconds, calibration pass) pairs."""
    raw_setup = [seconds for seconds, _cal in setups]
    cal_setup = [seconds * CAL_REF_S / cal for seconds, cal in setups]
    raw = _time_metrics(tally, [1.0] * len(tally.request_s), raw_setup)
    calibrated = _time_metrics(tally, factors(tally.cal_s), cal_setup)
    out = {
        metric: (value, raw[metric][0], unit, samples)
        for metric, (value, unit, samples) in calibrated.items()
    }
    counted = {"peak_rss_mb": (rss_mb, "MB", 1)}
    if tally.write_s:
        written = tally.wire["written"]
        counted["reports_lost_ratio"] = (
            _ratio(tally.write_frames_offered - written, tally.write_frames_offered),
            "ratio", tally.write_frames_offered,
        )
    if tally.query_s:
        counted["query_answered_ratio"] = (
            _ratio(tally.key_rows_answered, tally.key_rows), "ratio", tally.key_rows
        )
        counted["queries_failed_ratio"] = (
            _ratio(tally.queries_failed, len(tally.query_s)), "ratio", len(tally.query_s)
        )
    for metric, (value, unit, samples) in counted.items():
        out[metric] = (value, value, unit, samples)
    return out


def _mean_calibrated(tally):
    requests, _writes, _queries = _timings(tally, factors(tally.cal_s))
    return sum(requests) / len(requests)


def per_layer(tracer, tally, untraced):
    """Every per-layer metric: ``{name: (value, raw value, unit, samples)}``
    (self times are raw; only the overhead ratio compares two phases and
    so is calibrated)."""
    out = {}
    for metric, value in tracer.metrics().items():
        if metric.endswith(".self_s") or metric.startswith("bench."):
            unit = "s"
        else:
            unit = "count"
        out[metric] = (value, unit, tracer.requests)
    wire = tally.wire
    executed = wire["written"] + wire["read"]
    counts = tracer.counts
    needed = counts["query.reads_needed"]
    out.update({
        "fabric.frames_offered": (wire["offered"], "count", 1),
        "fabric.frames_dropped_loss": (wire["dropped_loss"], "count", 1),
        "rdma.frames_executed": (executed, "count", 1),
        "rdma.frames_dropped": (wire["dropped"], "count", 1),
        "rdma.executed_ratio": (_ratio(executed, wire["offered"]), "ratio", wire["offered"]),
        "query.read_retry_ratio": (
            _ratio(counts["primitives.reads_sent"] - needed, needed), "ratio", needed
        ),
        "query.cache_hit_ratio": (
            _ratio(tally.cache_hits, len(tally.query_s)), "ratio", len(tally.query_s)
        ),
        "bench.requests": (len(tally.request_s), "count", 1),
    })
    untraced_mean = _mean_calibrated(untraced)
    out["bench.trace_overhead_ratio"] = (
        (_mean_calibrated(tally) - untraced_mean) / untraced_mean,
        "ratio", len(tally.request_s),
    )
    return {name: (v, v, unit, n) for name, (v, unit, n) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from repro import obs
    from dartbench import record
    from dartbench.layers import LayerTracer
    from dartbench.workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} ({', '.join(WORKLOADS)})")
    previous_registry = obs.get_registry()
    workload = WORKLOADS[args.workload](args.seed)

    setups = []
    state = None
    for _repeat in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state, took, cal = bracketed(workload.setup)
        setups.append((took, cal))
    gc.collect()

    untraced = Tally()
    before = workload.wire(state)
    seconds = args.seconds / 2 if args.trace else args.seconds
    requests = _run_phase(workload, state, _plain_clock(), seconds, 0, untraced)
    untraced.wire = _delta(workload.wire(state), before)
    tracer = traced = None
    if args.trace:
        tracer, traced = LayerTracer(), Tally()
        before = workload.wire(state)
        tracer.install()
        try:
            clock = (tracer.start_request, tracer.end_request)
            requests = _run_phase(workload, state, clock, seconds, requests, traced)
        finally:
            tracer.restore()
        traced.wire = _delta(workload.wire(state), before)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    answers = untraced.answers + (traced.answers if traced else [])
    errors = workload.check(state, answers, requests)
    obs.set_registry(previous_registry)
    correct = not errors

    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        out_dir = record.BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump_spans(out_dir / f"spans-{args.workload}.json.gz")
    else:
        metrics = end_to_end(untraced, setups, rss_mb)
    attempted = untraced.attempted + (traced.attempted if traced else 0)
    failed = untraced.queries_failed + (traced.queries_failed if traced else 0)

    print(f"dartbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} requests={requests}")
    print(f"  {'metric':<36} {'calibrated':>14} {'raw':>14} unit   samples")
    for name, (value, raw, unit, samples) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {raw:>14.6g} {unit:<6} n={samples}")
    print(f"  correct={correct} attempted={attempted} failed={failed}")
    for error in errors[:10]:
        print(f"  MISMATCH {error}")

    record.append_history({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": record.environment(ROOT),
        "correct": correct,
        "errors": errors[:10],
        "attempted": attempted,
        "failed": failed,
        "requests": requests,
        "setup_samples_s": [took for took, _cal in setups],
        "metrics": {
            name: {"value": value, "raw": raw, "unit": unit, "n": samples}
            for name, (value, raw, unit, samples) in metrics.items()
        },
    })

    shown = list(metrics) if args.trace else GATED
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][2]}
            for name in shown
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
