"""Self-tests of the benchmark harness (not of the program it measures).

Run from the repository root with ``python3 -m pytest dartbench/tests -q``.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dartbench import inputs, layers, record, run  # noqa: E402
from dartbench.workloads import WORKLOADS, Tally  # noqa: E402


@pytest.fixture(autouse=True)
def _private_outputs(tmp_path, monkeypatch):
    """Keep test runs out of the committed history and the span folder."""
    monkeypatch.setattr(record, "HISTORY", tmp_path / "history.jsonl")
    monkeypatch.setattr(record, "BENCH_DIR", tmp_path)


def _flat(value):
    """Every array and scalar of an inputs object, in field order."""
    if isinstance(value, np.ndarray):
        return [value.tobytes()]
    if isinstance(value, (list, tuple)):
        return [part for item in value for part in _flat(item)]
    if hasattr(value, "__dataclass_fields__"):
        return [part for name in value.__dataclass_fields__ for part in _flat(getattr(value, name))]
    return [value]


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    generate = inputs.GENERATORS[name]
    first, again, other = generate(7), generate(7), generate(8)
    assert _flat(first) == _flat(again)
    assert _flat(first) != _flat(other)


def _originals():
    found = []
    for _metric, targets, _counter in layers.HOOKS:
        for target in targets:
            owner, attr = layers._resolve_target(target)
            if isinstance(owner, type) and attr not in owner.__dict__:
                continue
            found.append((owner, attr, vars(owner)[attr]))
    return found


def _traced_mixed_run(requests=3):
    workload = WORKLOADS["mixed_lossy"](seed=3)
    state = workload.setup()
    tracer, tally = layers.LayerTracer(), Tally()
    tracer.install()
    try:
        for index in range(requests):
            workload.step(state, index, (tracer.start_request, tracer.end_request), tally)
    finally:
        tracer.restore()
    return workload, state, tracer, tally


def test_traced_run_restores_every_wrapped_attribute():
    before = _originals()
    _workload, _state, tracer, _tally = _traced_mixed_run()
    assert tracer.installed_targets() == []
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"


def test_every_hook_target_is_wrapped_while_installed():
    expected = _originals()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        live = tracer.installed_targets()
        assert len(live) == len(expected)
        for owner, attr, original in live:
            assert vars(owner)[attr] is not original
    finally:
        tracer.restore()


def test_self_times_plus_other_equal_the_root():
    _workload, _state, tracer, tally = _traced_mixed_run()
    metrics = tracer.metrics()
    self_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert tracer.span_count > 0 and metrics["bench.other_s"] >= 0
    root = metrics["bench.root_s"]
    assert math.isclose(self_total + metrics["bench.other_s"], root, rel_tol=1e-9)
    assert math.isclose(root, sum(tally.request_s), rel_tol=1e-9)


def _verdict(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", "mixed_lossy", "--seed", "5", "--seconds", "1",
            "--trace", str(trace),
        ])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    return code, result


def test_traced_and_untraced_runs_give_the_same_verdict():
    untraced_code, untraced = _verdict(0)
    traced_code, traced = _verdict(1)
    assert untraced["correct"] is traced["correct"] is True
    assert untraced_code == traced_code == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(untraced["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in declared["per_layer"]]
    assert len(record.HISTORY.read_text().splitlines()) == 2


def test_ingest_check_catches_a_corrupted_region():
    workload = WORKLOADS["ingest_5tuple"](seed=2)
    store = workload.setup()
    tally = Tally()
    workload.step(store, 0, run._plain_clock(), tally)
    assert workload.check(store, tally.answers, requests=1) == []
    region = store.cluster[1].region
    region.write_offset(0, bytes([region.read_offset(0, 1)[0] ^ 0xFF]))
    errors = workload.check(store, tally.answers, requests=1)
    assert errors == ["collector 1: 1 region bytes differ"]
