"""Tests of the end-to-end benchmark harness.

Run from the repository root with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

import loadgen
import run
import spans
import workloads
from metrics import END_TO_END, NAMED, PER_LAYER, UNITS

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_poisson_schedule_is_deterministic_per_seed():
    a = loadgen.poisson_schedule(500, 2.0, seed=3)
    assert np.array_equal(a, loadgen.poisson_schedule(500, 2.0, seed=3))
    assert not np.array_equal(a, loadgen.poisson_schedule(500, 2.0, seed=4))
    assert (np.diff(a) > 0).all() and 0 < a[0] and a[-1] < 2.0
    assert 800 < len(a) < 1200


def test_churn_schedule_is_deterministic_per_seed():
    a = workloads.churn_schedule(1, 16384, 300)
    assert a == workloads.churn_schedule(1, 16384, 300)
    assert a != workloads.churn_schedule(2, 16384, 300)
    for slots, starts, lengths, _ in a:
        assert all(0 <= s < 32 for s in slots)
        assert all(1 <= n <= 16 for n in lengths)
        assert all(0 <= x and x + n <= 16384 for x, n in zip(starts, lengths))


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = np.arange(1.0, 1001.0)
    q, value, n = loadgen.tail_percentile(samples)
    assert (q, n) == (99.0, 1000)
    assert (samples > value).sum() == 10
    q, value, n = loadgen.tail_percentile(samples[:11])
    assert n == 11 and (samples[:11] > value).sum() == 10
    assert loadgen.tail_percentile(samples[:10]) is None


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    time.sleep(0.01)
    tracer.exit(inner)
    tracer.leaf("scan.fused", 0.002)
    tracer.exit(outer)
    table = tracer.table()
    _, outer_total, outer_self = table[("", "outer")]
    _, inner_total, inner_self = table[("outer", "inner")]
    _, leaf_total, _ = table[("outer", "scan.fused")]
    assert inner_total >= 0.01 and inner_self == inner_total
    assert math.isclose(outer_self, outer_total - inner_total - leaf_total, abs_tol=1e-12)
    assert [entry[0] for entry in tracer.log] == ["inner", "scan.fused", "outer"]


def test_wrappers_are_restored_when_the_traced_region_raises(tmp_path):
    before = spans.originals()
    with pytest.raises(RuntimeError):
        with spans.Tracing(tmp_path) as tracing:
            assert spans.originals() != before
            assert tracing.run is not None
            raise RuntimeError("boom")
    assert spans.originals() == before


def test_benchmark_json_lists_the_harness_metrics():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(UNITS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


@pytest.mark.parametrize("name", list(UNITS))
def test_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    before = spans.originals()
    plain = workloads.measure(name, 1, 0.3, tmp_path, size=workloads.TINY)
    traced = workloads.measure(name, 1, 0.3, tmp_path, traced=True, size=workloads.TINY)
    assert spans.originals() == before
    for record in (plain, traced):
        assert record["correct"], record["checks"]
        assert record["attempted"] > 0 and record["failed"] == 0
    assert traced["digest"] == plain["digest"]
    assert (plain["digest"] is None) == (name == "serve-predict")
    assert all(value > 0 and math.isfinite(value) for value in plain["metrics"].values())
    assert set(plain["named"]) == set(NAMED[name])

    traced["layers"]["telemetry.overhead"] = 0.0
    result = {"plain": plain, "traced": traced, "correct": True}
    for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
        line = json.loads(run.driver_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == names
