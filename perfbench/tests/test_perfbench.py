"""Fast tests of the benchmark's own arithmetic, digests and metric names.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import time

import pytest

from perfbench import run, stats, workloads
from perfbench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1000, 99.0),
    (287, 96.0),
    (200, 95.0),
    (199, 94.0),
    (20, 50.0),
    (19, None),
    (1, None),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= stats.TAIL_MARGIN
        if expected < 99:
            assert n * (100 - (expected + 1)) / 100 < stats.TAIL_MARGIN


def test_tail_falls_back_to_maximum_with_few_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    values = list(range(1, 201))
    pct, value = stats.tail(values)
    assert pct == 95.0
    assert value == pytest.approx(stats.percentile(values, 95.0))


def test_summary_reports_median_iqr_and_count():
    s = stats.summary([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s["median"] == 3.0
    assert s["n"] == 5
    assert s["iqr"] > 0
    assert stats.summary([7.0]) == {"median": 7.0, "iqr": 0.0, "n": 1}


# -- failed_frac --------------------------------------------------------------

def test_failed_frac_arithmetic():
    assert stats.failed_frac(0, 10) == 0.0
    assert stats.failed_frac(3, 12) == 0.25
    assert stats.failed_frac(5, 5) == 1.0
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(3, 2)


def test_context_counts_operations_and_failures(tmp_path):
    ctx = workloads.Context("w", 1, 1.0, str(tmp_path), {})
    ctx.op(True)
    ctx.op(False, "bad window")
    ctx.ops(10, 2, "two jobs missing")
    ctx.ops(5, 0)
    assert (ctx.attempted, ctx.failed) == (17, 3)
    assert ctx.problems == ["bad window", "two jobs missing"]
    assert stats.failed_frac(ctx.failed, ctx.attempted) == pytest.approx(3 / 17)


# -- digests ------------------------------------------------------------------

def test_digests_are_canonical_and_order_sensitive():
    assert stats.digest_json({"a": 1, "b": [1.5, 2]}) == stats.digest_json({"b": [1.5, 2], "a": 1})
    assert stats.digest_json({"a": 1}) != stats.digest_json({"a": 1.0000001})
    assert stats.digest_values([1, 2, 3]) == stats.digest_values((1.0, 2.0, 3.0))
    assert stats.digest_values([1, 2, 3]) != stats.digest_values([3, 2, 1])


def test_digest_check_counts_a_mismatch_as_failed(tmp_path):
    recorded = {"serve-ops": {"7": "abc"}}
    assert stats.check_digest(recorded, "serve-ops", 7, "abc") is True
    assert stats.check_digest(recorded, "serve-ops", 7, "abd") is False
    assert stats.check_digest(recorded, "serve-ops", 8, "abc") is None
    assert stats.check_digest(recorded, "paper-quick", 7, "abc") is None

    ctx = workloads.Context("serve-ops", 7, 1.0, str(tmp_path), recorded)
    ctx.check_digest("abc")
    assert (ctx.attempted, ctx.failed) == (1, 0)
    ctx.check_digest("xyz")
    assert (ctx.attempted, ctx.failed) == (2, 1)
    unrecorded = workloads.Context("serve-ops", 8, 1.0, str(tmp_path), recorded)
    unrecorded.check_digest("xyz")
    assert unrecorded.attempted == 0


def test_recorded_digests_file_is_well_formed():
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as handle:
        recorded = json.load(handle)
    for workload, by_seed in recorded.items():
        assert workload in workloads.WORKLOADS
        for seed, digest in by_seed.items():
            int(seed)
            assert len(digest) == 64 and int(digest, 16) >= 0


# -- metric names and units ---------------------------------------------------

def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_metrics_match_the_emitted_names_and_units():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_METRICS
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_every_end_to_end_metric_is_emitted(tmp_path):
    measured = workloads._end_to_end(1.5, 2.5, [0.01, 0.02, 0.03])
    assert set(measured) == set(run.END_TO_END)
    assert measured["step_p50_ms"] == pytest.approx(20.0)
    assert measured["step_tail_ms"] == pytest.approx(30.0)
    assert all(value > 0 for value in measured.values())


def test_every_per_layer_metric_is_emitted_even_when_idle(tmp_path):
    tracer = Tracer()
    with tracer.span("bench.run"):
        with tracer.span("fleet.step", 0):
            time.sleep(0.001)
    ctx = workloads.Context("serve-ops", 1, 1.0, str(tmp_path), {}, tracer=tracer)
    ctx.refs.append(stats.REF_NOMINAL_S)
    values = run.layer_metrics(tracer, ctx, wall_s=tracer.spans[0].duration, pass_s=1.0)
    assert set(values) == set(run.LAYER_METRICS)
    assert values["cpu.cycles"] == 0


# -- self times ---------------------------------------------------------------

def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    with tracer.span("bench.run"):
        with tracer.span("engine.run_jobs"):
            with tracer.span("engine.store_get"):
                time.sleep(0.002)
            time.sleep(0.002)
        with tracer.span("experiments.run", "fig01"):
            with tracer.span("qos.sim"):
                time.sleep(0.002)
    root = tracer.spans[0]
    selfs = tracer.self_times()
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert all(value >= 0 for value in selfs.values())
    assert tracer.self_time_error("bench.run", root.duration) < 1e-9
    layers = tracer.layer_self()
    assert layers["qos"] == pytest.approx(tracer.by_name("qos.sim")[0].duration)
    assert tracer.spans[-1].sid == "fig01"  # children inherit the span id


def test_worker_spans_stay_out_of_main_process_self_time():
    main = Tracer()
    with main.span("bench.run"):
        with main.span("engine.run_jobs") as parent:
            worker = Tracer()
            worker.pid = main.pid + 1
            worker.remote_parent = parent.index
            with worker.span("engine.job", "key"):
                with worker.span("cpu.core_run"):
                    time.sleep(0.002)
            main.merge_worker([s.as_tuple() for s in worker.spans], {"cpu.cycles": 5})
    root = main.spans[0]
    assert main.self_time_error("bench.run", root.duration) < 1e-9
    assert main.worker_self_time_error() < 1e-9
    assert main.counters["cpu.cycles"] == 5
    job = main.by_name("engine.job")[0]
    assert job.parent == main.by_name("engine.run_jobs")[0].index


# -- reference normalization --------------------------------------------------

def test_normalize_scales_by_the_median_reading():
    nominal = stats.REF_NOMINAL_S
    assert stats.normalize(2.0, [nominal]) == pytest.approx(2.0)
    assert stats.normalize(2.0, [2 * nominal, 2 * nominal, 9 * nominal]) == pytest.approx(1.0)


def test_paired_timer_pools_its_readings_and_samples_long_blocks():
    shared = [123.0]
    with stats.Paired(period=0.01, refs=shared) as timer:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert shared[0] == 123.0
    assert len(timer.readings) >= 4  # two ends plus timer ticks
    assert timer.readings == shared[1:]
    assert 0.05 < timer.raw <= 0.11
    assert timer.value == pytest.approx(stats.normalize(timer.raw, timer.readings))
