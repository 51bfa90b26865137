"""Unit tests for the parallel execution engine and result store.

Fake jobs (cheap, picklable, crash-controllable) exercise the scheduler
without real simulations; the simulation-equivalence property tests live in
``tests/test_engine_parallel.py``.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.engine import (
    CACHE_VERSION,
    EngineConfig,
    ExecutionEngine,
    JobTimeoutError,
    ResultStore,
    SimJob,
)
from repro.engine.executor import parse_workers
from repro.engine.telemetry import EngineStats


@dataclass(frozen=True)
class FakeJob:
    """Engine-schedulable job returning a deterministic payload."""

    name: str
    values: tuple[float, ...] = (1.0,)

    @property
    def key(self) -> str:
        return f"fake-{self.name}"

    def run(self) -> tuple[float, ...]:
        return self.values


@dataclass(frozen=True)
class SlowJob:
    name: str
    seconds: float

    @property
    def key(self) -> str:
        return f"slow-{self.name}"

    def run(self) -> tuple[float, ...]:
        time.sleep(self.seconds)
        return (self.seconds,)


@dataclass(frozen=True)
class CrashOnceJob:
    """Kills its worker process on the first attempt, succeeds afterwards."""

    name: str
    sentinel: str  # path marking "already crashed once"

    @property
    def key(self) -> str:
        return f"crash-{self.name}"

    def run(self) -> tuple[float, ...]:
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("crashed")
            os._exit(13)  # hard worker death, not an exception
        return (99.0,)


@dataclass(frozen=True)
class FailOnceJob:
    """Raises (an ordinary exception) on the first attempt only."""

    name: str
    sentinel: str

    @property
    def key(self) -> str:
        return f"fail-{self.name}"

    def run(self) -> tuple[float, ...]:
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("failed")
            raise RuntimeError("transient failure")
        return (7.0,)


class TestJobModel:
    def test_solo_pair_constructors(self, tiny_sampling, base_config):
        solo = SimJob.solo("gamess", base_config, tiny_sampling)
        pair = SimJob.pair("web_search", "gamess", base_config, tiny_sampling)
        assert solo.kind == "solo" and solo.workloads == ("gamess",)
        assert pair.kind == "pair" and pair.workloads == ("web_search", "gamess")

    def test_invalid_kind_and_arity(self, tiny_sampling, base_config):
        with pytest.raises(ValueError):
            SimJob("triple", ("a", "b", "c"), base_config, tiny_sampling)
        with pytest.raises(ValueError):
            SimJob("solo", ("a", "b"), base_config, tiny_sampling)

    def test_key_stability(self, tiny_sampling, base_config):
        job = SimJob.solo("gamess", base_config, tiny_sampling)
        again = SimJob.solo("gamess", base_config, tiny_sampling)
        assert job.key == again.key
        assert len(job.key) == 64 and int(job.key, 16) >= 0

    def test_key_sensitivity(self, tiny_sampling, small_sampling, base_config):
        base = SimJob.solo("gamess", base_config, tiny_sampling)
        assert base.key != SimJob.solo("zeusmp", base_config, tiny_sampling).key
        assert base.key != SimJob.solo("gamess", base_config, small_sampling).key
        pair = SimJob.pair("web_search", "gamess", base_config, tiny_sampling)
        flipped = SimJob.pair("gamess", "web_search", base_config, tiny_sampling)
        assert pair.key != flipped.key

    def test_solo_run_matches_pair_arity(self, tiny_sampling, base_config):
        solo = SimJob.solo("gamess", base_config, tiny_sampling)
        assert len(solo.run()) == 1


class TestResultStore:
    def test_roundtrip_and_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (1.5, 2.5))
        assert store.get("k1") == (1.5, 2.5)
        entry = tmp_path / f"v{CACHE_VERSION}" / "k1.json"
        assert entry.exists()
        assert json.loads(entry.read_text()) == [1.5, 2.5]
        # No stray tempfiles left behind by the atomic write.
        assert list(tmp_path.glob("**/*.tmp")) == []

    def test_disk_hit_after_memory_flush(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (3.0,))
        store.clear_memory()
        assert store.get("k1") == (3.0,)
        assert store.stats.disk_hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (1.0, 2.0))
        entry = tmp_path / f"v{CACHE_VERSION}" / "k1.json"
        entry.write_text('[1.0, 2.')  # truncated mid-write
        store.clear_memory()
        assert store.get("k1") is None
        assert store.stats.corrupt_entries == 1
        assert not entry.exists()  # dropped so a recompute can land cleanly
        # Non-numeric garbage is also a miss, not a crash.
        entry.write_text('{"not": "a list"}')
        assert store.get("k1") is None

    def test_memory_only_store(self):
        store = ResultStore(None)
        store.put("k1", (1.0,))
        assert store.get("k1") == (1.0,)
        assert store.entry_dir is None

    def test_put_reports_whether_the_entry_reached_disk(self, tmp_path):
        assert ResultStore(tmp_path).put("k1", (1.0,)) is True
        assert ResultStore(None).put("k1", (1.0,)) is False
        broken = ResultStore(tmp_path / "broken")
        broken.directory.mkdir()
        broken.entry_dir.write_text("not a directory")  # mkdir fails
        assert broken.put("k1", (2.0,)) is False
        assert broken.get("k1") == (2.0,)  # the memory layer still holds it

    def test_clear_memory_named_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (1.0,))
        store.put("k2", (2.0,))
        store.clear_memory("k1", "absent")
        assert store.get("k2") == (2.0,)
        assert store.stats.memory_hits == 1 and store.stats.disk_hits == 0
        assert store.get("k1") == (1.0,)
        assert store.stats.disk_hits == 1
        store.clear_memory()
        assert store.get("k2") == (2.0,)
        assert store.stats.disk_hits == 2

    def test_entry_bytes_match_json_dump(self, tmp_path):
        values = (0.1, -0.0, 1e-300, 5e-324, 2.0**53 + 2, 1.7976931348623157e308,
                  float("nan"), float("inf"), float("-inf"), 3)
        store = ResultStore(tmp_path)
        store.put("k1", values)
        handle = io.StringIO()
        json.dump([float(v) for v in values], handle)
        entry = tmp_path / f"v{CACHE_VERSION}" / "k1.json"
        assert entry.read_text() == handle.getvalue()

    def test_compute_runs_once(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []

        @dataclass(frozen=True)
        class Recording:
            key: str = "r1"

            def run(self) -> tuple[float, ...]:
                calls.append(1)
                return (4.0,)

        assert store.compute(Recording()) == (4.0,)
        assert store.compute(Recording()) == (4.0,)
        assert len(calls) == 1

    def test_inflight_dedup_across_threads(self, tmp_path):
        store = ResultStore(tmp_path)
        started = threading.Barrier(4)
        calls = []
        lock = threading.Lock()

        @dataclass(frozen=True)
        class Slow:
            key: str = "s1"

            def run(self) -> tuple[float, ...]:
                with lock:
                    calls.append(1)
                time.sleep(0.2)
                return (8.0,)

        results = []

        def worker():
            started.wait()
            results.append(store.compute(Slow()))

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [(8.0,)] * 4
        assert len(calls) == 1
        assert store.stats.inflight_waits >= 1

    def test_gc_evicts_stale_versions(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("current", (1.0,))
        stale = tmp_path / f"v{CACHE_VERSION - 1}"
        stale.mkdir()
        (stale / "old1.json").write_text("[1.0]")
        (stale / "old2.json").write_text("[2.0]")
        (tmp_path / "legacy.json").write_text("[3.0]")  # pre-engine flat layout
        evicted = store.gc()
        assert evicted == 3
        assert not stale.exists()
        assert not (tmp_path / "legacy.json").exists()
        assert (tmp_path / f"v{CACHE_VERSION}" / "current.json").exists()

    def test_manifest_accumulates(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (1.0,))
        store.get("missing")
        store.flush_manifest()
        store.put("k2", (2.0,))
        manifest = store.flush_manifest()
        assert manifest["cache_version"] == CACHE_VERSION
        assert manifest["writes"] == 2
        assert manifest["misses"] >= 1
        assert manifest["entries"] == 2
        # flush resets session counters: a third flush adds nothing.
        assert store.flush_manifest()["writes"] == 2

    def test_manifest_persists_job_telemetry(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record_job_telemetry(
            "k1", {"mode": "pool", "seconds": 1.5, "tries": 1, "ts": 100.0}
        )
        manifest = store.flush_manifest()
        assert manifest["jobs"]["k1"]["mode"] == "pool"
        # Records survive across sessions and merge with new ones.
        fresh = ResultStore(tmp_path)
        fresh.record_job_telemetry(
            "k2", {"mode": "serial", "seconds": 0.5, "tries": 1, "ts": 200.0}
        )
        merged = fresh.flush_manifest()
        assert set(merged["jobs"]) == {"k1", "k2"}
        # Flushing resets the session-local records (no double merge).
        assert fresh.job_telemetry == {}

    def test_manifest_job_records_capped_newest_first(self, tmp_path):
        from repro.engine.store import MANIFEST_JOB_LIMIT

        store = ResultStore(tmp_path)
        for i in range(MANIFEST_JOB_LIMIT + 10):
            store.record_job_telemetry(
                f"k{i:04d}", {"mode": "pool", "seconds": 0.0, "tries": 1,
                              "ts": float(i)}
            )
        jobs = store.flush_manifest()["jobs"]
        assert len(jobs) == MANIFEST_JOB_LIMIT
        assert "k0000" not in jobs  # oldest dropped
        assert f"k{MANIFEST_JOB_LIMIT + 9:04d}" in jobs


class TestEngineSerial:
    def test_dedup_and_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=1))
        jobs = [FakeJob("a", (1.0,)), FakeJob("a", (1.0,)), FakeJob("b", (2.0,))]
        report = engine.run_jobs(jobs, store=store)
        assert report.stats.submitted == 3
        assert report.stats.unique == 2
        assert report.stats.deduplicated == 1
        assert report.stats.executed == 2
        assert report.results == {"fake-a": (1.0,), "fake-b": (2.0,)}
        again = engine.run_jobs(jobs, store=store)
        assert again.stats.cache_hits == 2 and again.stats.executed == 0
        assert again.stats.hit_rate == 1.0

    def test_progress_callback(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=1))
        snapshots = []
        engine.run_jobs(
            [FakeJob("a"), FakeJob("b")],
            store=store,
            progress=lambda stats: snapshots.append(stats.done),
        )
        assert snapshots[-1] == 2

    def test_parse_workers(self):
        assert parse_workers(3) == 3
        assert parse_workers("2") == 2
        assert parse_workers("auto") >= 1
        with pytest.raises(ValueError):
            parse_workers("0")
        with pytest.raises(ValueError):
            parse_workers("many")


class TestEngineParallelScheduling:
    def test_pool_executes_and_dedups(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=2))
        jobs = [FakeJob(str(i % 3), (float(i % 3),)) for i in range(9)]
        report = engine.run_jobs(jobs, store=store)
        assert report.stats.unique == 3
        assert report.stats.deduplicated == 6
        assert report.stats.executed == 3
        assert report.results["fake-0"] == (0.0,)

    def test_retry_on_worker_crash(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=2, retries=2, backoff=0.01))
        sentinel = str(tmp_path / "crashed-once")
        jobs = [CrashOnceJob("x", sentinel), FakeJob("bystander", (5.0,))]
        report = engine.run_jobs(jobs, store=store)
        assert report.results["crash-x"] == (99.0,)
        assert report.results["fake-bystander"] == (5.0,)
        assert report.stats.crash_retries >= 1
        assert report.stats.pool_rebuilds >= 1
        assert report.stats.executed == 2

    def test_retry_on_job_exception(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=2, retries=2, backoff=0.01))
        sentinel = str(tmp_path / "failed-once")
        report = engine.run_jobs([FailOnceJob("y", sentinel)], store=store)
        assert report.results["fail-y"] == (7.0,)
        assert report.stats.failure_retries == 1

    def test_deterministic_exception_propagates(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=2, retries=1, backoff=0.01))

        with pytest.raises(RuntimeError, match="always fails"):
            engine.run_jobs([AlwaysFailJob("z")], store=store)

    def test_timeout_raises_after_retries(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(
            EngineConfig(workers=2, timeout=0.3, retries=0, backoff=0.01)
        )
        start = time.monotonic()
        with pytest.raises(JobTimeoutError):
            engine.run_jobs([SlowJob("t", 30.0)], store=store)
        assert time.monotonic() - start < 10.0  # pool was torn down, not joined

    def test_fallback_when_pool_unavailable(self, tmp_path):
        store = ResultStore(tmp_path)

        def broken_factory(workers):
            raise OSError("no process spawning here")

        engine = ExecutionEngine(
            EngineConfig(workers=4), pool_factory=broken_factory
        )
        report = engine.run_jobs([FakeJob("a", (1.0,)), FakeJob("b")], store=store)
        assert report.stats.executed == 2
        assert report.stats.in_process == 2
        assert report.results["fake-a"] == (1.0,)


@dataclass(frozen=True)
class AlwaysFailJob:
    name: str

    @property
    def key(self) -> str:
        return f"always-{self.name}"

    def run(self) -> tuple[float, ...]:
        raise RuntimeError("always fails")


class TestTelemetry:
    def test_derived_counters(self):
        stats = EngineStats(workers=2, unique=10, cache_hits=4, executed=3,
                            running=2)
        assert stats.done == 7
        assert stats.queued == 1
        assert stats.hit_rate == 0.4
        payload = stats.as_dict()
        assert payload["done"] == 7 and payload["hit_rate"] == 0.4
        assert payload["queued"] == 1  # derived field exported too

    def test_summary_mentions_key_counts(self):
        stats = EngineStats(workers=3, unique=5, cache_hits=2, executed=3,
                            deduplicated=1, crash_retries=1, wall_time=1.25)
        text = stats.summary()
        assert "5 jobs" in text and "2 cached" in text and "retried" in text
        assert "pool rebuild" not in text

    def test_summary_reports_pool_rebuilds(self):
        stats = EngineStats(workers=3, unique=5, executed=5, pool_rebuilds=2)
        assert "2 pool rebuild(s)" in stats.summary()
