"""Tests for the live fleet service (`repro.service`).

The load-bearing guarantees:

* **checkpoint/resume bit-identity** — a service killed mid-day and
  resumed from its checkpoint produces a `FleetTimeline` exactly equal
  (every array) to one that never stopped;
* **what-if isolation** — a shadow query never perturbs the live fleet:
  the state arrays are bytewise unchanged and subsequent windows are
  bit-identical to a query-free run;
* **graceful feed degradation** — gaps are filled by holding the last
  window, and a stall beyond `max_gap_windows` stops the service
  cleanly rather than free-running on stale data;
* the control plane answers every command (and every malformed request)
  without ever taking the serve loop down.
"""

import io
import json

import numpy as np
import pytest

from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import MonitorConfig
from repro.core.stretch import StretchMode
from repro.engine.store import ResultStore
from repro.fleet import (
    FleetConfig,
    FleetEngine,
    SurrogateGrid,
    TailSurrogate,
    fit_tail_surrogate,
    resolve_load_curve,
)
from repro.obs import MetricsRegistry, SpanTracer
from repro.obs.sampler import JsonlSink
from repro.service import (
    COMMANDS,
    ControlPlane,
    CurveFeed,
    FleetService,
    LoadFeed,
    Phase,
    PhaseFeed,
    ReplayFeed,
    handle_command,
    load_checkpoint,
    make_feed,
    parse_phases,
    replay_curve,
    save_checkpoint,
)
from repro.workloads.registry import get_profile


def performance_model() -> ColocationPerformance:
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload="zeusmp",
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(0.52, 0.50),
            StretchMode.B_MODE: ModePerformance(0.46, 0.58),
            StretchMode.Q_MODE: ModePerformance(0.58, 0.40),
        },
    )


TEST_RPW = 400
TEST_GRID = SurrogateGrid(
    loads=(0.02, 0.3, 0.6, 0.9, 1.2),
    n_requests=TEST_RPW,
    peak_requests=20000,
    n_reps=6,
    n_val_reps=2,
    seed=0,
)


def fleet_config(**kwargs) -> FleetConfig:
    defaults = dict(
        n_servers=8,
        window_minutes=120.0,
        requests_per_window=TEST_RPW,
        seed=5,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def surrogate() -> TailSurrogate:
    perf_factors = FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config()
    ).perf_factors
    return fit_tail_surrogate(
        get_profile("web_search").qos, perf_factors, TEST_GRID
    )


def make_engine(surrogate, **cfg_kwargs) -> FleetEngine:
    return FleetEngine(
        get_profile("web_search"),
        performance_model(),
        fleet_config(**cfg_kwargs),
        surrogate=surrogate,
    )


def make_service(surrogate, feed="web_search", **kwargs) -> FleetService:
    return FleetService(make_engine(surrogate), feed, **kwargs)


def timelines_equal(a, b) -> bool:
    """Bitwise equality across every FleetTimeline array."""
    return (
        np.array_equal(a.hours, b.hours)
        and np.array_equal(a.violations, b.violations)
        and np.array_equal(a.throttled, b.throttled)
        and np.array_equal(a.mode_counts, b.mode_counts)
        and np.array_equal(a.tail_ms_sum, b.tail_ms_sum)
        and np.array_equal(a.batch_uipc_sum, b.batch_uipc_sum)
        and np.array_equal(a.server_violations, b.server_violations)
        and np.array_equal(a.server_bmode_windows, b.server_bmode_windows)
    )


# ----------------------------------------------------------------------
# Feeds
# ----------------------------------------------------------------------


class TestCurveFeed:
    def test_named_curve_is_gapless(self):
        feed = CurveFeed("web_search")
        assert feed.name == "web_search"
        for k in range(12):
            assert feed.load(k, k * 2.0) is not None

    def test_flat_spec(self):
        feed = make_feed("flat:0.7")
        assert feed.load(3, 6.0) == pytest.approx(0.7)

    def test_callable(self):
        feed = make_feed(lambda hour: 0.1 * hour)
        assert feed.load(0, 4.0) == pytest.approx(0.4)

    def test_forecast_defaults_to_load(self):
        feed = make_feed("flat:0.5")
        assert feed.forecast(9, 18.0) == feed.load(9, 18.0)


class TestPhaseFeed:
    def test_parse_phases(self):
        phases = parse_phases(
            "flat@0.3x4,ramp@0.3-1.1x2,oscillate@0.5-0.9x6~30m"
        )
        assert [p.kind for p in phases] == ["flat", "ramp", "oscillate"]
        assert phases[1].to_level == pytest.approx(1.1)
        assert phases[2].period_minutes == pytest.approx(30.0)

    @pytest.mark.parametrize("bad", ["", "flat@x4", "warp@0.3x4", "ramp@0.5x2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_phases(bad)

    def test_flat_and_ramp_values(self):
        feed = PhaseFeed("flat@0.4x2,ramp@0.4-0.8x4")
        assert feed.load(0, 1.0) == pytest.approx(0.4)
        assert feed.load(0, 4.0) == pytest.approx(0.6)  # ramp midpoint
        assert feed.load(0, 5.9) == pytest.approx(0.79, abs=0.01)

    def test_oscillation_bounded_by_levels(self):
        feed = PhaseFeed((Phase("oscillate", 6.0, 0.5, 0.9, 60.0),))
        values = [feed.load(0, h / 10) for h in range(60)]
        assert min(values) >= 0.5 - 1e-9
        assert max(values) <= 0.9 + 1e-9

    def test_phases_cycle(self):
        feed = PhaseFeed("flat@0.3x1,flat@0.7x1")
        assert feed.load(0, 0.5) == pytest.approx(0.3)
        assert feed.load(0, 1.5) == pytest.approx(0.7)
        assert feed.load(0, 2.5) == pytest.approx(0.3)  # wrapped

    def test_jitter_is_deterministic_per_window(self):
        a = PhaseFeed("flat@0.5x24", seed=3, jitter=0.2)
        b = PhaseFeed("flat@0.5x24", seed=3, jitter=0.2)
        assert a.load(7, 14.0) == b.load(7, 14.0)
        assert a.load(7, 14.0) != a.load(8, 16.0)


class TestReplayFeed:
    def write_stream(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_replays_recorded_windows(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "hour": 0.0, "cluster_load": 0.3},
            {"window": 1, "hour": 2.0, "cluster_load": 0.8},
        ])
        feed = ReplayFeed.from_jsonl(path, window_minutes=120.0)
        assert feed.n_records == 2
        assert feed.load(0, 0.0) == pytest.approx(0.3)
        assert feed.load(1, 2.0) == pytest.approx(0.8)
        assert feed.load(2, 4.0) is None  # gap

    def test_foreign_and_torn_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"window": 0, "load": 0.4}\n'
            "not json\n"
            '{"type": "checkpoint", "key": "abc"}\n'
            '{"hour": 2.0, "load_fraction": 0.6}\n'
        )
        feed = ReplayFeed.from_jsonl(path, window_minutes=120.0)
        assert feed.n_records == 2
        assert feed.load(1, 2.0) == pytest.approx(0.6)

    def test_empty_stream_rejected(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [{"type": "summary"}])
        with pytest.raises(ValueError, match="no usable records"):
            ReplayFeed.from_jsonl(path)

    def test_curve_holds_last_across_gaps(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "cluster_load": 0.3},
            {"window": 4, "cluster_load": 0.9},
        ])
        curve = replay_curve(path, window_minutes=60.0)
        assert curve(0.0) == pytest.approx(0.3)
        assert curve(2.5) == pytest.approx(0.3)  # held across the gap
        assert curve(4.0) == pytest.approx(0.9)
        assert curve(23.0) == pytest.approx(0.9)

    def test_registered_as_load_curve(self, tmp_path):
        """`replay:<path>` works anywhere a named curve does."""
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "cluster_load": 0.25},
        ])
        name, fn = resolve_load_curve(f"replay:{path}")
        assert name == f"replay:{path}"
        assert fn(12.0) == pytest.approx(0.25)

    def test_make_feed_dispatch(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "cluster_load": 0.5},
        ])
        assert isinstance(make_feed(f"replay:{path}"), ReplayFeed)
        assert isinstance(make_feed("phases:flat@0.4x24"), PhaseFeed)
        assert isinstance(make_feed("web_search"), CurveFeed)
        feed = PhaseFeed("flat@0.5x24")
        assert make_feed(feed) is feed


# ----------------------------------------------------------------------
# Service loop
# ----------------------------------------------------------------------


class TestServiceLoop:
    def test_advance_matches_run_day(self, surrogate):
        """The served day is bit-identical to the batch `run_day` path."""
        service = make_service(surrogate)
        while not service.done:
            service.advance(5)
        batch = make_engine(surrogate).run_day("web_search")
        assert timelines_equal(service.timeline, batch)

    def test_advance_emits_window_records(self, surrogate):
        service = make_service(surrogate)
        records = service.advance(3)
        assert [r["window"] for r in records] == [0, 1, 2]
        for record in records:
            assert record["servers"] == 8
            assert not record["gap_filled"]

    def test_streaming_outputs(self, surrogate, tmp_path):
        sink = JsonlSink(tmp_path / "out.jsonl")
        service = make_service(
            surrogate,
            registry=MetricsRegistry(),
            sink=sink,
            tracer=SpanTracer(),
        )
        service.advance(4)
        lines = [
            json.loads(line)
            for line in (tmp_path / "out.jsonl").read_text().splitlines()
        ]
        assert [r["window"] for r in lines] == [0, 1, 2, 3]
        assert all(r["type"] == "fleet_window" for r in lines)
        assert service.registry.counter("fleet.windows").value == 4 * 8
        assert len(service.registry.series("fleet.cluster_load").points) == 4
        assert {"service.ingest", "service.advance", "service.publish"} <= (
            service.tracer.span_names()
        )

    def test_run_summary(self, surrogate):
        service = make_service(surrogate)
        summary = service.run(n_windows=3)
        assert summary["type"] == "summary"
        assert summary["served_windows"] == 3
        assert summary["window"] == 3
        assert not summary["done"]

    def test_run_streams_window_records_to_out(self, surrogate):
        out = io.StringIO()
        service = make_service(surrogate)
        service.run(n_windows=3, out=out)
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        windows = [r for r in records if r.get("type") == "fleet_window"]
        assert [r["window"] for r in windows] == [0, 1, 2]
        # The stdout stream doubles as a recordable replay feed.
        feed = ReplayFeed(
            {r["window"]: r["cluster_load"] for r in windows}
        )
        assert feed.load(1, 0.0) == windows[1]["cluster_load"]


class TestFeedGaps:
    class GappyFeed(LoadFeed):
        name = "gappy"

        def __init__(self, gaps):
            self.gaps = gaps

        def load(self, window, hour):
            return None if window in self.gaps else 0.5

    def test_gap_holds_last_window(self, surrogate):
        service = make_service(surrogate, feed=self.GappyFeed({1}))
        records = service.advance(3)
        assert [r["gap_filled"] for r in records] == [False, True, False]
        assert records[1]["cluster_load"] == pytest.approx(0.5)
        assert service.feed_gaps == 1

    def test_leading_gap_defaults_to_zero_load(self, surrogate):
        service = make_service(surrogate, feed=self.GappyFeed({0}))
        record = service.advance(1)[0]
        assert record["gap_filled"]
        assert record["cluster_load"] == 0.0

    def test_stall_stops_cleanly(self, surrogate):
        feed = self.GappyFeed(set(range(2, 1000)))
        service = make_service(surrogate, feed=feed, max_gap_windows=3)
        summary = service.run()
        assert summary["stopped"]
        assert summary["stop_reason"] == "feed_stalled"
        # 2 real windows + 3 tolerated hold-last fills, then a clean stop.
        assert summary["window"] == 5
        assert service.feed_gaps == 4

    def test_gap_burst_within_budget_recovers(self, surrogate):
        service = make_service(
            surrogate, feed=self.GappyFeed({1, 2}), max_gap_windows=3
        )
        records = service.advance(5)
        assert len(records) == 5
        assert not service.stopped


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_killed_and_resumed_is_bit_identical(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        uninterrupted = make_service(surrogate)
        uninterrupted.run()

        service = make_service(surrogate, store=store)
        service.advance(5)
        key = service.checkpoint()["key"]
        del service  # the kill

        resumed = FleetService.resume(
            key, make_engine(surrogate), "web_search", store=store
        )
        assert resumed.window == 5
        resumed.run()
        assert resumed.done
        assert timelines_equal(resumed.timeline, uninterrupted.timeline)

    def test_resume_restores_monitor_arrays(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        service = make_service(surrogate, store=store)
        service.advance(7)
        key = service.checkpoint()["key"]
        state = service.state
        resumed = load_checkpoint(store, key)
        assert np.array_equal(resumed.mode, state.mode)
        assert np.array_equal(resumed.compliant, state.compliant)
        assert np.array_equal(resumed.violation, state.violation)
        assert np.array_equal(resumed.throttle, state.throttle)

    def test_checkpoint_key_changes_with_state(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        service = make_service(surrogate, store=store)
        service.advance(1)
        first = service.checkpoint()["key"]
        service.advance(1)
        second = service.checkpoint()["key"]
        assert first != second

    def test_same_state_same_key(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        a = make_service(surrogate, store=store)
        b = make_service(surrogate, store=store)
        a.advance(2), b.advance(2)
        assert a.checkpoint()["key"] == b.checkpoint()["key"]

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no checkpoint"):
            load_checkpoint(ResultStore(tmp_path), "deadbeef")

    def test_save_checkpoint_roundtrip(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        service = make_service(surrogate)
        service.advance(3)
        key = save_checkpoint(store, "identity", service.state)
        restored = load_checkpoint(store, key)
        assert restored.window == 3
        assert timelines_equal(restored.timeline, service.timeline)

    def test_disk_checkpoint_leaves_the_memory_layer(self, surrogate, tmp_path):
        # A confirmed disk write drops the entry from memory: a long serve
        # with --checkpoint-every must not pin every checkpoint it wrote.
        store = ResultStore(tmp_path)
        service = make_service(surrogate)
        service.advance(3)
        key = save_checkpoint(store, "identity", service.state)
        assert key not in store._memory
        restored = load_checkpoint(store, key)
        assert store.stats.disk_hits == 1 and store.stats.memory_hits == 0
        assert restored.window == service.state.window
        assert restored.to_array().tobytes() == service.state.to_array().tobytes()

    def test_memory_only_checkpoint_stays_in_memory(self, surrogate):
        store = ResultStore(None)
        service = make_service(surrogate)
        service.advance(3)
        key = save_checkpoint(store, "identity", service.state)
        assert key in store._memory
        restored = load_checkpoint(store, key)
        assert store.stats.memory_hits == 1
        assert restored.to_array().tobytes() == service.state.to_array().tobytes()

    def test_failed_disk_write_keeps_the_checkpoint(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        store.entry_dir.write_text("not a directory")  # every write fails
        service = make_service(surrogate)
        service.advance(2)
        key = save_checkpoint(store, "identity", service.state)
        assert key in store._memory
        assert load_checkpoint(store, key).window == 2


# ----------------------------------------------------------------------
# What-if queries
# ----------------------------------------------------------------------


class TestWhatIf:
    def test_live_state_is_not_perturbed(self, surrogate):
        service = make_service(surrogate)
        service.advance(4)
        state = service.state
        before = {
            "window": state.window,
            "mode": state.mode.copy(),
            "compliant": state.compliant.copy(),
            "violation": state.violation.copy(),
            "throttle": state.throttle.copy(),
            "timeline": state.timeline.copy(),
        }
        service.whatif(monitor=MonitorConfig(engage_fraction=0.9), horizon=6)
        assert state.window == before["window"]
        for field in ("mode", "compliant", "violation", "throttle"):
            assert np.array_equal(getattr(state, field), before[field])
        assert timelines_equal(state.timeline, before["timeline"])

    def test_query_does_not_change_future_windows(self, surrogate):
        plain = make_service(surrogate)
        queried = make_service(surrogate)
        plain.advance(3), queried.advance(3)
        queried.whatif(policy="uniform", horizon=8)
        plain.run(), queried.run()
        assert timelines_equal(plain.timeline, queried.timeline)

    def test_diff_structure(self, surrogate):
        service = make_service(surrogate)
        service.advance(2)
        result = service.whatif(policy="uniform", horizon=5)
        assert result["window"] == 2
        assert result["horizon"] == 5
        assert result["policy"] == "uniform"
        for key in ("violation_rate", "bmode_fraction", "mean_tail_ms"):
            assert result["diff"][key] == pytest.approx(
                result["whatif"][key] - result["live"][key]
            )

    def test_horizon_clamped_to_remaining(self, surrogate):
        service = make_service(surrogate)
        n = service.state.n_windows
        service.advance(n - 2)
        result = service.whatif(policy="uniform", horizon=50)
        assert result["horizon"] == 2

    def test_requires_a_change(self, surrogate):
        service = make_service(surrogate)
        with pytest.raises(ValueError, match="monitor, policy, placement, and/or scenario"):
            service.whatif()

    def test_whatif_after_done_raises(self, surrogate):
        service = make_service(surrogate)
        service.run()
        with pytest.raises(ValueError, match="no windows remaining"):
            service.whatif(policy="uniform")


class TestReconfigure:
    def test_swaps_policy_keeping_state(self, surrogate):
        service = make_service(surrogate)
        service.advance(3)
        timeline_rows = service.timeline.violations[:3].copy()
        result = service.reconfigure(policy="uniform")
        assert result["policy"] == "uniform"
        assert service.window == 3
        assert np.array_equal(service.timeline.violations[:3], timeline_rows)
        service.advance(1)
        assert service.window == 4

    def test_noop_rejected(self, surrogate):
        service = make_service(surrogate)
        with pytest.raises(ValueError):
            service.reconfigure()


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------


class TestControlPlane:
    def test_status_command(self, surrogate):
        service = make_service(surrogate)
        service.advance(2)
        response = handle_command(service, {"cmd": "status", "id": 7})
        assert response["ok"]
        assert response["id"] == 7
        assert response["result"]["window"] == 2
        assert response["result"]["metrics"]["windows"] == 16

    def test_whatif_command_with_monitor_overrides(self, surrogate):
        service = make_service(surrogate)
        service.advance(1)
        response = handle_command(service, {
            "cmd": "whatif",
            "monitor": {"engage_fraction": 0.8},
            "horizon": 3,
        })
        assert response["ok"]
        assert response["result"]["monitor"]["engage_fraction"] == 0.8
        # untouched fields keep the live config's values
        assert response["result"]["monitor"]["throttle_windows"] == (
            service.engine.config.monitor.throttle_windows
        )

    def test_checkpoint_and_stop_commands(self, surrogate, tmp_path):
        service = make_service(surrogate, store=ResultStore(tmp_path))
        service.advance(1)
        response = handle_command(service, {"cmd": "checkpoint"})
        assert response["ok"] and response["result"]["key"]
        response = handle_command(service, {"cmd": "stop"})
        assert response["ok"]
        assert service.stopped and service.stop_reason == "control"

    def test_reconfigure_command(self, surrogate):
        service = make_service(surrogate)
        response = handle_command(service, {
            "cmd": "reconfigure", "monitor": {"throttle_windows": 4},
        })
        assert response["ok"]
        assert service.engine.config.monitor.throttle_windows == 4

    @pytest.mark.parametrize("request_", [
        {"cmd": "warp"},
        {"cmd": "whatif", "monitor": {"not_a_field": 1}},
        {"cmd": "whatif"},
        {"_error": "bad control line"},
        "not a dict",
    ])
    def test_errors_never_raise(self, surrogate, request_):
        service = make_service(surrogate)
        response = handle_command(service, request_)
        assert not response["ok"]
        assert "error" in response

    def test_drain_parses_ldjson(self, surrogate):
        stream = io.StringIO(
            '{"cmd": "status"}\n\nnot json\n{"cmd": "stop"}\n'
        )
        plane = ControlPlane(stream)
        plane._thread.join(timeout=5.0)
        requests = plane.drain()
        assert len(requests) == 3
        assert requests[0] == {"cmd": "status"}
        assert "_error" in requests[1]
        assert requests[2] == {"cmd": "stop"}
        assert plane.drain() == []

    def test_run_answers_control_and_stops(self, surrogate):
        stream = io.StringIO('{"cmd": "status"}\n{"cmd": "stop"}\n')
        plane = ControlPlane(stream)
        plane._thread.join(timeout=5.0)
        out = io.StringIO()
        service = make_service(surrogate)
        summary = service.run(control=plane, out=out)
        assert summary["stopped"]
        assert summary["stop_reason"] == "control"
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["cmd"] for r in responses] == ["status", "stop"]
        assert all(r["ok"] for r in responses)

    def test_command_surface_is_documented(self):
        assert COMMANDS == (
            "status", "whatif", "checkpoint", "reconfigure", "dump", "stop"
        )


# ----------------------------------------------------------------------
# The api facade
# ----------------------------------------------------------------------


class TestServeFacade:
    def test_serve_builds_a_service(self, surrogate):
        from repro.api import serve

        service = serve(
            "web_search",
            performance=performance_model(),
            feed="flat:0.5",
            n_servers=8,
            window_minutes=120.0,
            requests_per_window=TEST_RPW,
            seed=5,
            surrogate=surrogate,
        )
        assert isinstance(service, FleetService)
        records = service.advance(2)
        assert records[0]["cluster_load"] == pytest.approx(0.5)

    def test_serve_resume_roundtrip(self, surrogate, tmp_path):
        from repro.api import serve

        store = ResultStore(tmp_path)
        kwargs = dict(
            performance=performance_model(),
            feed="web_search",
            n_servers=8,
            window_minutes=120.0,
            requests_per_window=TEST_RPW,
            seed=5,
            surrogate=surrogate,
            store=store,
        )
        service = serve("web_search", **kwargs)
        service.advance(4)
        key = service.checkpoint()["key"]
        resumed = serve("web_search", resume=key, **kwargs)
        assert resumed.window == 4
        service.run(), resumed.run()
        assert timelines_equal(service.timeline, resumed.timeline)

    def test_serve_requires_performance_or_batch(self):
        from repro.api import serve

        with pytest.raises(ValueError, match="performance model or a batch"):
            serve("web_search")
