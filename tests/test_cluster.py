"""Tests for the per-server cluster loop, `reference_fleet_day`.

The oracle behind the exact-tail fleet path is itself the paper's §II
cluster: one colocated server per slot, each with its own jittered share
of the cluster load, its own monitor and its own request streams.  These
tests pin that behaviour independently of the fleet engine.
"""

import numpy as np
import pytest

from repro.check.reference import reference_fleet_day
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.stretch import StretchMode
from repro.fleet import FleetConfig, FleetEngine, FleetTimeline
from repro.qos.diurnal import web_search_cluster_load
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


def cluster_config(**kwargs) -> FleetConfig:
    defaults = dict(n_servers=3, seed=5, window_minutes=60.0,
                    requests_per_window=500)
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def run_cluster(load=web_search_cluster_load, **kwargs) -> FleetTimeline:
    return reference_fleet_day(
        get_profile("web_search"), performance_model(),
        cluster_config(**kwargs), load,
    )


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_cluster(n_servers=0)
        with pytest.raises(ValueError):
            run_cluster(overprovision=0.8)
        with pytest.raises(ValueError):
            run_cluster(balance_jitter=0.7)


class TestRunDay:
    @pytest.fixture(scope="class")
    def timeline(self):
        return run_cluster()

    def test_per_server_timelines(self, timeline):
        assert timeline.n_servers == 3
        assert timeline.n_windows == 24
        assert timeline.server_violations.shape == (3,)
        # Every server reports exactly one mode per window.
        assert np.all(timeline.mode_counts.sum(axis=1) == 3)

    def test_servers_differ_by_jitter(self, timeline):
        # With zero jitter every server sees the plain over-provisioned
        # share (the uniform balancer); the default jitter moves the day.
        flat = run_cluster(balance_jitter=0.0)
        uniform = FleetEngine(
            get_profile("web_search"), performance_model(),
            cluster_config(policy="uniform"),
        ).run_day(web_search_cluster_load, tail="exact")
        assert np.array_equal(flat.mode_counts, uniform.mode_counts)
        assert np.allclose(flat.tail_ms_sum, uniform.tail_ms_sum,
                           rtol=1e-12, atol=0.0)
        assert not np.array_equal(timeline.tail_ms_sum, flat.tail_ms_sum)

    def test_offpeak_bmode_engagement(self, timeline):
        # Over-provisioned cluster spends most of the day below threshold.
        assert timeline.bmode_fraction > 0.3

    def test_violations_bounded(self, timeline):
        assert timeline.violation_rate < 0.3

    def test_cluster_gain_positive(self, timeline):
        gain = timeline.batch_throughput_gain(0.50)
        assert gain > 0.0
        mean_uipc = timeline.batch_uipc_sum.sum() / timeline.total_windows
        assert abs(gain - (mean_uipc / 0.50 - 1.0)) < 1e-12

    def test_reproducible(self):
        def run():
            t = run_cluster(lambda h: 0.5, n_servers=2, seed=9,
                            window_minutes=120.0, requests_per_window=400)
            return t.violation_rate, t.bmode_fraction

        assert run() == run()


class TestEmptyTimeline:
    def test_aggregates(self):
        # Windows longer than the day leave no window to simulate.
        t = run_cluster(window_minutes=3000.0)
        assert t.n_windows == 0
        assert t.violation_rate == 0.0
        assert t.bmode_fraction == 0.0
        assert t.batch_throughput_gain(1.0) == 0.0
