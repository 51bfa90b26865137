"""Tests for the discrete-event queueing simulator."""

import numpy as np
import pytest

from repro.qos.queueing import (
    TRACKED_PERCENTILES,
    LatencyStats,
    MMPPConfig,
    ServiceSimulator,
)
from repro.workloads.profiles import QoSSpec

QOS = QoSSpec(target_ms=100.0, percentile=99.0, base_service_ms=8.0, service_cv=1.0)


def make_service(**kwargs) -> ServiceSimulator:
    return ServiceSimulator(QOS, n_workers=8, seed=1, **kwargs)


class TestMMPPConfig:
    def test_defaults_valid(self):
        MMPPConfig()

    def test_rate_ordering(self):
        with pytest.raises(ValueError):
            MMPPConfig(calm_rate=2.0, burst_rate=1.0)

    def test_burst_fraction_bounds(self):
        with pytest.raises(ValueError):
            MMPPConfig(burst_fraction=0.0)

    def test_mean_multiplier(self):
        m = MMPPConfig(calm_rate=1.0, burst_rate=3.0, burst_fraction=0.5)
        assert m.mean_multiplier == pytest.approx(2.0)


class TestLatencyStats:
    def test_from_latencies(self):
        stats = LatencyStats.from_latencies(np.array([1.0, 2.0, 3.0, 100.0]))
        assert stats.n_requests == 4
        assert stats.mean == pytest.approx(26.5)
        assert stats.max == 100.0

    def test_percentile_accessors(self):
        stats = LatencyStats.from_latencies(np.linspace(1, 100, 100))
        assert stats.percentile(50.0) == stats.p50
        assert stats.percentile(95.0) == stats.p95
        assert stats.percentile(99.0) == stats.p99

    def test_untracked_percentile(self):
        stats = LatencyStats.from_latencies(np.array([1.0]))
        with pytest.raises(ValueError):
            stats.percentile(90.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_latencies(np.array([]))


class TestRun:
    def test_latency_at_least_service_time(self):
        stats = make_service().run(0.01, n_requests=2000)
        # Sojourn time includes the full service time.
        assert stats.mean >= QOS.base_service_ms * 0.8

    def test_latency_monotone_in_rate(self):
        service = make_service()
        low = service.run(0.05, n_requests=4000)
        high = service.run(0.8, n_requests=4000)
        assert high.p99 >= low.p99

    def test_perf_factor_scales_service(self):
        service = make_service()
        full = service.run(0.05, perf_factor=1.0, n_requests=4000)
        half = service.run(0.05, perf_factor=0.5, n_requests=4000)
        assert half.mean == pytest.approx(2 * full.mean, rel=0.25)

    def test_common_random_numbers(self):
        service = make_service()
        a = service.run(0.2, n_requests=1000)
        b = service.run(0.2, n_requests=1000)
        assert a.p99 == b.p99

    def test_seed_offset_changes_draws(self):
        service = make_service()
        a = service.run(0.2, n_requests=1000, seed_offset=0)
        b = service.run(0.2, n_requests=1000, seed_offset=1)
        assert a.p99 != b.p99

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            make_service().run(0.0)

    def test_invalid_perf_factor(self):
        with pytest.raises(ValueError):
            make_service().run(0.1, perf_factor=0.0)
        with pytest.raises(ValueError):
            make_service().run(0.1, perf_factor=1.5)

    @pytest.mark.parametrize("n", [0, -5])
    def test_non_positive_request_count_rejected_at_entry(self, n, monkeypatch):
        service = make_service()

        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampled before validating n_requests")

        monkeypatch.setattr(service, "_sample_arrivals", must_not_sample)
        with pytest.raises(ValueError, match="n_requests must be positive"):
            service.run(0.1, n_requests=n)


class TestPeakLoad:
    def test_peak_meets_qos(self):
        service = make_service()
        peak = service.peak_load(n_requests=6000)
        assert service.meets_qos(service.run(peak, n_requests=6000))

    def test_above_peak_violates(self):
        service = make_service()
        peak = service.peak_load(n_requests=6000)
        assert not service.meets_qos(service.run(peak * 1.2, n_requests=6000))

    def test_peak_cached(self):
        service = make_service()
        assert service.peak_load(n_requests=6000) == service.peak_load(n_requests=6000)

    def test_latency_vs_load_series(self):
        service = make_service()
        points = service.latency_vs_load([0.2, 0.6, 1.0], n_requests=4000)
        assert [p[0] for p in points] == [0.2, 0.6, 1.0]
        assert points[-1][1].p99 >= points[0][1].p99

    def test_latency_vs_load_bad_fraction(self):
        with pytest.raises(ValueError):
            make_service().latency_vs_load([2.0], n_requests=1000)

    def test_latency_vs_load_validates_before_simulating(self, monkeypatch):
        service = make_service()

        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated before validating load fractions")

        monkeypatch.setattr(service, "run", must_not_run)
        with pytest.raises(ValueError, match="load fraction 1.5 out of range"):
            service.latency_vs_load([0.5, 1.5], n_requests=1000)

    @pytest.mark.parametrize("percentile", [90.0, 99.9, 100.0])
    def test_untracked_qos_percentile_rejected(self, percentile):
        qos = QoSSpec(target_ms=100.0, percentile=percentile,
                      base_service_ms=8.0)
        with pytest.raises(ValueError, match="percentile"):
            ServiceSimulator(qos)

    @pytest.mark.parametrize("percentile", TRACKED_PERCENTILES)
    def test_tracked_qos_percentiles_accepted(self, percentile):
        qos = QoSSpec(target_ms=100.0, percentile=percentile,
                      base_service_ms=8.0)
        service = ServiceSimulator(qos)
        stats = service.run(0.1, n_requests=200)
        assert service.meets_qos(stats) == (
            stats.percentile(percentile) <= qos.target_ms
        )

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ServiceSimulator(QOS, n_workers=0)
