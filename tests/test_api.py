"""Tests for the stable `repro.api` facade and its deprecation shim."""

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.core.colocation import (
    ColocationPerformance,
    ModePerformance,
    _measure_modes,
)
from repro.core.partitioning import DEFAULT_B_MODE
from repro.core.stretch import StretchMode
from repro.cpu.sampling import SamplingConfig
from repro.experiments.common import Fidelity
from repro.fleet import FleetTimeline
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


class TestResolveSampling:
    def test_defaults_to_library_sampling(self):
        assert api._resolve_sampling(None, None, None, None) == SamplingConfig()

    def test_sampling_with_overrides(self):
        base = SamplingConfig(n_samples=4, seed=1)
        out = api._resolve_sampling(base, None, 9, 2)
        assert out == dataclasses.replace(base, seed=9, n_samples=2)

    def test_fidelity_names(self):
        quick = api._resolve_sampling(None, "quick", None, None)
        assert quick == Fidelity.quick(42).sampling
        seeded = api._resolve_sampling(None, "full", 7, None)
        assert seeded == Fidelity.full(7).sampling
        explicit = api._resolve_sampling(None, Fidelity.quick(3), None, None)
        assert explicit == Fidelity.quick(3).sampling

    def test_conflicts_and_unknowns(self):
        with pytest.raises(ValueError, match="not both"):
            api._resolve_sampling(SamplingConfig(), "quick", None, None)
        with pytest.raises(ValueError, match="fidelity"):
            api._resolve_sampling(None, "medium", None, None)


class TestSimulate(object):
    def test_solo_matches_measure_reference(self, tiny_sampling):
        solo = api.simulate("web_search", sampling=tiny_sampling)
        perf = api.measure("web_search", "zeusmp", sampling=tiny_sampling)
        assert solo == perf.ls_solo_uipc

    def test_pair_modes(self, tiny_sampling):
        perf = api.measure("web_search", "zeusmp", sampling=tiny_sampling)
        baseline = api.simulate(
            ("web_search", "zeusmp"), sampling=tiny_sampling
        )
        assert baseline == (
            perf.per_mode[StretchMode.BASELINE].ls_uipc,
            perf.per_mode[StretchMode.BASELINE].batch_uipc,
        )
        for mode_spec in ("b_mode", StretchMode.B_MODE, DEFAULT_B_MODE):
            pair = api.simulate(
                ("web_search", "zeusmp"), mode=mode_spec,
                sampling=tiny_sampling,
            )
            assert pair == (
                perf.per_mode[StretchMode.B_MODE].ls_uipc,
                perf.per_mode[StretchMode.B_MODE].batch_uipc,
            )

    def test_engines_agree(self, tiny_sampling):
        stored = api.simulate("web_search", sampling=tiny_sampling)
        direct = api.simulate(
            "web_search", sampling=tiny_sampling, engine="direct"
        )
        assert stored == direct

    def test_rejections(self, tiny_sampling):
        with pytest.raises(ValueError, match="pairs only"):
            api.simulate("web_search", mode="b_mode", sampling=tiny_sampling)
        with pytest.raises(ValueError, match="engine"):
            api.simulate("web_search", engine="quantum", sampling=tiny_sampling)
        with pytest.raises(ValueError, match="unknown mode"):
            api.simulate(
                ("web_search", "zeusmp"), mode="turbo", sampling=tiny_sampling
            )


class TestMeasure:
    def test_matches_legacy_implementation(self, tiny_sampling):
        ls, batch = get_profile("web_search"), get_profile("zeusmp")
        # The store path rebuilds the direct sampler's job grid.
        direct = _measure_modes(ls, batch, sampling=tiny_sampling)
        facade = api.measure("web_search", "zeusmp", sampling=tiny_sampling)
        assert facade == direct

    def test_q_mode_none_copies_baseline(self, tiny_sampling):
        perf = api.measure(
            "web_search", "zeusmp", q_mode=None, sampling=tiny_sampling
        )
        assert perf.per_mode[StretchMode.Q_MODE] == (
            perf.per_mode[StretchMode.BASELINE]
        )

    def test_unregistered_profile_falls_back_to_direct(self, tiny_sampling):
        custom = dataclasses.replace(
            get_profile("web_search"), description="locally tweaked"
        )
        perf = api.measure(custom, "zeusmp", sampling=tiny_sampling)
        assert perf.ls_workload == "web_search"
        assert perf.ls_solo_uipc > 0.0


FLEET_FIELDS = (
    "hours", "mode_counts", "violations", "throttled", "tail_ms_sum",
    "batch_uipc_sum", "server_violations", "server_bmode_windows",
)


def assert_same_timeline(a: FleetTimeline, b: FleetTimeline) -> None:
    assert (a.n_servers, a.window_minutes) == (b.n_servers, b.window_minutes)
    for name in FLEET_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestDeprecationShims:
    """``run_fleet(engine="legacy")`` is an alias of ``engine="exact"``."""

    COMMON = dict(
        performance=performance_model(), load="web_search",
        n_servers=2, window_minutes=480, requests_per_window=200, seed=5,
    )

    def test_legacy_engine_warns_and_runs_exact(self):
        with pytest.deprecated_call(match='engine="exact"'):
            legacy = api.run_fleet(
                "web_search", engine="legacy", **self.COMMON
            )
        exact = api.run_fleet("web_search", engine="exact", **self.COMMON)
        assert_same_timeline(legacy, exact)

    @pytest.mark.parametrize("setting", [
        {"policy": "uniform"},
        {"n_workers": 4},
    ])
    def test_legacy_alias_honours_settings_it_used_to_ignore(self, setting):
        # The removed per-object loop ignored policy= and n_workers=; the
        # alias forwards them to the exact engine like any other setting.
        kwargs = dict(self.COMMON, **setting)
        with pytest.deprecated_call(match='engine="exact"'):
            legacy = api.run_fleet("web_search", engine="legacy", **kwargs)
        exact = api.run_fleet("web_search", engine="exact", **kwargs)
        assert_same_timeline(legacy, exact)
        default = api.run_fleet("web_search", engine="exact", **self.COMMON)
        assert not np.array_equal(legacy.tail_ms_sum, default.tail_ms_sum)

    def test_removed_shims_are_gone(self):
        import importlib

        import repro
        import repro.core
        from repro.experiments import common

        assert not hasattr(repro, "measure_colocation_performance")
        assert not hasattr(repro.core, "measure_colocation_performance")
        assert not hasattr(repro.core, "ClusterSimulator")
        assert not hasattr(common, "fidelity_from_env")
        assert not hasattr(FleetTimeline, "from_cluster")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.cluster")


class TestRunDay:
    def test_fixed_monitor_day(self):
        timeline = api.run_day(
            "web_search", performance=performance_model(),
            load="flat:0.3", window_minutes=240, requests_per_window=300,
            seed=11,
        )
        assert len(timeline.windows) == 6
        assert all(w.load_fraction == pytest.approx(0.3) for w in timeline.windows)

    def test_adaptive_day(self):
        from repro.core.adaptive import AdaptiveStretchPolicy
        from repro.core.partitioning import B_MODES

        perf = performance_model()
        qos = get_profile("web_search").qos
        policy = AdaptiveStretchPolicy(qos, perf, tuple(B_MODES))
        timeline = api.run_day(
            "web_search", performance=perf, load="flat:0.2",
            adaptive=policy, window_minutes=240, requests_per_window=300,
            seed=11,
        )
        assert len(timeline.windows) == 6
        assert any(w.scheme != "96-96" for w in timeline.windows)

    def test_callable_load_and_missing_model(self):
        timeline = api.run_day(
            "web_search", performance=performance_model(),
            load=lambda hour: 0.25, window_minutes=480,
            requests_per_window=200,
        )
        assert len(timeline.windows) == 3
        with pytest.raises(ValueError, match="performance model"):
            api.run_day("web_search")


class TestRunFleet:
    def test_exact_and_legacy_engines_agree(self):
        common = dict(
            performance=performance_model(), load="web_search",
            n_servers=2, window_minutes=480, requests_per_window=200,
            seed=5,
        )
        exact = api.run_fleet("web_search", engine="exact", **common)
        with pytest.deprecated_call():
            legacy = api.run_fleet("web_search", engine="legacy", **common)
        assert isinstance(exact, FleetTimeline)
        assert isinstance(legacy, FleetTimeline)
        assert_same_timeline(exact, legacy)

    def test_unknown_engine_and_missing_model(self):
        with pytest.raises(ValueError, match="engine must be"):
            api.run_fleet(
                "web_search", performance=performance_model(),
                engine="warp",
            )
        with pytest.raises(ValueError, match="performance model"):
            api.run_fleet("web_search")

    def test_engine_validated_before_measuring(self, monkeypatch):
        # A bad engine must fail fast, not after measuring the pair.
        def no_measure(*args, **kwargs):
            raise AssertionError("run_fleet measured before checking engine")

        monkeypatch.setattr(api, "measure", no_measure)
        with pytest.raises(ValueError, match="engine must be"):
            api.run_fleet("web_search", batch="zeusmp", engine="warp")

    def test_facade_exported_from_package_root(self):
        import repro

        assert repro.simulate is api.simulate
        assert repro.measure is api.measure
        assert repro.run_day is api.run_day
        assert repro.run_fleet is api.run_fleet
        for name in ("simulate", "measure", "run_day", "run_fleet"):
            assert name in repro.__all__
