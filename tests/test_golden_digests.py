"""Golden-digest regression tests for the figure harnesses.

Each test regenerates a fixed slice of a paper figure at quick fidelity
with a pinned seed, canonicalizes the result to JSON, and compares its
SHA-256 digest against the committed golden files in ``tests/golden/``.
Any change to the timing model — intentional or not — shows up here as a
digest mismatch with a field-level diff against the committed payload.

Refreshing after an *intentional* timing-model change::

    REPRO_GOLDEN_UPDATE=1 python -m pytest tests/test_golden_digests.py

and bump ``CACHE_VERSION`` in ``src/repro/engine/store.py`` in the same
commit, so content-addressed caches from the old model are evicted
everywhere (the digest files and the cache version must move together).

The slices are deliberately small (one service, two batch workloads, two
partition schemes) so the tests stay in tier-1 budget; the differential
sweep — not this file — is what proves engine equivalence.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cpu.sampling import SamplingConfig
from repro.experiments.common import Fidelity

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed figure slices: small, deterministic, still timing-sensitive.
LS_SUBSET = ("web_search",)
BATCH_SUBSET = ("zeusmp", "mcf")
FIG09_SCHEME_NAMES = ("56-136", "136-56")

_UPDATE = os.environ.get("REPRO_GOLDEN_UPDATE", "") == "1"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Fresh result store per test: digests must come from real simulation."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _diff(expected, actual, limit=10) -> str:
    """Field-level diff between two canonical payloads, first mismatches."""
    exp = dict(_flatten(expected))
    act = dict(_flatten(actual))
    lines = []
    for path in sorted(exp.keys() | act.keys()):
        a, b = exp.get(path, "<absent>"), act.get(path, "<absent>")
        if a != b:
            lines.append(f"  {path}: {a!r} -> {b!r}")
            if len(lines) >= limit:
                lines.append("  ... (more differences truncated)")
                break
    return "\n".join(lines) if lines else "  (payloads differ only in ordering)"


def _check_golden(name: str, payload) -> None:
    digest_path = GOLDEN_DIR / f"{name}.sha256"
    payload_path = GOLDEN_DIR / f"{name}.json"
    if _UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        payload_path.write_text(_canonical(payload) + "\n")
        digest_path.write_text(_digest(payload) + "\n")
        return
    assert digest_path.exists(), (
        f"missing golden digest {digest_path}; generate with "
        "REPRO_GOLDEN_UPDATE=1 python -m pytest tests/test_golden_digests.py"
    )
    expected_digest = digest_path.read_text().strip()
    actual_digest = _digest(payload)
    if actual_digest == expected_digest:
        return
    expected_payload = json.loads(payload_path.read_text())
    raise AssertionError(
        f"{name}: golden digest mismatch — the timing model's output "
        f"changed.\n"
        f"  expected sha256 {expected_digest}\n"
        f"  actual   sha256 {actual_digest}\n"
        f"field-level diff (committed -> regenerated):\n"
        f"{_diff(expected_payload, payload)}\n"
        "If this change is intentional, refresh the golden files "
        "(REPRO_GOLDEN_UPDATE=1 python -m pytest tests/test_golden_digests.py) "
        "AND bump CACHE_VERSION in src/repro/engine/store.py in the same "
        "commit, so stale content-addressed results are evicted."
    )


def _round(x: float) -> float:
    """Canonical float rounding: immune to last-ulp formatting drift."""
    return round(x, 12)


class TestGoldenDigests:
    def test_fig06_quick_digest(self, monkeypatch):
        from repro.experiments import fig06_rob_sensitivity as fig06

        monkeypatch.setattr(fig06, "LS_WORKLOADS", LS_SUBSET)
        monkeypatch.setattr(fig06, "BATCH_WORKLOADS", BATCH_SUBSET)
        result = fig06.run(Fidelity.quick(seed=42))
        payload = {
            "figure": "fig06",
            "fidelity": "quick",
            "seed": 42,
            "workloads": {"ls": list(LS_SUBSET), "batch": list(BATCH_SUBSET)},
            "curves": {
                series: {str(size): _round(v) for size, v in curve.items()}
                for series, curve in result.curves.items()
            },
        }
        _check_golden("fig06_quick", payload)

    def test_fig09_quick_digest(self, monkeypatch):
        from repro.experiments import fig09_stretch_modes as fig09

        monkeypatch.setattr(fig09, "LS_WORKLOADS", LS_SUBSET)
        monkeypatch.setattr(fig09, "BATCH_WORKLOADS", BATCH_SUBSET)
        schemes = tuple(
            s for s in fig09.ALL_SCHEMES if s.name in FIG09_SCHEME_NAMES
        )
        assert len(schemes) == len(FIG09_SCHEME_NAMES)
        result = fig09.run(Fidelity.quick(seed=42), schemes=schemes)
        payload = {
            "figure": "fig09",
            "fidelity": "quick",
            "seed": 42,
            "workloads": {"ls": list(LS_SUBSET), "batch": list(BATCH_SUBSET)},
            "by_scheme": {
                scheme: [
                    [ls, batch, _round(ls_sp), _round(batch_sp)]
                    for ls, batch, ls_sp, batch_sp in rows
                ]
                for scheme, rows in result.by_scheme.items()
            },
        }
        _check_golden("fig09_quick", payload)

    def test_ext_autotune_quick_digest(self):
        import dataclasses

        from repro.tune import PortfolioEntry, TuneSpace, tune_monitor
        from repro.workloads.registry import get_profile
        from tests.test_fleet import fleet_config, performance_model

        # A small but fully adversarial slice: three scenario families,
        # a 24-point grid, hand-built performance model (no core sim).
        result = tune_monitor(
            get_profile("web_search"),
            performance_model(),
            fleet_config(n_servers=16),
            portfolio=(
                PortfolioEntry(scenario="calm"),
                PortfolioEntry(scenario="stragglers", weight=2.0),
                PortfolioEntry(scenario="incident"),
            ),
            space=TuneSpace(
                engage_fraction=(0.5, 0.6, 0.7),
                engage_windows=(2, 3),
                violation_windows_to_throttle=(2, 3),
                throttle_windows=(6, 10),
            ),
            n_trials=3,
            descent_rounds=1,
            seed=11,
        )
        payload = {
            "experiment": "ext_autotune",
            "fidelity": "quick",
            "seed": 11,
            "n_servers": 16,
            "fleet_days": result.fleet_runs + result.cached_runs,
            "candidates": len(result.candidates),
            "monitors": {
                label: dataclasses.asdict(cand.monitor)
                for label, cand in (
                    ("default", result.default), ("best", result.best),
                )
            },
            "scores": {
                "default": _round(result.default.score),
                "best": _round(result.best.score),
            },
            "outcomes": {
                label: {
                    o.scenario: {
                        "violation_rate": _round(o.violation_rate),
                        "mean_batch_uipc": _round(o.mean_batch_uipc),
                        "bmode_fraction": _round(o.bmode_fraction),
                        "throttled_fraction": _round(o.throttled_fraction),
                    }
                    for o in cand.outcomes
                }
                for label, cand in (
                    ("default", result.default), ("best", result.best),
                )
            },
            "dominating_scenarios": list(result.dominating_scenarios),
        }
        _check_golden("ext_autotune_quick", payload)

    def test_core_pair_event_log_digest(self):
        """Per-µop dispatch log of one seeded pair run, frozen byte-for-byte.

        ``ReferenceCore`` records no event log, so this digest is the
        byte-level pin on ``SMTCore.event_log``: it was recorded while
        the event-skipping loop and the per-cycle loop it replaced were
        still proven identical on this exact run.
        """
        import dataclasses
        import random

        from repro.cpu.config import CoreConfig
        from repro.cpu.smt_core import SMTCore
        from tests.test_core_event_horizon import _traces

        traces = _traces(random.Random(7), 2)
        core = SMTCore(CoreConfig().with_rob_partition(56, 136), traces)
        core.event_log = []
        result = core.run(400, warmup_instructions=200,
                          require_all_threads=True)
        payload = {
            "workloads": [t.name for t in traces],
            "rob_partition": [56, 136],
            "final_cycle": core.cycle,
            "result": dataclasses.asdict(result),
            "event_log": [list(entry) for entry in core.event_log],
        }
        _check_golden("core_pair_event_log", payload)


def _latency_fields(stats) -> dict:
    import dataclasses

    return {k: _round(float(v)) for k, v in dataclasses.asdict(stats).items()}


class TestQueueingGoldenDigests:
    """Pins on the queueing DES (Figs. 1-2, tail surrogate).

    Any change to ``ServiceSimulator.run`` that moves one ``LatencyStats``
    field of these seeded runs fails here.
    """

    def test_fig01_quick_digest(self):
        from repro.experiments import fig01_latency_vs_load as fig01

        result = fig01.run(Fidelity.quick(seed=42))
        payload = {
            "figure": "fig01",
            "fidelity": "quick",
            "qos_target_ms": _round(result.qos_target_ms),
            "points": [
                [_round(load), _latency_fields(stats)]
                for load, stats in result.points
            ],
        }
        _check_golden("fig01_quick", payload)

    def test_fig02_slack_slice_digest(self):
        from repro.qos.slack import slack_curve
        from repro.workloads.registry import get_profile

        loads = [0.2, 0.5, 0.8]
        curve = slack_curve(get_profile("web_search"), loads, n_requests=4000)
        payload = {
            "figure": "fig02",
            "workload": "web_search",
            "n_requests": 4000,
            "curve": [[_round(load), _round(req)] for load, req in curve],
        }
        _check_golden("fig02_slack_slice", payload)

    def test_tail_surrogate_fit_digest(self):
        from repro.fleet.surrogate import SurrogateGrid, fit_tail_surrogate
        from repro.workloads.registry import get_profile

        grid = SurrogateGrid(
            loads=(0.1, 0.5, 0.9, 1.2), n_requests=1000, peak_requests=4000,
            n_reps=2, n_val_reps=1,
        )
        qos = get_profile("web_search").qos
        surrogate = fit_tail_surrogate(qos, (0.6, 1.0), grid)
        payload = {
            "surrogate": "tail",
            "workload": "web_search",
            "grid": {
                "loads": list(grid.loads), "n_requests": grid.n_requests,
                "peak_requests": grid.peak_requests, "n_reps": grid.n_reps,
                "n_val_reps": grid.n_val_reps,
            },
            "values": [_round(v) for v in surrogate.to_values()],
        }
        _check_golden("tail_surrogate_fit", payload)

    def test_uipc_surrogate_fit_digest(self):
        from repro.cpu.surrogate import UipcFitJob
        from repro.experiments.common import config_all_shared, config_solo

        fits = {
            "solo": (
                UipcFitJob("solo", ("gamess",), config_solo(), UIPC_TINY),
                (16, 24, 40, 96, 150, 192),
            ),
            "pair": (
                UipcFitJob(
                    "pair", ("web_search", "gamess"), config_all_shared(),
                    UIPC_TINY,
                ),
                (32, 44, 72, 96, 120, 160),
            ),
        }
        payload = {"surrogate": "uipc", "sampling": repr(UIPC_TINY)}
        for kind, (job, xs) in fits.items():
            values = job.run()
            surrogate = job.load(values)
            payload[kind] = {
                "workloads": list(job.workloads),
                "values": [_round(v) for v in values],
                "xs": list(xs),
                "predict": [
                    [_round(v) for v in surrogate.predict_many(xs, thread=t)]
                    for t in range(len(job.workloads))
                ],
            }
        _check_golden("uipc_surrogate_fit", payload)


#: Tiny exact-sampler config for the UIPC surrogate pins (2 windows).
UIPC_TINY = SamplingConfig(
    n_samples=2, warmup_instructions=500, measure_instructions=600, seed=11
)


class TestSurrogateFitKeys:
    """Pin the store keys of both surrogate fit jobs.

    A fit is content-addressed by its job key; if the key of an unchanged
    job moves, every warm store silently refits.  A deliberate
    ``CACHE_VERSION`` or surrogate-version bump updates these literals.
    """

    def test_tail_fit_key(self):
        from repro.fleet.surrogate import SurrogateFitJob, SurrogateGrid
        from repro.workloads.registry import get_profile

        job = SurrogateFitJob(
            get_profile("web_search").qos,
            (1.0, 0.6),
            SurrogateGrid(
                loads=(0.1, 0.5, 0.9, 1.2), n_requests=1000,
                peak_requests=4000, n_reps=2, n_val_reps=1,
            ),
        )
        assert job.key == TAIL_FIT_KEY

    def test_uipc_fit_keys(self):
        from repro.cpu.surrogate import UipcFitJob
        from repro.experiments.common import config_all_shared, config_solo

        solo = UipcFitJob("solo", ("gamess",), config_solo(), UIPC_TINY)
        pair = UipcFitJob(
            "pair", ("web_search", "gamess"), config_all_shared(), UIPC_TINY
        )
        assert (solo.key, pair.key) == UIPC_FIT_KEYS


TAIL_FIT_KEY = (
    "69b6d44ac048ab53cc6e75a3ad047ccd9946fccd0ad5733754e09ab168bec892"
)
UIPC_FIT_KEYS = (
    "60b009e61498d6fd59dfdfb6a8e8962108da2e037066a4a05c525b5852712bef",
    "5b07f70317175fa8a76a5056f5f6a114948d62d5b0979a293d9120235b24d7c9",
)


#: Fleet-day golden config: 8 servers, 60-minute windows, 500 requests.
FLEET_GOLDEN = dict(n_servers=8, window_minutes=60.0, requests_per_window=500)


def _fleet_payload(timeline, path: str, grid=None) -> dict:
    """Every :class:`~repro.fleet.engine.FleetTimeline` field, canonical."""
    payload = {
        "path": path,
        "load": "web_search",
        "config": dict(FLEET_GOLDEN, seed=5),
        "n_servers": timeline.n_servers,
        "window_minutes": timeline.window_minutes,
        "hours": [_round(float(h)) for h in timeline.hours],
        "mode_counts": timeline.mode_counts.astype(int).tolist(),
        "violations": timeline.violations.astype(int).tolist(),
        "throttled": timeline.throttled.astype(int).tolist(),
        "server_violations": timeline.server_violations.astype(int).tolist(),
        "server_bmode_windows": (
            timeline.server_bmode_windows.astype(int).tolist()
        ),
        "tail_ms_sum": [_round(float(v)) for v in timeline.tail_ms_sum],
        "batch_uipc_sum": [_round(float(v)) for v in timeline.batch_uipc_sum],
    }
    if grid is not None:
        payload["grid"] = {
            "loads": list(grid.loads), "n_requests": grid.n_requests,
            "peak_requests": grid.peak_requests, "n_reps": grid.n_reps,
            "n_val_reps": grid.n_val_reps,
        }
    return payload


class TestFleetGoldenDigests:
    """Pins on whole fleet days: the exact-tail and the default surrogate path.

    The exact-tail golden was recorded while the library's per-object
    cluster loop, since removed, still matched it (integers equal, floats
    within 1e-12 relative); that loop lives on as the oracle
    ``repro.check.reference.reference_fleet_day``.
    """

    def test_fleet_exact_day_digest(self):
        from repro.fleet import FleetEngine
        from repro.workloads.registry import get_profile
        from tests.test_fleet import fleet_config, performance_model

        timeline = FleetEngine(
            get_profile("web_search"), performance_model(),
            fleet_config(**FLEET_GOLDEN),
        ).run_day("web_search", tail="exact")
        _check_golden("fleet_exact_day", _fleet_payload(timeline, "exact"))

    def test_fleet_vectorized_day_digest(self):
        from repro.fleet import FleetEngine, SurrogateGrid, fit_tail_surrogate
        from repro.workloads.registry import get_profile
        from tests.test_fleet import fleet_config, performance_model

        profile = get_profile("web_search")
        grid = SurrogateGrid(
            loads=(0.02, 0.3, 0.6, 0.9, 1.2), n_requests=500,
            peak_requests=4000, n_reps=4, n_val_reps=1,
        )
        engine = FleetEngine(
            profile, performance_model(), fleet_config(**FLEET_GOLDEN)
        )
        surrogate = fit_tail_surrogate(profile.qos, engine.perf_factors, grid)
        timeline = FleetEngine(
            profile, performance_model(), fleet_config(**FLEET_GOLDEN),
            surrogate=surrogate,
        ).run_day("web_search", tail="surrogate")
        _check_golden(
            "fleet_vectorized_day",
            _fleet_payload(timeline, "vectorized", grid),
        )


class TestServiceCheckpointGolden:
    """Pin on the bytes a live-service checkpoint writes to the store.

    A seeded small :class:`~repro.service.FleetService` (the
    ``tests/test_service.py`` fixture: 8 servers, 120-minute windows)
    advances 5 windows and checkpoints into a fresh disk store.  The
    content-addressed key and the SHA-256 of the entry file must not
    move: a resumable checkpoint written by an older build has to stay
    addressable and readable by a newer one.
    """

    def test_service_checkpoint_digest(self, tmp_path):
        from repro.engine.store import CACHE_VERSION, ResultStore
        from repro.fleet import FleetEngine, fit_tail_surrogate
        from repro.service import CHECKPOINT_VERSION
        from repro.workloads.registry import get_profile
        from tests.test_service import (
            TEST_GRID,
            fleet_config,
            make_service,
            performance_model,
        )

        profile = get_profile("web_search")
        perf_factors = FleetEngine(
            profile, performance_model(), fleet_config()
        ).perf_factors
        surrogate = fit_tail_surrogate(profile.qos, perf_factors, TEST_GRID)
        store = ResultStore(tmp_path / "store")
        service = make_service(surrogate, store=store)
        service.advance(5)
        key = service.checkpoint()["key"]
        entry = (store.entry_dir / f"{key}.json").read_bytes()
        payload = {
            "checkpoint": "fleet_service",
            "config": {"n_servers": 8, "window_minutes": 120.0, "seed": 5},
            "windows": 5,
            "cache_version": CACHE_VERSION,
            "checkpoint_version": CHECKPOINT_VERSION,
            "key": key,
            "entry_bytes": len(entry),
            "entry_sha256": hashlib.sha256(entry).hexdigest(),
        }
        _check_golden("service_checkpoint", payload)
