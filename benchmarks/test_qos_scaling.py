"""Queueing DES benchmark: ``ServiceSimulator.run`` vs its oracle, requests/sec.

Times the production kernel (one heap operation per request, queue
depths vectorized after the loop) against
:func:`repro.check.reference.reference_service_run`, the plain two-heap
loop it replaced, at low, mid and near-peak load (8 workers, 20 000
requests — the Fig. 1 configuration).  GC is disabled, the two engines
are interleaved on every repeat, the median of ``REPEATS`` is kept, and
every timed run asserts field-for-field equal ``LatencyStats``.  The
numbers go to ``benchmarks/results/BENCH_qos.json``.

The JSON doubles as the CI perf baseline, with the same rules as
``test_core_scaling.py``: before overwriting it, the test compares each
load point's speedup (production/oracle — a machine-relative ratio)
against the committed value and fails on a >25 % regression; the
production kernel must also never lose to the oracle.  Refresh the
baseline by committing the regenerated file after an intentional change.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import statistics
import time
from pathlib import Path

from repro.check.reference import reference_service_run
from repro.qos.queueing import ServiceSimulator
from repro.workloads.registry import get_profile

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_qos.json"

SERVICE = "web_search"
N_WORKERS = 8
N_REQUESTS = 20000
SEED = 7
#: Load points as fractions of the simulator's peak (QoS-meeting) load.
LOADS = (("low", 0.2), ("mid", 0.6), ("near_peak", 0.95))
REPEATS = 5

#: Fail CI when a load point's speedup drops >25 % below the committed value.
REGRESSION_TOLERANCE = 0.25


def _bench_load(sim: ServiceSimulator, rate: float) -> tuple[float, float]:
    """Interleaved oracle/production timing; returns requests/s for each."""
    timings = {"reference": [], "production": []}
    for _ in range(REPEATS):
        results = {}
        for name, run in (
            ("reference", lambda: reference_service_run(sim, rate, 1.0, N_REQUESTS)),
            ("production", lambda: sim.run(rate, 1.0, N_REQUESTS)),
        ):
            gc.collect()
            start = time.process_time()
            results[name] = run()
            elapsed = time.process_time() - start
            timings[name].append(N_REQUESTS / elapsed)
        assert dataclasses.asdict(results["production"]) == dataclasses.asdict(
            results["reference"]
        ), "ServiceSimulator.run diverged from reference_service_run"
    return (
        statistics.median(timings["reference"]),
        statistics.median(timings["production"]),
    )


def _load_baseline() -> dict:
    if not BENCH_PATH.exists():
        return {}
    try:
        return json.loads(BENCH_PATH.read_text()).get("loads", {})
    except (json.JSONDecodeError, AttributeError):
        return {}


def test_qos_scaling(save_result):
    baseline = _load_baseline()
    sim = ServiceSimulator(get_profile(SERVICE).qos, n_workers=N_WORKERS, seed=SEED)
    peak = sim.peak_load(n_requests=N_REQUESTS)
    gc.disable()
    try:
        loads = {}
        regressions = []
        for name, fraction in LOADS:
            reference_rps, production_rps = _bench_load(sim, peak * fraction)
            speedup = production_rps / reference_rps
            loads[name] = {
                "load_fraction": fraction,
                "reference_rps": round(reference_rps),
                "production_rps": round(production_rps),
                "speedup": round(speedup, 2),
            }
            prior = baseline.get(name, {}).get("speedup")
            if prior and speedup < prior * (1.0 - REGRESSION_TOLERANCE):
                regressions.append(
                    f"{name}: speedup {speedup:.2f}x is >"
                    f"{REGRESSION_TOLERANCE:.0%} below committed baseline "
                    f"{prior:.2f}x"
                )
    finally:
        gc.enable()

    payload = {
        "service": SERVICE,
        "n_workers": N_WORKERS,
        "n_requests": N_REQUESTS,
        "seed": SEED,
        "repeats": REPEATS,
        "loads": loads,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    save_result(
        "qos_scaling",
        "\n".join(
            f"{name} ({s['load_fraction']:.0%} of peak): reference "
            f"{s['reference_rps']}/s production {s['production_rps']}/s "
            f"= {s['speedup']}x"
            for name, s in loads.items()
        ),
    )

    assert not regressions, "; ".join(regressions)
    for name, s in loads.items():
        assert s["speedup"] > 1.0, (
            f"{name}: ServiceSimulator.run slower than the oracle "
            f"({s['speedup']}x)"
        )
