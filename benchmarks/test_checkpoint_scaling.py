"""Checkpoint benchmark: ``save_checkpoint`` vs the old writer, and the read path.

A live ``stretch-repro serve`` checkpoints its whole ``FleetState``: four
per-server monitor arrays, the per-server timeline counters and the
per-window rows — 302 023 floats for a 50k-server, 5-minute-window day.
The production writer flattens that state once into a float64 array,
hashes the array's bytes for the key, and writes the entry with the C JSON
encoder (``json.dumps``).  :func:`reference_save_checkpoint`, kept here as
the baseline, is the writer it replaced: it flattened the state twice, one
Python float at a time, re-packed the first flatten into an array to hash
it, and wrote with ``json.dump`` — which runs CPython's pure-Python
encoder.  Both must produce the same key and the same entry bytes; every
timed repeat asserts it.

Protocol: GC disabled, the two writers interleaved on every repeat,
``time.process_time`` (entry writes are included), median and IQR of
``REPEATS``.  ``load_checkpoint`` is timed from disk (memory layer
dropped) and must return the saved state bit for bit.  The numbers go to
``benchmarks/results/BENCH_checkpoint.json``.

The JSON doubles as the CI perf baseline, with the rules of
``test_qos_scaling.py``: each size's save speedup (reference/production —
a machine-relative ratio) may not fall >25 % below the committed value,
and the production writer must never lose to the reference.  Refresh the
baseline by committing the regenerated file after an intentional change.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.engine.store import CACHE_VERSION, ResultStore
from repro.fleet.engine import FleetState, FleetTimeline
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_checkpoint.json"

SIZES = (10_000, 50_000)
#: A day of 5-minute windows, half of it served (the serve-ops shape).
N_WINDOWS = 288
WINDOW_MINUTES = 5.0
COMPLETED = 144
SEED = 3
IDENTITY = "bench-identity"
REPEATS = 5

#: Fail CI when a size's speedup drops >25 % below the committed value.
REGRESSION_TOLERANCE = 0.25


def reference_save_checkpoint(directory: Path, identity: str, state: FleetState) -> str:
    """The old checkpoint writer, step for step; returns the key."""

    def flatten() -> tuple[float, ...]:
        timeline = state.timeline
        return tuple(
            [float(state.lo), float(state.hi), float(state.window)]
            + [float(v) for v in state.mode]
            + [float(v) for v in state.compliant]
            + [float(v) for v in state.violation]
            + [float(v) for v in state.throttle]
            + [
                float(timeline.n_servers),
                float(timeline.shard_lo),
                float(timeline.n_windows),
                float(timeline.window_minutes),
            ]
            + [float(v) for v in timeline.mode_counts.ravel()]
            + [float(v) for v in timeline.violations]
            + [float(v) for v in timeline.throttled]
            + [float(v) for v in timeline.tail_ms_sum]
            + [float(v) for v in timeline.batch_uipc_sum]
            + [float(v) for v in timeline.server_violations]
            + [float(v) for v in timeline.server_bmode_windows]
        )

    digest = hashlib.sha256(np.asarray(flatten(), dtype=np.float64).tobytes()).hexdigest()
    key = hashlib.sha256(repr((
        CACHE_VERSION, CHECKPOINT_VERSION, "fleet-checkpoint", identity,
        int(state.window), digest,
    )).encode()).hexdigest()
    values = tuple(float(v) for v in flatten())
    path = directory / f"v{CACHE_VERSION}" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{key[:16]}.", suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        json.dump(list(values), handle)
    os.replace(tmp, path)
    return key


def make_state(n_servers: int) -> FleetState:
    """A seeded mid-day state of serve-ops' shape (counts, sums, streaks)."""
    rng = np.random.default_rng([SEED, n_servers])
    timeline = FleetTimeline.empty(n_servers, N_WINDOWS, WINDOW_MINUTES)
    done = COMPLETED
    timeline.mode_counts[:done] = rng.multinomial(n_servers, [0.5, 0.3, 0.2], done)
    timeline.violations[:done] = rng.binomial(n_servers, 0.02, done)
    timeline.throttled[:done] = rng.binomial(n_servers, 0.01, done)
    timeline.tail_ms_sum[:done] = rng.gamma(4.0, 20.0, done) * n_servers
    timeline.batch_uipc_sum[:done] = rng.uniform(0.4, 0.6, done) * n_servers
    timeline.server_violations[:] = rng.binomial(done, 0.02, n_servers)
    timeline.server_bmode_windows[:] = rng.binomial(done, 0.3, n_servers)
    return FleetState(
        lo=0,
        hi=n_servers,
        window=done,
        mode=rng.integers(0, 3, n_servers),
        compliant=rng.integers(0, 12, n_servers),
        violation=rng.integers(0, 3, n_servers),
        throttle=rng.integers(0, 2, n_servers),
        timeline=timeline,
    )


def _quartiles(samples: list[float]) -> tuple[float, float]:
    q1, __, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q3


def _timed(fn):
    gc.collect()
    start = time.process_time()
    out = fn()
    return out, time.process_time() - start


def _bench_size(n_servers: int, workdir: Path) -> dict:
    state = make_state(n_servers)
    saved = state.to_array().tobytes()
    reference_dir = workdir / f"reference-{n_servers}"
    store = ResultStore(workdir / f"production-{n_servers}")
    timings = {"reference": [], "save": [], "load": []}
    entry_bytes = 0
    for _ in range(REPEATS):
        ref_key, ref_s = _timed(lambda: reference_save_checkpoint(reference_dir, IDENTITY, state))
        key, save_s = _timed(lambda: save_checkpoint(store, IDENTITY, state))
        timings["reference"].append(ref_s)
        timings["save"].append(save_s)
        assert key == ref_key, "save_checkpoint key differs from the old writer's"
        entry = (store.entry_dir / f"{key}.json").read_bytes()
        assert entry == (reference_dir / f"v{CACHE_VERSION}" / f"{key}.json").read_bytes(), (
            "save_checkpoint entry bytes differ from the old writer's"
        )
        entry_bytes = len(entry)
        store.clear_memory()
        restored, load_s = _timed(lambda: load_checkpoint(store, key))
        timings["load"].append(load_s)
        assert restored.to_array().tobytes() == saved, "load_checkpoint state differs"
    out = {"values": len(state.to_array()), "entry_bytes": entry_bytes}
    for name in ("reference", "save", "load"):
        samples = timings[name]
        q1, q3 = _quartiles(samples)
        label = "reference_save" if name == "reference" else name
        out[f"{label}_ms"] = round(statistics.median(samples) * 1e3, 1)
        out[f"{label}_iqr_ms"] = round((q3 - q1) * 1e3, 1)
    out["speedup"] = round(
        statistics.median(timings["reference"]) / statistics.median(timings["save"]), 2
    )
    return out


def _load_baseline() -> dict:
    if not BENCH_PATH.exists():
        return {}
    try:
        return json.loads(BENCH_PATH.read_text()).get("sizes", {})
    except (json.JSONDecodeError, AttributeError):
        return {}


def test_checkpoint_scaling(save_result, tmp_path):
    baseline = _load_baseline()
    gc.disable()
    try:
        sizes = {}
        regressions = []
        for n_servers in SIZES:
            entry = _bench_size(n_servers, tmp_path)
            sizes[str(n_servers)] = entry
            prior = baseline.get(str(n_servers), {}).get("speedup")
            if prior and entry["speedup"] < prior * (1.0 - REGRESSION_TOLERANCE):
                regressions.append(
                    f"{n_servers} servers: speedup {entry['speedup']:.2f}x is >"
                    f"{REGRESSION_TOLERANCE:.0%} below committed baseline "
                    f"{prior:.2f}x"
                )
    finally:
        gc.enable()

    payload = {
        "n_windows": N_WINDOWS,
        "window_minutes": WINDOW_MINUTES,
        "completed_windows": COMPLETED,
        "seed": SEED,
        "repeats": REPEATS,
        "sizes": sizes,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    save_result(
        "checkpoint_scaling",
        "\n".join(
            f"{n} servers ({s['values']} values, {s['entry_bytes']} B): "
            f"reference save {s['reference_save_ms']} ms "
            f"(IQR {s['reference_save_iqr_ms']}), save {s['save_ms']} ms "
            f"(IQR {s['save_iqr_ms']}) = {s['speedup']}x; "
            f"load {s['load_ms']} ms (IQR {s['load_iqr_ms']})"
            for n, s in sizes.items()
        ),
    )

    assert not regressions, "; ".join(regressions)
    for n, s in sizes.items():
        assert s["speedup"] > 1.0, (
            f"{n} servers: save_checkpoint slower than the old writer "
            f"({s['speedup']}x)"
        )
