"""Property tests for the checkpoint flatten and the store's entry encoding.

``FleetTimeline.to_values`` / ``FleetState.to_values`` build their payload
with one ``np.concatenate`` into a float64 array.  Checkpoint keys and
store entries are derived from that payload, so it has to be the very
sequence the per-element expression below gives — same length, same
Python ``float`` type, same bits (NaN payloads and signed zeros included).
The store writes entries with ``json.dumps`` (the C encoder); its bytes
must equal what ``json.dump`` (the pure-Python encoder) writes.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest

from repro.fleet.engine import FleetState, FleetTimeline


def per_element_timeline_values(t: FleetTimeline) -> tuple[float, ...]:
    """The timeline flatten written one Python float at a time."""
    return tuple(
        [
            float(t.n_servers),
            float(t.shard_lo),
            float(t.n_windows),
            float(t.window_minutes),
        ]
        + [float(v) for v in t.mode_counts.ravel()]
        + [float(v) for v in t.violations]
        + [float(v) for v in t.throttled]
        + [float(v) for v in t.tail_ms_sum]
        + [float(v) for v in t.batch_uipc_sum]
        + [float(v) for v in t.server_violations]
        + [float(v) for v in t.server_bmode_windows]
    )


def per_element_state_values(s: FleetState) -> tuple[float, ...]:
    """The state flatten written one Python float at a time."""
    return tuple(
        [float(s.lo), float(s.hi), float(s.window)]
        + [float(v) for v in s.mode]
        + [float(v) for v in s.compliant]
        + [float(v) for v in s.violation]
        + [float(v) for v in s.throttle]
        + list(per_element_timeline_values(s.timeline))
    )


def assert_same_values(new, old) -> None:
    """Equal length, every element a ``float``, bitwise-equal doubles."""
    assert isinstance(new, tuple)
    assert len(new) == len(old)
    assert all(type(v) is float for v in new)
    assert struct.pack(f"<{len(new)}d", *new) == struct.pack(f"<{len(old)}d", *old)
    if not any(v != v for v in old):
        assert new == old


def pure_python_dump(values) -> str:
    """What ``json.dump`` writes to a file handle (the pure-Python encoder)."""
    handle = io.StringIO()
    json.dump(list(values), handle)
    return handle.getvalue()


def random_timeline(
    rng,
    n_servers: int,
    n_windows: int,
    window_minutes: float,
    shard_lo: int,
    *,
    completed: int | None = None,
    big: bool = False,
    nonfinite: bool = False,
) -> FleetTimeline:
    timeline = FleetTimeline.empty(n_servers, n_windows, window_minutes, shard_lo)
    done = int(rng.integers(0, n_windows + 1)) if completed is None else completed
    high = 2**62 if big else n_servers + 1
    timeline.mode_counts[:done] = rng.integers(0, high, (done, 3))
    timeline.violations[:done] = rng.integers(0, high, done)
    timeline.throttled[:done] = rng.integers(0, high, done)
    scale = 10.0 ** rng.uniform(-3, 6)
    timeline.tail_ms_sum[:done] = rng.standard_exponential(done) * scale
    timeline.batch_uipc_sum[:done] = rng.random(done) * n_servers * 3
    timeline.server_violations[:] = rng.integers(0, high, n_servers)
    timeline.server_bmode_windows[:] = rng.integers(0, high, n_servers)
    if nonfinite and done:
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]
        at = rng.choice(done, size=min(done, len(specials)), replace=False)
        timeline.tail_ms_sum[at] = specials[: len(at)]
    return timeline


def random_state(rng, lo: int, hi: int, n_windows: int, window_minutes: float,
                 **kwargs) -> FleetState:
    n = hi - lo
    timeline = random_timeline(rng, n, n_windows, window_minutes, lo, **kwargs)
    high = 2**62 if kwargs.get("big") else 20
    return FleetState(
        lo=lo,
        hi=hi,
        window=int(rng.integers(0, n_windows + 1)),
        mode=rng.integers(0, 3, n),
        compliant=rng.integers(0, high, n),
        violation=rng.integers(0, high, n),
        throttle=rng.integers(0, high, n),
        timeline=timeline,
    )


#: (lo, hi, n_windows, window_minutes, extra) — slices with shard_lo > 0,
#: fractional window lengths, zero completed windows, large counters and
#: non-finite tail sums.
CASES = [
    (0, 8, 12, 120.0, {}),
    (3, 11, 24, 60.0, {}),
    (1000, 1257, 288, 5.0, {}),
    (7, 40, 17, 7.5, {}),
    (5, 6, 7, 1.0 / 3.0, {}),
    (0, 50, 0, 10.0, {}),
    (12, 30, 9, 160.0, {"completed": 0}),
    (2, 64, 48, 30.0, {"big": True}),
    (9, 73, 36, 40.0, {"nonfinite": True}),
    (100, 131, 10, 2.5, {"big": True, "nonfinite": True}),
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}x{c[2]}")
class TestFlattenMatchesPerElement:
    def test_timeline(self, seed, case):
        lo, hi, n_windows, window_minutes, extra = case
        rng = np.random.default_rng([seed, lo, n_windows])
        timeline = random_timeline(rng, hi - lo, n_windows, window_minutes, lo, **extra)
        values = timeline.to_values()
        assert_same_values(values, per_element_timeline_values(timeline))
        assert timeline.to_array().dtype == np.float64
        assert json.dumps(list(values)) == pure_python_dump(values)

    def test_state(self, seed, case):
        lo, hi, n_windows, window_minutes, extra = case
        rng = np.random.default_rng([seed, hi, n_windows])
        state = random_state(rng, lo, hi, n_windows, window_minutes, **extra)
        values = state.to_values()
        old = per_element_state_values(state)
        assert_same_values(values, old)
        # The checkpoint digest input is byte-for-byte the old one.
        assert state.to_array().tobytes() == np.asarray(old, dtype=np.float64).tobytes()
        assert json.dumps(list(values)) == pure_python_dump(values)
        restored = FleetState.from_values(values)
        assert restored.to_array().tobytes() == state.to_array().tobytes()


def test_fresh_state_matches_per_element():
    state = FleetState.fresh(4, 20, 96, 15.0)
    assert_same_values(state.to_values(), per_element_state_values(state))


def test_merged_shard_timelines_match_per_element():
    rng = np.random.default_rng(11)
    parts = [
        random_timeline(rng, hi - lo, 24, 60.0, lo, completed=10)
        for lo, hi in ((0, 5), (5, 13), (13, 21))
    ]
    merged = FleetTimeline.merge(parts)
    assert_same_values(merged.to_values(), per_element_timeline_values(merged))
