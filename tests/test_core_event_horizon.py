"""SMTCore event horizon: observer wiring and seeded property loops.

The exhaustive equivalence proof lives in the core-vs-reference
differential sweep (``tests/test_check_reference.py``) and the event log is
pinned byte-for-byte by ``tests/test_golden_digests.py``; this file covers
the sampling-path observer wiring and the event-horizon structure itself
via seeded property loops (plain ``repro.util.rng`` seeding — no
hypothesis, so failures replay exactly).
"""

import random

import pytest

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.cpu.config import CoreConfig
from repro.cpu.sampling import make_core
from repro.cpu.smt_core import SMTCore
from repro.util.rng import derive_seed
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

#: Mixed latency-sensitive / batch pool for the seeded property loops.
POOL = ("mcf", "web_search", "zeusmp", "omnetpp", "gamess", "libquantum")
SPLITS = ((96, 96), (56, 136), (136, 56), (32, 160), (160, 32))


def _traces(rng, n, length=3000):
    names = [rng.choice(POOL) for _ in range(n)]
    return tuple(
        generate_trace(get_profile(name), length,
                       seed=derive_seed(rng.randrange(1 << 20), name, "t", i))
        for i, name in enumerate(names)
    )


def _random_config(rng):
    config = CoreConfig(
        fetch_policy=rng.choice(("icount", "round_robin", "ratio")),
        enable_prefetcher=rng.random() < 0.75,
    )
    return config.with_rob_partition(*rng.choice(SPLITS))


class TestObserverWiring:
    def test_repro_check_attaches_checker_via_make_core(self, monkeypatch):
        """REPRO_CHECK=1 must reach the core built by the sampling path."""
        monkeypatch.setenv("REPRO_CHECK", "1")
        from repro.obs.sampler import attach_core_observers

        core = make_core(CoreConfig(), _traces(random.Random(9), 2))
        attach_core_observers(core, {})
        assert isinstance(core, SMTCore)
        assert isinstance(core.checker, InvariantChecker)
        result = core.run(300, warmup_instructions=100,
                          require_all_threads=True)
        assert result.cycles > 0
        assert core.checker.violations == []


class TestEventHorizonProperties:
    """Seeded property loops over the event-skipping structure."""

    def test_jumps_never_pass_an_event(self):
        """Every logged jump lands exactly on the earliest pending event."""
        rng = random.Random(derive_seed(42, "fast-core", "jumps"))
        jumps_seen = 0
        for trial in range(8):
            n = 2 if rng.random() < 0.7 else 1
            core = SMTCore(_random_config(rng), _traces(rng, n))
            core.jump_log = []
            core.run(300, warmup_instructions=100,
                     require_all_threads=(n == 2))
            for frm, to, events in core.jump_log:
                jumps_seen += 1
                assert to > frm + 1, "logged jump must skip at least one cycle"
                assert events, "a jump must target a pending event"
                assert to == events[0], (
                    f"jump {frm}->{to} does not land on earliest event "
                    f"{events[0]} (horizon {events})"
                )
                assert all(e >= to or e <= frm for e in events), (
                    f"jump {frm}->{to} passed an event inside the gap: {events}"
                )
        assert jumps_seen > 0, "property never exercised a multi-cycle jump"

    def test_mlp_histogram_sums_to_measured_cycles(self):
        """Batched gap accounting must cover every measured cycle exactly."""
        rng = random.Random(derive_seed(42, "fast-core", "mlp"))
        for trial in range(6):
            n = 2 if rng.random() < 0.7 else 1
            config = _random_config(rng)
            traces = _traces(rng, n)
            core = SMTCore(config, traces)
            result = core.run(300, warmup_instructions=100,
                              require_all_threads=(n == 2))
            for thread in result.threads:
                assert sum(thread.mlp_cycles) == result.cycles, (
                    f"thread {thread.thread}: MLP histogram covers "
                    f"{sum(thread.mlp_cycles)} cycles, measured {result.cycles}"
                )

    def test_pending_events_match_brute_force(self):
        """`pending_events` is the sorted horizon recomputed from raw state."""
        rng = random.Random(derive_seed(42, "fast-core", "horizon"))
        checked = 0
        for trial in range(6):
            n = 2 if rng.random() < 0.5 else 1
            core = SMTCore(_random_config(rng), _traces(rng, n))
            # Fresh core: no in-flight work, no events.
            assert core.pending_events(core.cycle) == []
            # Sample mid-run states at several window boundaries.
            for window in range(4):
                core.run(60, max_cycles=200_000,
                         require_all_threads=(n == 2))
                cycle = core.cycle
                brute = []
                for ts in core._threads:
                    brute += [ts.rob_q[0][0]] if ts.rob_q else []
                    brute += [e for e in (ts.fe_stall_until, ts.squash_at)
                              if e > cycle]
                events = core.pending_events(cycle)
                assert events == sorted(brute)
                if events:
                    checked += 1
        assert checked > 0, "property never saw a non-empty event horizon"

    def test_checker_rejects_event_passing_jump(self):
        """The generalized multi-cycle jump law actually fires."""
        rng = random.Random(derive_seed(42, "fast-core", "law"))
        core = SMTCore(CoreConfig(), _traces(rng, 2))
        core.run(200, warmup_instructions=50, require_all_threads=True)
        checker = InvariantChecker()
        checker.on_cycle(core, core.cycle)
        # Forge a state where an in-flight head completion lies strictly
        # inside the next "jump": the checker must reject it.
        ts = core._threads[0]
        ts.rob_q.appendleft((core.cycle + 2, False))
        core.cycle += 10
        with pytest.raises(InvariantViolation, match="passed thread 0"):
            checker.on_cycle(core, core.cycle)
