"""Tests for the section profiler (repro.obs.profiler)."""

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.smt_core import SMTCore
from repro.obs.profiler import (
    PROFILE_ENV,
    Profiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
)
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

#: Hot-loop sections the SMT core flushes after a profiled run.
SIM_SECTIONS = {"sim.loop"}


class TestProfiler:
    def test_add_accumulates(self):
        p = Profiler()
        p.add("a", 0.5)
        p.add("a", 0.25, calls=3)
        assert p.seconds("a") == 0.75
        assert p.calls("a") == 4
        assert p.seconds("missing") == 0.0

    def test_section_context_manager(self):
        p = Profiler()
        with p.section("x"):
            pass
        assert p.calls("x") == 1
        assert p.seconds("x") > 0

    def test_merge(self):
        a, b = Profiler(), Profiler()
        a.add("s", 1.0)
        b.add("s", 2.0)
        b.add("t", 3.0)
        a.merge(b)
        assert a.seconds("s") == 3.0 and a.seconds("t") == 3.0

    def test_table_hottest_first(self):
        p = Profiler()
        p.add("cold", 0.1, calls=10)
        p.add("hot", 0.9, calls=10)
        table = p.self_time_table()
        assert table.index("hot") < table.index("cold")
        assert "share" in table

    def test_empty_table(self):
        assert "no sections" in Profiler().self_time_table()

    def test_as_dict_and_reset(self):
        p = Profiler()
        p.add("a", 1.0, calls=2)
        assert p.as_dict() == {"a": {"seconds": 1.0, "calls": 2}}
        p.reset()
        assert p.as_dict() == {}


class TestProcessWideProfiler:
    @pytest.fixture(autouse=True)
    def clean_state(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        disable_profiling()
        yield
        disable_profiling()

    def test_off_by_default(self):
        assert active_profiler() is None

    def test_enable_disable(self):
        import os

        profiler = enable_profiling()
        assert active_profiler() is profiler
        assert os.environ[PROFILE_ENV] == "1"
        disable_profiling()
        assert active_profiler() is None
        assert PROFILE_ENV not in os.environ

    def test_env_flag_creates_worker_side_profiler(self, monkeypatch):
        # A pool worker inherits only the environment variable.
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert active_profiler() is not None


class TestSimulatorProfile:
    def test_profiled_run_is_bit_identical_and_covers_hot_loops(self):
        ws = generate_trace(get_profile("web_search"), 20_000, seed=3)
        zm = generate_trace(get_profile("zeusmp"), 20_000, seed=3)
        baseline = SMTCore(CoreConfig(), (ws, zm)).run(4000)

        core = SMTCore(CoreConfig(), (ws, zm))
        core.profiler = profiler = Profiler()
        core.jump_log = []
        profiled = core.run(4000)

        assert profiled == baseline
        # The profiled run took the same event-skipping path as production.
        assert core.jump_log, "profiled run never jumped the clock"
        assert set(profiler.as_dict()) == SIM_SECTIONS
        # One flush per simulate call, its calls counting the cycles advanced.
        assert profiler.calls("sim.loop") == core.cycle
        assert profiler.seconds("sim.loop") > 0
