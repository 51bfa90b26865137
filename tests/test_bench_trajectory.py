"""Tests for the bench-trajectory guard (``benchmarks/check_bench_trajectory.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_bench_trajectory.py"


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("check_bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def core_payload(core_cps: float, speedup: float) -> dict:
    return {"scenarios": {"pair_memory": {
        "reference_cps": core_cps / speedup, "core_cps": core_cps, "speedup": speedup,
    }}}


class TestCoreGate:
    def test_host_drift_is_not_a_regression(self, guard):
        # Both engines 30 % slower on a slower host: the ratio holds.
        failures = []
        guard.check_core(core_payload(900_000, 4.9), core_payload(630_000, 4.9),
                         0.25, failures)
        assert failures == []

    def test_speedup_drop_fails(self, guard):
        failures = []
        guard.check_core(core_payload(900_000, 4.9), core_payload(900_000, 3.4),
                         0.25, failures)
        assert len(failures) == 1 and "pair_memory" in failures[0]

    def test_cli_exit_codes(self, guard, tmp_path, capsys):
        base, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
        base.write_text(json.dumps(core_payload(900_000, 4.9)))
        fresh.write_text(json.dumps(core_payload(600_000, 4.5)))
        argv = ["--baseline-core", str(base), "--fresh-core", str(fresh)]
        assert guard.main(argv) == 0
        fresh.write_text(json.dumps(core_payload(900_000, 3.0)))
        assert guard.main(argv) == 1
        assert "4.90 -> 3.00" in capsys.readouterr().err
