"""Differential oracles: SMTCore and ReferenceCore bit-identical, and the
queueing DES kernel field-for-field equal to ``reference_service_run``.

The 200-configuration sweep — every case run through both engines — is the
acceptance gate for the optimized hot loop (ring-buffer dataflow, slot
interleaving, event-horizon jumps, batched gap accounting): any
future optimization that changes a single committed instruction, stall
count, cycle total or MLP bucket on any configuration fails here.  The
stress cases (``build_stress_cases``) add targeted adversarial shapes for
the event-skipping path.
"""

import dataclasses
import random

import pytest

from repro.check.differential import (
    build_cases,
    build_stress_cases,
    compare_results,
    differential_sweep,
    run_case,
)
from repro.check.reference import ReferenceCore, reference_service_run
from repro.cpu.config import CoreConfig
from repro.cpu.smt_core import SMTCore
from repro.qos.queueing import MMPPConfig, ServiceSimulator
from repro.workloads.cloudsuite import CLOUDSUITE
from repro.workloads.profiles import QoSSpec
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile


def _traces(*specs):
    return tuple(
        generate_trace(get_profile(name), 3000, seed=seed) for name, seed in specs
    )


class TestReferenceCoreBasics:
    def test_solo_run_bit_identical(self):
        traces = _traces(("web_search", 11))
        a = SMTCore(CoreConfig(), traces).run(500, warmup_instructions=200)
        b = ReferenceCore(CoreConfig(), traces).run(500, warmup_instructions=200)
        assert compare_results(a, b) == []
        assert a == b

    def test_colocated_run_bit_identical(self):
        traces = _traces(("web_search", 11), ("zeusmp", 12))
        config = CoreConfig().with_rob_partition(56, 136)
        a = SMTCore(config, traces).run(400, warmup_instructions=200,
                                        require_all_threads=True)
        b = ReferenceCore(config, traces).run(400, warmup_instructions=200,
                                              require_all_threads=True)
        assert compare_results(a, b) == []

    def test_mode_switch_drain_bit_identical(self):
        traces = _traces(("data_serving", 5), ("gamess", 6))
        smt = SMTCore(CoreConfig(), _traces(("data_serving", 5), ("gamess", 6)))
        ref = ReferenceCore(CoreConfig(), traces)
        r1 = smt.run(300, warmup_instructions=100)
        r2 = ref.run(300, warmup_instructions=100)
        assert compare_results(r1, r2) == []
        smt.set_partitions((136, 56), (45, 18))
        ref.set_partitions((136, 56), (45, 18))
        assert smt.cycle == ref.cycle
        assert compare_results(smt.run(300), ref.run(300)) == []

    def test_reference_rejects_more_than_two_threads(self):
        traces = _traces(("web_search", 1), ("zeusmp", 2), ("gamess", 3))
        with pytest.raises(ValueError):
            ReferenceCore(CoreConfig(), traces)


class TestDifferentialSweep:
    def test_200_random_configs_bit_identical(self):
        """Acceptance criterion: >= 200 seeded configs, zero divergence."""
        report = differential_sweep(build_cases(200, seed=0))
        assert report.total == 200
        assert report.ok, report.mismatches + report.errors

    def test_sweep_with_invariants_attached(self):
        report = differential_sweep(build_cases(15, seed=99),
                                    check_invariants=True)
        assert report.ok, report.mismatches + report.errors

    def test_sweep_covers_key_dimensions(self):
        cases = build_cases(200, seed=0)
        assert any(len(c.workloads) == 1 for c in cases)
        assert any(len(c.workloads) == 2 for c in cases)
        assert any(c.mode_switch is not None for c in cases)
        policies = {c.config.fetch_policy for c in cases}
        assert policies == {"icount", "round_robin", "ratio"}
        from repro.cpu.config import PartitionPolicy

        assert any(c.config.rob_policy is PartitionPolicy.SHARED for c in cases)

    def test_cases_are_deterministic(self):
        assert build_cases(10, seed=3) == build_cases(10, seed=3)
        assert build_cases(10, seed=3) != build_cases(10, seed=4)

    def test_stress_cases_bit_identical(self):
        """The adversarial event-skipping shapes survive both engines."""
        cases = build_stress_cases(seed=0)
        tags = {case.tag for case in cases}
        assert {"switch-storm", "no-idle", "cycle0", "mshr-sat"} <= tags
        assert build_stress_cases(seed=0) == cases
        report = differential_sweep(cases, check_invariants=True)
        assert report.total == len(cases)
        assert report.ok, report.mismatches + report.errors

    def test_run_case_reports_differences(self):
        """compare_results localizes an injected divergence to its field."""
        case = build_cases(1, seed=5)[0]
        assert run_case(case) == []
        traces = _traces(("web_search", 11))
        a = SMTCore(CoreConfig(), traces).run(300)
        b = ReferenceCore(CoreConfig(), traces).run(300)
        b.threads[0].instructions += 1
        diffs = compare_results(a, b)
        assert len(diffs) == 1
        assert "instructions" in diffs[0]


#: QoS contracts for the DES differential: the four CloudSuite services
#: plus a near-deterministic one (service CV close to 0).
_DES_QOS = tuple(p.qos for p in CLOUDSUITE.values()) + (
    QoSSpec(target_ms=100.0, percentile=99.0, base_service_ms=8.0,
            service_cv=1e-6),
)
_BURSTY = MMPPConfig(calm_rate=0.5, burst_rate=4.0, burst_fraction=0.3,
                     mean_dwell_requests=40.0)


def _des_case(qos, n_workers, load, perf, n, seed, seed_offset=0,
              mmpp=MMPPConfig()):
    """``load`` is the arrival rate as a fraction of full-speed capacity."""
    return dict(qos=qos, n_workers=n_workers, mmpp=mmpp, seed=seed,
                rate=load * n_workers / qos.base_service_ms, perf=perf, n=n,
                seed_offset=seed_offset)


def _des_cases(count=191, seed=2024):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        cases.append(_des_case(
            qos=rng.choice(_DES_QOS),
            n_workers=rng.choice((1, 2, 3, 8, 16)),
            load=rng.uniform(0.02, 1.3),
            perf=rng.choice((1.0, rng.uniform(0.05, 1.0))),
            n=rng.choice((1, 2, 5, rng.randint(1, 400), rng.randint(400, 2500))),
            seed=rng.randrange(1 << 20),
            seed_offset=rng.randrange(4),
            mmpp=rng.choice((MMPPConfig(), _BURSTY)),
        ))
    return cases


#: Named edge cases: each shape the kernel's identities must survive.
_DES_EDGES = {
    "single_request": _des_case(_DES_QOS[2], 8, 0.5, 1.0, 1, 3),
    "single_worker": _des_case(_DES_QOS[2], 1, 0.7, 1.0, 1500, 4),
    "more_workers_than_requests": _des_case(_DES_QOS[2], 16, 0.9, 1.0, 7, 5),
    "overload": _des_case(_DES_QOS[2], 8, 1.3, 1.0, 2500, 6),
    "overload_single_worker": _des_case(_DES_QOS[0], 1, 1.3, 1.0, 800, 7),
    "slowest_core": _des_case(_DES_QOS[1], 8, 0.3, 0.05, 1500, 8),
    "bursty_mmpp": _des_case(_DES_QOS[3], 2, 0.8, 0.6, 2000, 9, mmpp=_BURSTY),
    "near_deterministic_service": _des_case(_DES_QOS[4], 8, 0.95, 1.0, 2000, 10),
    "near_deterministic_overload": _des_case(_DES_QOS[4], 3, 1.3, 0.5, 1000, 11),
}


def _assert_des_identical(case):
    sim = ServiceSimulator(case["qos"], n_workers=case["n_workers"],
                           mmpp=case["mmpp"], seed=case["seed"])
    args = (case["rate"], case["perf"], case["n"], case["seed_offset"])
    fast = dataclasses.asdict(sim.run(*args))
    slow = dataclasses.asdict(reference_service_run(sim, *args))
    assert fast == slow, {k: (fast[k], slow[k]) for k in fast
                          if fast[k] != slow[k]}


class TestServiceOracle:
    @pytest.mark.parametrize("name", sorted(_DES_EDGES))
    def test_edge_case_bit_identical(self, name):
        _assert_des_identical(_DES_EDGES[name])

    def test_random_configs_bit_identical(self):
        cases = _des_cases()
        # The sweep must reach the shapes the edge cases name.
        assert any(c["n"] == 1 for c in cases)
        assert any(c["n_workers"] > c["n"] for c in cases)
        assert any(c["rate"] * c["qos"].base_service_ms / c["n_workers"] > 1.2
                   for c in cases)
        assert any(c["mmpp"] == _BURSTY for c in cases)
        for case in cases:
            _assert_des_identical(case)

    def test_oracle_sees_queueing(self):
        # Guard against a vacuous oracle: overload must build a queue.
        case = _DES_EDGES["overload"]
        sim = ServiceSimulator(case["qos"], n_workers=case["n_workers"],
                               seed=case["seed"])
        stats = reference_service_run(sim, case["rate"], case["perf"],
                                      case["n"])
        assert stats.mean_queue_depth > case["n_workers"]
        assert stats.p99 > 5 * case["qos"].base_service_ms
