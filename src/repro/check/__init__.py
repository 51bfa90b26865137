"""Correctness harness for the timing model (``repro.check``).

The optimized :class:`~repro.cpu.smt_core.SMTCore` hot loop (ring-buffer
dataflow, event-horizon jumps, slot interleaving) is what every figure in the
reproduction stands on, so this package gives it three independent oracles:

* :mod:`repro.check.invariants` — an :class:`InvariantChecker` attachable to
  a core (``core.checker = InvariantChecker()``) that asserts per-cycle
  conservation laws: ROB/LSQ usage-register accounting, monotonic clock,
  trace-cursor progress, MSHR quotas.  Zero-cost when detached.
* :mod:`repro.check.reference` — :class:`ReferenceCore`, a deliberately
  simple cycle-by-cycle re-implementation of the dual-thread timing model
  (no ring masks, no idle fast-forward) that must produce **bit-identical**
  :class:`~repro.cpu.metrics.SimulationResult`\\ s.  Its
  :func:`~repro.check.reference.reference_service_run` is the same kind of
  oracle for the queueing DES: the plain two-heap loop that
  :meth:`~repro.qos.queueing.ServiceSimulator.run` must match field for
  field.
* :mod:`repro.check.differential` — seeded random sweeps through the
  ``SMTCore`` and its ``ReferenceCore`` oracle (``stretch-repro check``), plus
  targeted stress cases (:func:`build_stress_cases`): the regression gate
  for every future hot-path optimization.
* :mod:`repro.check.metamorphic` — paper-derived relations between runs
  (ROB-partition monotonicity, co-runner interference direction, Stretch
  mode ordering) that hold regardless of absolute UIPC values.
* :mod:`repro.check.surrogate` — the accuracy gate for the surrogate
  fidelity tier (``stretch-repro check --surrogate``): fresh held-out
  configurations with fresh seeds must land within each fit's reported
  ``error_bound``.

Set ``REPRO_CHECK=1`` (or pass ``--check`` to ``stretch-repro``) and every
core built by the sampling entry points — including engine pool workers —
gets an invariant checker attached automatically.
"""

from repro.check.differential import (
    DifferentialCase,
    SweepReport,
    build_cases,
    build_stress_cases,
    compare_results,
    differential_sweep,
    run_case,
)
from repro.check.invariants import CHECK_ENV, InvariantChecker, InvariantViolation
from repro.check.metamorphic import (
    RelationReport,
    check_corunner_never_helps,
    check_mode_ordering,
    check_rob_monotonicity,
    run_metamorphic_suite,
)
from repro.check.reference import ReferenceCore, reference_service_run
from repro.check.surrogate import (
    GateResult,
    SurrogateGateCase,
    SurrogateGateReport,
    build_gate_cases,
    surrogate_accuracy_sweep,
)

__all__ = [
    "CHECK_ENV",
    "DifferentialCase",
    "GateResult",
    "InvariantChecker",
    "InvariantViolation",
    "ReferenceCore",
    "RelationReport",
    "SurrogateGateCase",
    "SurrogateGateReport",
    "SweepReport",
    "build_cases",
    "build_gate_cases",
    "build_stress_cases",
    "check_corunner_never_helps",
    "check_mode_ordering",
    "check_rob_monotonicity",
    "compare_results",
    "differential_sweep",
    "reference_service_run",
    "run_case",
    "run_metamorphic_suite",
    "surrogate_accuracy_sweep",
]
