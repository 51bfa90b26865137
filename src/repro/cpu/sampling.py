"""Sampling methodology (paper §V-C, after SimFlex/SMARTS).

The paper simulates 320 short samples of each workload: every sample warms
caches and predictors functionally, then runs cycle-accurate simulation for
150K instructions (100K warmup + 50K measured), reporting UIPC.

We reproduce the same structure at configurable scale: each sample
instantiates a fresh core, generates an independent trace segment per
workload (a different region of the synthetic execution — different seed),
runs a warmup phase whose statistics are discarded, and measures UIPC over
the following instructions.  Results aggregate by averaging UIPC across
samples.  The same per-sample seeds are used across all configurations of an
experiment (the paper's "same set of sampling points across all colocations"),
which makes config-to-config comparisons paired and low-variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.config import CoreConfig
from repro.cpu.isa import OpClass
from repro.cpu.metrics import SimulationResult
from repro.cpu.smt_core import SMTCore
from repro.cpu.trace import Trace
from repro.obs.sampler import attach_core_observers
from repro.util.rng import derive_seed
from repro.workloads.generator import MemoryMap, TraceGenerator
from repro.workloads.profiles import WorkloadProfile

__all__ = [
    "SamplingConfig",
    "sample_solo",
    "sample_colocation",
    "mean_uipc",
]


def make_core(config: CoreConfig, traces: tuple[Trace, ...]) -> SMTCore:
    """Build the core for one sample.

    The one place sampling constructs a core, so tools can time core
    construction by wrapping this name (``perfbench/trace.py`` does).
    """
    return SMTCore(config, traces)


@dataclass(frozen=True)
class SamplingConfig:
    """How many samples to run and how long each one is.

    The defaults are sized for fast regression runs; experiment harnesses
    scale them up (see ``repro.experiments.common.fidelity``).
    """

    n_samples: int = 3
    warmup_instructions: int = 5000
    measure_instructions: int = 4000
    seed: int = 42
    #: Close the measurement window only when EVERY thread has committed the
    #: target (long, unbiased windows for the slower thread).  With False the
    #: window closes at the first thread — cheaper, but the slow thread's
    #: statistics are noisy and phase-biased.
    require_all_threads: bool = True
    #: Statistically warm the LLC with steady-state-resident lines before
    #: each sample (the analogue of SimFlex's checkpointed warm state; a
    #: detailed-warmup-only run would see an unrealistically cold LLC).
    checkpoint_warming: bool = True
    #: Safety bound on measured-phase length, in cycles per measured µop.
    max_cycles_per_instruction: int = 1200

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.warmup_instructions < 0 or self.measure_instructions <= 0:
            raise ValueError("instruction counts must be positive")

    @property
    def trace_length(self) -> int:
        """Trace length per sample.

        Warmup and measurement both run until *every* thread reaches the
        target, so a faster co-runner consumes a multiple of the nominal
        instruction counts; the 6x headroom keeps replay from wrapping for
        thread-speed ratios up to ~6 (beyond that, a wrap revisits lines the
        checkpoint warming already installed, mildly flattering the fast
        thread).
        """
        return int(6.9 * (self.warmup_instructions + self.measure_instructions)) + 1024

    @property
    def max_cycles(self) -> int:
        return self.measure_instructions * self.max_cycles_per_instruction


def _trace_for(
    profile: WorkloadProfile, sampling: SamplingConfig, sample: int
) -> tuple[Trace, MemoryMap]:
    seed = derive_seed(sampling.seed, profile.name, "sample", sample)
    generator = TraceGenerator(profile, seed=seed)
    return generator.generate(sampling.trace_length), generator.memory_map


def _checkpoint_warm(
    core: SMTCore,
    thread: int,
    trace: Trace,
    memmap: MemoryMap,
    sampling: SamplingConfig,
    sample: int,
) -> None:
    """Install steady-state-resident lines of ``trace`` into the LLC.

    Hot-region and code lines are always resident (tiny working sets).  Each
    unique cold-region line is installed with the steady-state residency
    probability of an LRU-managed partition: the fraction of the cold region
    that fits in the LLC space left after hot data and code.  Streaming lines
    are never resident (no reuse).
    """
    hierarchy = core.hierarchy
    llc_bytes = hierarchy.llc[thread].num_sets * hierarchy.llc[thread].ways * 64
    if len(hierarchy.llc) > 1 and hierarchy.llc[0] is hierarchy.llc[1]:
        # Shared LLC: each thread can count on roughly half the capacity.
        llc_bytes //= 2

    code_blocks = np.unique(trace.pc >> 6)
    for block in code_blocks.tolist():
        hierarchy.install_code(thread, int(block) << 6)

    # Warm the branch predictor: saturate each static branch's bimodal
    # counter toward its dominant direction and install its BTB target.
    is_branch = trace.op == OpClass.BRANCH
    br_pc = trace.pc[is_branch]
    br_taken = trace.taken[is_branch]
    br_target = trace.target[is_branch]
    unique_pc, inverse = np.unique(br_pc, return_inverse=True)
    taken_votes = np.bincount(inverse, weights=br_taken.astype(np.float64))
    counts = np.bincount(inverse)
    last_index = np.zeros(len(unique_pc), dtype=np.int64)
    last_index[inverse] = np.arange(len(br_pc))
    for k in range(len(unique_pc)):
        core.predictor.install(
            thread,
            int(unique_pc[k]),
            bool(taken_votes[k] * 2 > counts[k]),
            int(br_target[last_index[k]]),
        )

    is_mem = (trace.op == OpClass.LOAD) | (trace.op == OpClass.STORE)
    addrs = trace.addr[is_mem]
    hot = np.unique(addrs[(addrs >= memmap.hot_start) & (addrs < memmap.hot_end)] >> 6)
    cold = np.unique(
        addrs[(addrs >= memmap.cold_start) & (addrs < memmap.cold_end)] >> 6
    )
    for block in hot.tolist():
        hierarchy.install_data(thread, int(block) << 6)

    hot_bytes = memmap.hot_end - memmap.hot_start
    code_bytes = len(code_blocks) * 64
    cold_region_bytes = max(memmap.cold_end - memmap.cold_start, 64)
    residency = min(1.0, max(llc_bytes - hot_bytes - code_bytes, 0) / cold_region_bytes)
    if residency > 0.0 and len(cold):
        rng = np.random.default_rng(
            derive_seed(sampling.seed, trace.name, "ckpt", sample, thread)
        )
        resident = cold[rng.random(len(cold)) < residency]
        for block in resident.tolist():
            hierarchy.install_data(thread, int(block) << 6)


def sample_solo(
    profile: WorkloadProfile,
    config: CoreConfig,
    sampling: SamplingConfig = SamplingConfig(),
) -> list[SimulationResult]:
    """Run ``profile`` alone on the core, one result per sample."""
    results = []
    for s in range(sampling.n_samples):
        trace, memmap = _trace_for(profile, sampling, s)
        core = make_core(config, (trace,))
        attach_core_observers(core, {"kind": "solo", "workloads": [profile.name],
                                     "sample": s})
        if sampling.checkpoint_warming:
            _checkpoint_warm(core, 0, trace, memmap, sampling, s)
        results.append(
            core.run(
                sampling.measure_instructions,
                warmup_instructions=sampling.warmup_instructions,
                max_cycles=sampling.max_cycles,
                require_all_threads=sampling.require_all_threads,
            )
        )
    return results


def sample_colocation(
    profile0: WorkloadProfile,
    profile1: WorkloadProfile,
    config: CoreConfig,
    sampling: SamplingConfig = SamplingConfig(),
) -> list[SimulationResult]:
    """Run two workloads colocated on the SMT core, one result per sample.

    Thread 0 runs ``profile0`` (the latency-sensitive thread, by the
    conventions of ``repro.core.partitioning``), thread 1 runs ``profile1``.
    """
    results = []
    for s in range(sampling.n_samples):
        trace0, memmap0 = _trace_for(profile0, sampling, s)
        trace1, memmap1 = _trace_for(profile1, sampling, s)
        core = make_core(config, (trace0, trace1))
        attach_core_observers(
            core, {"kind": "pair", "workloads": [profile0.name, profile1.name],
                   "sample": s},
        )
        if sampling.checkpoint_warming:
            _checkpoint_warm(core, 0, trace0, memmap0, sampling, s)
            _checkpoint_warm(core, 1, trace1, memmap1, sampling, s)
        results.append(
            core.run(
                sampling.measure_instructions,
                warmup_instructions=sampling.warmup_instructions,
                max_cycles=sampling.max_cycles,
                require_all_threads=sampling.require_all_threads,
            )
        )
    return results


def mean_uipc(results: list[SimulationResult], thread: int = 0) -> float:
    """Average UIPC of one hardware thread across samples."""
    if not results:
        raise ValueError("no simulation results to aggregate")
    return sum(r.threads[thread].uipc for r in results) / len(results)

