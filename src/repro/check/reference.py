"""A deliberately simple reference implementation of the SMT timing model.

:class:`ReferenceCore` re-implements the dual-thread out-of-order timing
model of :class:`repro.cpu.smt_core.SMTCore` as a plain cycle-by-cycle loop:

* **no ring buffer** — producer completion times live in an ordinary dict
  keyed by µop sequence number (dependency distances are clamped to
  ``MAX_DEP_DISTANCE`` = 256 by the trace generator, so a 257-entry window
  is exact);
* **no idle fast-forward** — the clock always advances by one cycle, so
  stall counters and the MLP histogram are accumulated the obvious way,
  once per cycle;
* **no hoisted locals or profiling hooks** — the loop reads attributes
  directly and does nothing clever.

It reuses the same microarchitectural components (partitioned ROB/LSQ,
memory hierarchy, branch predictor, fetch policies, trace cursors), so the
engines differ only in the scheduling loop — exactly the code the ring
masks and the core's event-horizon jumps optimize.  The contract, enforced
by :mod:`repro.check.differential` and ``tests/test_check_reference.py``, is
**bit-identical** :class:`~repro.cpu.metrics.SimulationResult`\\ s between
the two engines: every counter, every cycle count, every histogram
bucket.  Any future hot-path optimization must preserve that equivalence.

An :class:`~repro.check.invariants.InvariantChecker` can be attached to a
``ReferenceCore`` too (``core.checker = ...``), which cross-validates the
checker itself against an independent implementation.

:func:`reference_service_run` is the same kind of oracle for the queueing
DES, :meth:`repro.qos.queueing.ServiceSimulator.run`.  It is a plain
two-heap loop: one heap of worker free times (pop, then push), a second
heap of the completion times of every admitted request, popped down to
the arrival to read the queue depth, and per-element NumPy stores, with
each latency percentile taken by its own ``np.percentile`` call.  It draws from the simulator's own arrival and
service samplers, so both see the same random stream, and the contract,
enforced by ``tests/test_check_reference.py`` and
``benchmarks/test_qos_scaling.py``, is a field-for-field equal
:class:`~repro.qos.queueing.LatencyStats`.

:func:`reference_fleet_day` is the oracle for the exact-tail fleet path,
``FleetEngine.run_day(load, tail="exact")``: the per-object loop of one
:class:`~repro.core.server.ColocatedServer` per server, each with its own
scalar monitor and jitter stream, aggregated server by server.  Enforced
by ``tests/test_fleet.py::TestExactEquivalence``, integer aggregates must
be equal and float sums may differ only in summation order.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.colocation import ColocationPerformance
from repro.core.monitor import MODE_ORDER
from repro.core.server import ColocatedServer
from repro.core.stretch import StretchMode
from repro.cpu.branch import HybridBranchPredictor
from repro.cpu.config import CoreConfig, PartitionPolicy
from repro.cpu.fetch import make_fetch_policy
from repro.cpu.isa import EXEC_LATENCY, OpClass
from repro.cpu.metrics import MLP_BUCKETS, SimulationResult, ThreadResult
from repro.cpu.rob import PartitionedResource
from repro.cpu.trace import Trace, TraceCursor
from repro.cpu.uncore import MemoryHierarchy
from repro.fleet.engine import FleetConfig, FleetTimeline
from repro.fleet.policies import EXACT_JITTER_MAX, resolve_load_curve
from repro.qos.queueing import LatencyStats, ServiceSimulator
from repro.util.rng import derive_seed
from repro.workloads.profiles import WorkloadProfile

__all__ = ["ReferenceCore", "reference_fleet_day", "reference_service_run"]

#: Dependency distances are clamped to this by the trace generator; the
#: completion window must retain at least this many past µops.
_DEP_WINDOW = 256


class _RefThread:
    """Per-thread state, stored plainly (dict of completions, list queue)."""

    def __init__(self, cursor: TraceCursor):
        self.cursor = cursor
        # seq -> completion cycle for the last _DEP_WINDOW µops.
        self.completions: dict[int, int] = {}
        self.seq = 0
        self.rob_q: list[tuple[int, bool]] = []
        self.fe_stall_until = 0
        self.last_fetch_block = -1
        self.committed = 0
        self.branches = 0
        self.mispredicts = 0
        self.stall_rob = 0
        self.stall_lsq = 0
        self.ghosts = 0
        self.squash_at = 0

    def reset_stats(self) -> None:
        self.committed = 0
        self.branches = 0
        self.mispredicts = 0
        self.stall_rob = 0
        self.stall_lsq = 0


class ReferenceCore:
    """Unoptimized per-cycle twin of :class:`~repro.cpu.smt_core.SMTCore`."""

    def __init__(self, config: CoreConfig, traces: tuple[Trace, ...]):
        if not 1 <= len(traces) <= 2:
            raise ValueError("ReferenceCore supports one or two hardware threads")
        self.config = config
        self.n_threads = len(traces)
        self.traces = traces
        self._threads = [_RefThread(TraceCursor(t)) for t in traces]

        rob_limits, lsq_limits = self._effective_limits(config)
        self.rob = PartitionedResource("ROB", config.rob_entries, rob_limits)
        self.lsq = PartitionedResource("LSQ", config.lsq_entries, lsq_limits)
        self.hierarchy = MemoryHierarchy(config, n_threads=max(self.n_threads, 2))
        self.predictor = HybridBranchPredictor(
            config.branch, n_threads=max(self.n_threads, 2), private=config.private_bp
        )
        self.policy = make_fetch_policy(config.fetch_policy, config.fetch_ratio)
        self.cycle = 0
        self._mlp_hist = [[0] * (MLP_BUCKETS + 1) for _ in range(self.n_threads)]
        self.partition_switches = 0
        #: Optional :class:`repro.check.invariants.InvariantChecker`.
        self.checker = None

    def _effective_limits(self, config: CoreConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self.n_threads if self.n_threads == 2 else 2
        if config.rob_policy is PartitionPolicy.SHARED:
            rob = tuple([config.rob_entries] * n)
            lsq = tuple([config.lsq_entries] * n)
        else:
            rob = tuple(config.rob_limits[:n])
            lsq = tuple(config.lsq_limits[:n])
        return rob, lsq

    # ------------------------------------------------------------------
    # Stretch hardware-software interface
    # ------------------------------------------------------------------

    def set_partitions(self, rob_limits: tuple[int, int], lsq_limits: tuple[int, int]) -> None:
        """Reprogram the ROB/LSQ limit registers (a Stretch mode change)."""
        self._drain()
        self.rob.set_limits(rob_limits)
        self.lsq.set_limits(lsq_limits)
        flush_done = self.cycle + self.config.pipeline_flush_cycles
        for ts in self._threads:
            ts.fe_stall_until = max(ts.fe_stall_until, flush_done)
        self.partition_switches += 1

    def _drain(self) -> None:
        """Retire all in-flight µops without dispatching, one cycle at a time."""
        width = self.config.width
        for t, ts in enumerate(self._threads):
            for __ in range(ts.ghosts):
                self.rob.release(t)
            ts.ghosts = 0
        while any(ts.rob_q for ts in self._threads):
            budget = width
            for t, ts in enumerate(self._threads):
                q = ts.rob_q
                while q and budget and q[0][0] <= self.cycle:
                    __, is_mem = q.pop(0)
                    self.rob.release(t)
                    if is_mem:
                        self.lsq.release(t)
                    ts.committed += 1
                    budget -= 1
            if any(ts.rob_q for ts in self._threads):
                self.cycle += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        instructions: int,
        warmup_instructions: int = 0,
        max_cycles: int | None = None,
        require_all_threads: bool = False,
    ) -> SimulationResult:
        """Simulate until thread(s) commit ``instructions`` measured µops.

        Mirrors :meth:`SMTCore.run` (same window semantics, same warmup
        behavior) so results are directly comparable.
        """
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        if warmup_instructions:
            self._simulate_until(warmup_instructions, max_cycles=None,
                                 require_all=True)
        self._reset_measurement()
        start_cycle = self.cycle
        self._simulate_until(instructions, max_cycles=max_cycles,
                             require_all=require_all_threads)
        cycles = self.cycle - start_cycle
        return self._collect(cycles)

    def _reset_measurement(self) -> None:
        for ts in self._threads:
            ts.reset_stats()
        self.hierarchy.reset_stats()
        self.predictor.reset_stats()
        self.rob.reset_stats()
        self._mlp_hist = [[0] * (MLP_BUCKETS + 1) for _ in range(self.n_threads)]

    def _collect(self, cycles: int) -> SimulationResult:
        results = []
        h = self.hierarchy
        for t, ts in enumerate(self._threads):
            results.append(
                ThreadResult(
                    thread=t,
                    workload=self.traces[t].name,
                    instructions=ts.committed,
                    cycles=cycles,
                    loads=h.loads[t],
                    stores=h.stores[t],
                    l1d_misses=h.l1d_misses[t],
                    l1i_misses=h.l1i_misses[t],
                    branches=ts.branches,
                    branch_mispredicts=ts.mispredicts,
                    rob_limit=self.rob.limits[t],
                    lsq_limit=self.lsq.limits[t],
                    dispatch_stall_rob=ts.stall_rob,
                    dispatch_stall_lsq=ts.stall_lsq,
                    mlp_cycles=list(self._mlp_hist[t]),
                )
            )
        return SimulationResult(cycles=cycles, threads=tuple(results))

    def _simulate_until(
        self, target_committed: int, max_cycles: int | None, require_all: bool = False
    ) -> None:
        """Advance the core one cycle at a time, no shortcuts."""
        threads = self._threads
        n = self.n_threads
        width = self.config.width
        flush_penalty = self.config.pipeline_flush_cycles
        max_branches = self.config.max_branches_per_fetch
        rob = self.rob
        lsq = self.lsq
        hierarchy = self.hierarchy
        mshrs = hierarchy.mshrs
        deadline = None if max_cycles is None else self.cycle + max_cycles

        base_committed = [ts.committed for ts in threads]
        check = all if require_all else any
        cycle = self.cycle

        lat_alu = EXEC_LATENCY[OpClass.INT_ALU]
        lat_mul = EXEC_LATENCY[OpClass.INT_MUL]
        lat_fp = EXEC_LATENCY[OpClass.FP]
        lat_store = EXEC_LATENCY[OpClass.STORE]
        lat_branch = EXEC_LATENCY[OpClass.BRANCH]
        op_load = int(OpClass.LOAD)
        op_store = int(OpClass.STORE)
        op_branch = int(OpClass.BRANCH)
        op_mul = int(OpClass.INT_MUL)
        op_fp = int(OpClass.FP)

        while True:
            done = check(
                ts.committed - base >= target_committed
                for ts, base in zip(threads, base_committed)
            )
            if done:
                break
            if deadline is not None and cycle >= deadline:
                self.cycle = cycle
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles} before committing "
                    f"{target_committed} µops per thread"
                )

            # ---- wrong-path squash: mispredicted branch resolved ----
            for t in range(n):
                ts = threads[t]
                if ts.squash_at and cycle >= ts.squash_at:
                    for __ in range(ts.ghosts):
                        rob.release(t)
                    ts.ghosts = 0
                    refill = ts.squash_at + flush_penalty
                    if ts.fe_stall_until < refill:
                        ts.fe_stall_until = refill
                    ts.squash_at = 0

            # ---- thread selection: one policy decision per cycle ----
            if n == 2:
                order = self.policy.order(cycle, [rob.usage(0), rob.usage(1)])
            else:
                order = (0, 0)

            # ---- commit: policy-selected thread first, shared width ----
            budget = width
            first = order[0]
            for t in (first, 1 - first)[:n]:
                ts = threads[t]
                q = ts.rob_q
                while q and budget and q[0][0] <= cycle:
                    __, is_mem = q.pop(0)
                    rob.release(t)
                    if is_mem:
                        lsq.release(t)
                    ts.committed += 1
                    budget -= 1

            # ---- fetch/dispatch: interleaved slots ----
            budget = width
            slots_alu = self.config.int_alus
            slots_mul = self.config.int_muls
            slots_fpu = self.config.fpus
            slots_lsu = self.config.lsus
            active = [False, False]
            branch_quota = [max_branches, max_branches]
            for t in order[:n]:
                active[t] = threads[t].fe_stall_until <= cycle
            turn = 0
            whole_cycle = self.policy.whole_cycle
            while budget and (active[0] or active[1]):
                t = order[0] if whole_cycle else order[turn & 1]
                if not active[t]:
                    t = order[1] if whole_cycle else order[1 - (turn & 1)]
                turn += 1
                ts = threads[t]
                if ts.squash_at > cycle:
                    # Wrong-path (ghost) dispatch.
                    if not rob.can_allocate(t):
                        active[t] = False
                        continue
                    rob.allocate(t)
                    ts.ghosts += 1
                    budget -= 1
                    continue
                cursor = ts.cursor
                i = cursor.index
                op = cursor.op[i]
                if not rob.can_allocate(t):
                    ts.stall_rob += 1
                    active[t] = False
                    continue
                is_mem = op == op_load or op == op_store
                if is_mem:
                    if not lsq.can_allocate(t):
                        ts.stall_lsq += 1
                        active[t] = False
                        continue
                    if slots_lsu == 0:
                        active[t] = False
                        continue
                elif op == op_branch:
                    if branch_quota[t] == 0 or slots_alu == 0:
                        active[t] = False
                        continue
                elif op == op_mul:
                    if slots_mul == 0:
                        active[t] = False
                        continue
                elif op == op_fp:
                    if slots_fpu == 0:
                        active[t] = False
                        continue
                elif slots_alu == 0:
                    active[t] = False
                    continue

                # Instruction-side delivery.
                pc = cursor.pc[i]
                fetch_block = pc >> 6
                if fetch_block != ts.last_fetch_block:
                    ts.last_fetch_block = fetch_block
                    delay = hierarchy.fetch_block(t, pc)
                    if delay:
                        ts.fe_stall_until = cycle + delay
                        active[t] = False
                        continue

                # Dataflow ready time from the plain completion window.
                seq = ts.seq
                completions = ts.completions
                ready = cycle
                d = cursor.dep1[i]
                if d:
                    r = completions.get(seq - d, 0)
                    if r > ready:
                        ready = r
                d = cursor.dep2[i]
                if d:
                    r = completions.get(seq - d, 0)
                    if r > ready:
                        ready = r

                if op == op_load:
                    s = cursor.sid[i]
                    latency, __ = hierarchy.load(
                        t, pc if s == 0 else -s, cursor.addr[i], ready
                    )
                    completion = ready + latency
                    slots_lsu -= 1
                elif op == op_store:
                    s = cursor.sid[i]
                    hierarchy.store(t, pc if s == 0 else -s, cursor.addr[i], ready)
                    completion = ready + lat_store
                    slots_lsu -= 1
                elif op == op_branch:
                    completion = ready + lat_branch
                    ts.branches += 1
                    outcome = self.predictor.predict_and_update(
                        t, pc, cursor.taken[i], cursor.target[i]
                    )
                    branch_quota[t] -= 1
                    slots_alu -= 1
                    if not outcome.direction_correct:
                        ts.mispredicts += 1
                        ts.squash_at = completion
                    elif not outcome.target_correct:
                        ts.mispredicts += 1
                        ts.fe_stall_until = cycle + (flush_penalty // 2)
                        active[t] = False
                elif op == op_mul:
                    completion = ready + lat_mul
                    slots_mul -= 1
                elif op == op_fp:
                    completion = ready + lat_fp
                    slots_fpu -= 1
                else:
                    completion = ready + lat_alu
                    slots_alu -= 1

                completions[seq] = completion
                completions.pop(seq - _DEP_WINDOW - 1, None)
                ts.seq = seq + 1
                rob.allocate(t)
                if is_mem:
                    lsq.allocate(t)
                ts.rob_q.append((completion, is_mem))
                cursor.advance()
                budget -= 1

            # ---- MLP accounting: one occupancy sample per cycle ----
            for t in range(n):
                occ = mshrs.occupancy(t, cycle)
                if occ > MLP_BUCKETS:
                    occ = MLP_BUCKETS
                self._mlp_hist[t][occ] += 1

            # ---- clock advance: always exactly one cycle ----
            cycle += 1
            if self.checker is not None:
                self.cycle = cycle
                self.checker.on_cycle(self, cycle)

        self.cycle = cycle


def reference_service_run(
    sim: ServiceSimulator,
    arrival_rate_per_ms: float,
    perf_factor: float = 1.0,
    n_requests: int = 20000,
    seed_offset: int = 0,
) -> LatencyStats:
    """Unoptimized twin of :meth:`ServiceSimulator.run` (two heaps per request)."""
    rng = np.random.default_rng((sim.seed * 1_000_003 + seed_offset) & 0x7FFFFFFF)
    arrivals = sim._sample_arrivals(arrival_rate_per_ms, n_requests, rng)
    services = sim._sample_services(perf_factor, n_requests, rng)

    workers = [0.0] * sim.n_workers
    heapq.heapify(workers)
    in_system: list[float] = []  # completion times of admitted requests
    latencies = np.empty(n_requests)
    depths = np.empty(n_requests)
    for i in range(n_requests):
        arrival = arrivals[i]
        while in_system and in_system[0] <= arrival:
            heapq.heappop(in_system)
        depths[i] = len(in_system)
        free_at = heapq.heappop(workers)
        start = free_at if free_at > arrival else arrival
        done = start + services[i]
        heapq.heappush(workers, done)
        heapq.heappush(in_system, done)
        latencies[i] = done - arrival
    return LatencyStats(
        n_requests=int(latencies.size),
        mean=float(latencies.mean()),
        p50=float(np.percentile(latencies, 50)),
        p95=float(np.percentile(latencies, 95)),
        p99=float(np.percentile(latencies, 99)),
        max=float(latencies.max()),
        mean_queue_depth=float(depths.mean()),
        p95_queue_depth=float(np.percentile(depths, 95)),
    )


def reference_fleet_day(
    ls_profile: WorkloadProfile,
    performance: ColocationPerformance,
    config: FleetConfig,
    load,
    *,
    scenario=None,
) -> FleetTimeline:
    """Per-server oracle for ``FleetEngine.run_day(load, tail="exact")``.

    One :class:`~repro.core.server.ColocatedServer` per server runs its
    own scalar monitor over its own DES, and the day is aggregated into a
    :class:`~repro.fleet.engine.FleetTimeline` one server after another.
    Server ``k`` uses the request-stream seed
    ``derive_seed(seed, "server", k) & 0x7FFFFF``, draws its load jitter
    from the ``(seed, "jitter", k)`` stream, and has
    ``config.n_workers`` workers.  Only what that loop can express is
    accepted: a ``jittered`` policy on at most
    :data:`~repro.fleet.policies.EXACT_JITTER_MAX` servers, with no
    co-runner population and no scenario.
    """
    if config.policy != "jittered":
        raise ValueError(
            f"the per-server oracle balances with the 'jittered' policy "
            f"only, not {config.policy!r}"
        )
    if config.population:
        raise ValueError("the per-server oracle has no co-runner population")
    if scenario is not None:
        raise ValueError("the per-server oracle has no scenario layer")
    if config.n_servers > EXACT_JITTER_MAX:
        raise ValueError(
            f"the per-server oracle covers at most {EXACT_JITTER_MAX} "
            f"servers, got {config.n_servers}"
        )
    _, cluster_load = resolve_load_curve(load)
    window_minutes = config.window_minutes
    # One jitter draw per window plus one, as the fleet policy caches them.
    n_draws = config.n_windows + 1
    timeline = FleetTimeline.empty(config.n_servers, config.n_windows,
                                   window_minutes)
    for k in range(config.n_servers):
        rng = np.random.default_rng(derive_seed(config.seed, "jitter", k))
        jitter = 1.0 + rng.uniform(
            -config.balance_jitter, config.balance_jitter, size=n_draws
        )

        def server_load(hour: float, jitter=jitter) -> float:
            window = int(hour * 60 / window_minutes)
            share = cluster_load(hour) / config.overprovision
            return max(min(share * jitter[window % n_draws], 1.2), 0.0)

        server = ColocatedServer(
            ls_profile,
            performance,
            monitor_config=config.monitor,
            n_workers=config.n_workers,
            seed=derive_seed(config.seed, "server", k) & 0x7FFFFF,
            q_mode_available=config.q_mode_available,
        )
        day = server.run_day(
            server_load,
            window_minutes=window_minutes,
            requests_per_window=config.requests_per_window,
        )
        for w, record in enumerate(day.windows):
            timeline.hours[w] = record.hour
            timeline.mode_counts[w, MODE_ORDER.index(record.mode)] += 1
            timeline.violations[w] += record.qos_violated
            timeline.throttled[w] += record.throttled
            timeline.tail_ms_sum[w] += record.tail_latency_ms
            timeline.batch_uipc_sum[w] += record.batch_uipc
            timeline.server_violations[k] += record.qos_violated
            timeline.server_bmode_windows[k] += (
                record.mode is StretchMode.B_MODE
            )
    return timeline
