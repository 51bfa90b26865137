"""Discrete-event queueing simulator for latency-sensitive services.

Models one server of a load-balanced cluster: requests arrive following a
Markov-modulated Poisson process (bursty, as the paper notes — "queuing can
occur even at low average loads due to bursty request arrival", §II), wait in
a FIFO queue for one of ``n_workers`` service threads, and complete after a
lognormally distributed service time.

Core performance couples in through ``perf_factor``: a request's service time
scales as ``1 / perf_factor``, where the factor is the fraction of full-core
single-thread performance the latency-sensitive thread currently receives
(from SMT colocation, a Stretch mode, or Elfen-style duty-cycling).

Latency is reported at the percentiles of the service's QoS contract
(Table I), reproducing the Figure 1 latency-versus-load curves.  Only the
percentiles in :data:`TRACKED_PERCENTILES` are reported, so a simulator
refuses a contract at any other percentile when it is built.

The kernel of :meth:`ServiceSimulator.run` does one heap operation per
request.  Under FIFO dispatch to ``k`` identical workers, the workers'
free times are always the ``k`` largest completions so far, so a
``k``-entry min-heap of completions is the whole server state: request
*i* starts at ``max(arrival, heap[0])`` and its completion replaces the
heap's minimum.  The loop iterates Python floats from compact
``array('d')`` copies of the sampled arrays.  Queue depths are computed
after the loop, without a second heap: the number of requests in the
system when request *i* arrives is ``i`` minus the completions at or
before its arrival, ``i - searchsorted(sort(completions), arrival,
side="right")``.  No completion at or before arrival *i* can belong to
request *i* or a later one, because service times are positive.
:func:`repro.check.reference.reference_service_run` is a plain two-heap
loop kept as an independent oracle, and the differential test asserts
bit-identical :class:`LatencyStats` between the two.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass

import numpy as np

from repro.workloads.profiles import QoSSpec

__all__ = ["TRACKED_PERCENTILES", "MMPPConfig", "LatencyStats", "ServiceSimulator"]

#: Latency percentiles every :class:`LatencyStats` reports (its ``p50``,
#: ``p95`` and ``p99`` fields); a QoS contract must use one of them.
TRACKED_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class MMPPConfig:
    """Two-state Markov-modulated Poisson arrival process.

    The process alternates between a calm and a bursty state; rates are
    relative multipliers normalized so the long-run mean equals the requested
    arrival rate.  ``burst_fraction`` is the long-run fraction of time spent
    in the bursty state.
    """

    calm_rate: float = 0.75
    burst_rate: float = 2.5
    burst_fraction: float = 0.15
    mean_dwell_requests: float = 400.0

    def __post_init__(self) -> None:
        if self.calm_rate <= 0 or self.burst_rate <= self.calm_rate:
            raise ValueError("need 0 < calm_rate < burst_rate")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.mean_dwell_requests <= 1:
            raise ValueError("mean_dwell_requests must exceed 1")

    @property
    def mean_multiplier(self) -> float:
        return (
            self.calm_rate * (1.0 - self.burst_fraction)
            + self.burst_rate * self.burst_fraction
        )


@dataclass(frozen=True)
class LatencyStats:
    """Sojourn-time statistics of one queueing run (milliseconds).

    ``mean_queue_depth`` / ``p95_queue_depth`` report the number of requests
    already in the system when each request arrived — the queue-length QoS
    metric the paper mentions as an alternative monitor input (§IV-C, after
    Rubik [11]).
    """

    n_requests: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    mean_queue_depth: float = 0.0
    p95_queue_depth: float = 0.0

    @classmethod
    def from_latencies(
        cls, latencies: np.ndarray, queue_depths: np.ndarray | None = None
    ) -> "LatencyStats":
        if latencies.size == 0:
            raise ValueError("no latencies recorded")
        mean_depth = p95_depth = 0.0
        if queue_depths is not None and queue_depths.size:
            mean_depth = float(queue_depths.mean())
            p95_depth = float(np.percentile(queue_depths, 95))
        p50, p95, p99 = np.percentile(latencies, TRACKED_PERCENTILES)
        return cls(
            n_requests=int(latencies.size),
            mean=float(latencies.mean()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
            max=float(latencies.max()),
            mean_queue_depth=mean_depth,
            p95_queue_depth=p95_depth,
        )

    def percentile(self, q: float) -> float:
        """Latency at a QoS percentile (50, 95 or 99 are precomputed)."""
        if q == 50.0:
            return self.p50
        if q == 95.0:
            return self.p95
        if q == 99.0:
            return self.p99
        raise ValueError(f"percentile {q} not tracked; use 50, 95 or 99")


class ServiceSimulator:
    """One latency-sensitive service instance under synthetic load."""

    def __init__(
        self,
        qos: QoSSpec,
        n_workers: int = 8,
        mmpp: MMPPConfig = MMPPConfig(),
        seed: int = 0,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if qos.percentile not in TRACKED_PERCENTILES:
            raise ValueError(
                f"QoS percentile {qos.percentile} is not reported by the "
                f"simulator; use one of {TRACKED_PERCENTILES}"
            )
        self.qos = qos
        self.n_workers = n_workers
        self.mmpp = mmpp
        self.seed = int(seed)
        self._peak_rate_cache: dict[int, float] = {}

    # ------------------------------------------------------------------

    def _sample_arrivals(self, rate_per_ms: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """Arrival times (ms) of ``n`` requests under the MMPP at mean ``rate_per_ms``."""
        m = self.mmpp
        base = rate_per_ms / m.mean_multiplier
        dwell = m.mean_dwell_requests
        gaps = np.empty(n)
        i = 0
        bursty = rng.random() < m.burst_fraction
        while i < n:
            run = min(n - i, max(1, int(rng.exponential(dwell))))
            state_rate = base * (m.burst_rate if bursty else m.calm_rate)
            gaps[i : i + run] = rng.exponential(1.0 / state_rate, size=run)
            i += run
            # States are redrawn i.i.d. per dwell, so the long-run fraction
            # of bursty dwells equals burst_fraction.
            bursty = rng.random() < m.burst_fraction
        return np.cumsum(gaps)

    def _sample_services(self, perf_factor: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """Service times (ms), lognormal with the QoS contract's mean/CV."""
        mean = self.qos.base_service_ms / perf_factor
        cv = self.qos.service_cv
        sigma2 = np.log(1.0 + cv * cv)
        mu = np.log(mean) - 0.5 * sigma2
        return rng.lognormal(mu, np.sqrt(sigma2), size=n)

    def run(
        self,
        arrival_rate_per_ms: float,
        perf_factor: float = 1.0,
        n_requests: int = 20000,
        seed_offset: int = 0,
    ) -> LatencyStats:
        """Simulate ``n_requests`` and return sojourn-time statistics.

        ``perf_factor`` scales service times (1.0 = full-core performance).
        ``seed_offset`` selects an independent replication; the default keeps
        common random numbers across configurations, making comparisons
        paired (the binary searches in the slack analysis rely on this).
        """
        if n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {n_requests}")
        if arrival_rate_per_ms <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 < perf_factor <= 1.0 + 1e-9:
            raise ValueError("perf_factor must be in (0, 1]")
        rng = np.random.default_rng((self.seed * 1_000_003 + seed_offset) & 0x7FFFFFFF)
        arrivals = self._sample_arrivals(arrival_rate_per_ms, n_requests, rng)
        services = self._sample_services(perf_factor, n_requests, rng)

        # Worker free times: the n_workers largest completions so far.
        workers = [0.0] * self.n_workers
        replace = heapq.heapreplace
        done = array("d")
        append = done.append
        for arrival, service in zip(
            array("d", arrivals.tobytes()), array("d", services.tobytes())
        ):
            free_at = workers[0]
            finish = (free_at if free_at > arrival else arrival) + service
            replace(workers, finish)
            append(finish)
        completions = np.frombuffer(done)
        latencies = completions - arrivals
        depths = np.arange(n_requests, dtype=np.float64)
        depths -= np.searchsorted(np.sort(completions), arrivals, side="right")
        return LatencyStats.from_latencies(latencies, depths)

    # ------------------------------------------------------------------

    def meets_qos(self, stats: LatencyStats) -> bool:
        """Does a run satisfy the service's latency target?"""
        return stats.percentile(self.qos.percentile) <= self.qos.target_ms

    def peak_load(self, n_requests: int = 20000) -> float:
        """Peak sustainable arrival rate (requests/ms) at full performance.

        The largest rate whose tail latency still meets the QoS target —
        the paper's "100% load" reference point, found by bisection.
        """
        cached = self._peak_rate_cache.get(n_requests)
        if cached is not None:
            return cached
        # Upper bound: service capacity; lower bound: near-zero load.
        capacity = self.n_workers / self.qos.base_service_ms
        lo, hi = capacity * 0.02, capacity * 0.999
        if not self.meets_qos(self.run(lo, n_requests=n_requests)):
            raise RuntimeError(
                "QoS target unreachable even at minimal load; check the QoSSpec"
            )
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if self.meets_qos(self.run(mid, n_requests=n_requests)):
                lo = mid
            else:
                hi = mid
        self._peak_rate_cache[n_requests] = lo
        return lo

    def latency_vs_load(
        self,
        load_fractions: list[float],
        perf_factor: float = 1.0,
        n_requests: int = 20000,
    ) -> list[tuple[float, LatencyStats]]:
        """Figure 1: latency statistics across load points (fractions of peak)."""
        for fraction in load_fractions:
            if not 0.0 < fraction <= 1.2:
                raise ValueError(f"load fraction {fraction} out of range")
        peak = self.peak_load(n_requests=n_requests)
        return [
            (fraction, self.run(peak * fraction, perf_factor, n_requests))
            for fraction in load_fractions
        ]
