"""Summary statistics and output digests shared by the benchmark workloads."""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time

import numpy as np

#: A reported tail percentile must leave at least this many samples beyond it.
TAIL_MARGIN = 10

#: Reference-kernel time, in seconds, that normalized timings are scaled to
#: (about its median on a quiet 2-vCPU x86-64 cloud VM).
REF_NOMINAL_S = 1.25e-3
_REF_DATA = np.random.default_rng(0).random(50_000)


def reference_s(repeats: int = 1) -> float:
    """Median wall time of a fixed reference kernel (a numpy sort plus an
    interpreter loop, about 1.25 ms), run ``repeats`` times on this thread."""
    times = []
    for __ in range(repeats):
        t0 = time.perf_counter()
        data = _REF_DATA.copy()
        data.sort()
        total = 0
        for i in range(20_000):
            total += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalize(raw_s: float, refs) -> float:
    """Scale a timing by the reference readings taken around it.

    The machine's speed drifts by tens of percent within seconds (other
    tenants share its cores); the reference kernel, timed on the same
    thread just before and after the measured work, drifts with it, so
    the ratio is far steadier than either.  The result is the timing on a
    machine where the kernel takes :data:`REF_NOMINAL_S`.
    """
    return raw_s * REF_NOMINAL_S / statistics.median(refs)


class Paired:
    """Time a block between reference readings on the same thread.

    With ``period`` set, an interval timer also takes a reference reading
    every ``period`` seconds inside the block (the signal handler runs on
    the main thread, between bytecodes), so long blocks are normalized by
    the speed they actually ran at; the handler's own time is excluded
    from ``raw``.  ``raw`` and ``value`` (normalized) are in seconds.
    """

    def __init__(self, repeats: int = 1, period: float | None = None, refs=None):
        self.repeats = repeats
        self.period = period
        #: Readings taken for this block (pass a shared list to pool them).
        self.refs: list[float] = refs if refs is not None else []
        self.raw = self.value = 0.0
        self._handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self._handler_s += time.perf_counter() - t0

    def __enter__(self) -> "Paired":
        self._first = len(self.refs)
        self.refs.append(reference_s(self.repeats))
        if self.period is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = time.perf_counter() - self._t0
        if self.period is not None:
            signal.signal(signal.SIGALRM, self._previous)
        self.raw = elapsed - self._handler_s
        self.refs.append(reference_s(self.repeats))
        self.value = normalize(self.raw, self.readings)

    @property
    def readings(self) -> list[float]:
        """The reference readings taken for this block."""
        return self.refs[self._first:]


def tail_percentile(n_samples: int, margin: int = TAIL_MARGIN) -> float | None:
    """Highest whole percentile, p50 to p99, with at least ``margin`` samples
    beyond it; ``None`` when even the median has fewer."""
    for pct in range(99, 49, -1):
        if n_samples * (100 - pct) >= margin * 100:
            return float(pct)
    return None


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (numpy's default rule)."""
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` of the highest well-supported percentile.

    With too few samples for any percentile to qualify, the maximum
    (percentile 100) stands in.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        return 100.0, float(max(values))
    return pct, percentile(values, pct)


def summary(values) -> dict:
    """Median, quartile spread and sample count of a timing series."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "iqr": q3 - q1, "n": len(values)}


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def digest_values(values) -> str:
    """SHA-256 of a float sequence, as float64 bytes (order-sensitive)."""
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def digest_json(payload) -> str:
    """SHA-256 of a JSON-able payload in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(recorded: dict, workload: str, seed: int, digest: str) -> bool | None:
    """Compare ``digest`` with the one recorded for ``(workload, seed)``.

    Returns ``None`` when nothing is recorded for that pair, else whether
    the digests match.
    """
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is None:
        return None
    return expected == digest
