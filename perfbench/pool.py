"""The engine process pool used by paper-quick.

:class:`~repro.engine.ExecutionEngine` accepts a ``pool_factory``; this
one returns a :class:`ProcessPoolExecutor` (the engine's default, same
start method) whose workers time the reference kernel before each job, so
the main process can normalize the pool's wall time by the speed of the cores
the jobs ran on.  In a traced run each worker also records the job's
spans and sends them back with the result.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor

from perfbench import stats
from perfbench import trace as tracing


def _run_job(job, traced: bool, parent_index):
    """Worker side: reference reading, then the job (traced on request)."""
    ref = stats.reference_s()
    if not traced:
        return tuple(job.run()), ref, [], {}
    tracer = tracing.Tracer()
    tracer.remote_parent = parent_index
    tracing._Active.tracer = tracer
    try:
        with tracer.span("engine.job", job.key):
            values = tuple(job.run())
    finally:
        tracing._Active.tracer = None
    return values, ref, [s.as_tuple() for s in tracer.spans], tracer.counters


class BenchPool(ProcessPoolExecutor):
    """Process pool whose jobs report a reference reading (and spans)."""

    def __init__(self, workers: int, refs: list, tracer=None):
        super().__init__(max_workers=workers)
        self._refs = refs
        self._tracer = tracer
        self._lock = threading.Lock()

    def submit(self, fn, job, /):
        tracer = self._tracer
        current = tracer.current if tracer is not None else None
        inner = super().submit(
            _run_job, job, tracer is not None,
            current.index if current is not None else None,
        )
        outer: Future = Future()

        def relay(done: Future) -> None:
            if done.cancelled():
                outer.cancel()
                outer.set_running_or_notify_cancel()
                return
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            values, ref, rows, counters = done.result()
            with self._lock:
                self._refs.append(ref)
            if tracer is not None:
                tracer.merge_worker(rows, counters)
            outer.set_result(values)

        inner.add_done_callback(relay)
        return outer


def pool_factory(refs: list, tracer=None):
    """A ``pool_factory`` for :class:`~repro.engine.ExecutionEngine`."""
    return lambda workers: BenchPool(workers, refs, tracer)
