"""In-memory span tracing around the calls into each layer of ``repro``.

The traced run wraps the public entry points of each layer (trace
generation, core construction and run, sampling, the result store, the
queueing DES, the fleet stepper, scenarios, SLO/recorder/sink and the
service verbs) so that every call leaves one span: name, start, end,
parent and an id shared by the spans of one job (its key) or one window
(its index).  Engine pool workers are traced too: the benchmark's pool
(:mod:`perfbench.pool`) ships each job's worker-side spans back with its
result.  Spans stay in memory until the run's report reads them.

Nothing here runs unless ``--trace 1`` is given: the untraced run calls
the package exactly as a user would.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager

#: Layers in report order (module names under ``src/repro``), plus the
#: benchmark's own code between calls.
LAYERS = (
    "workloads", "cpu", "engine", "experiments", "qos",
    "fleet", "scenarios", "obs", "service", "bench",
)


#: Span ids, unique within a process across all its tracers.
_SERIAL = itertools.count()


class Span:
    __slots__ = ("name", "start", "end", "parent", "sid", "pid", "index")

    def __init__(self, name, start, parent, sid, pid, index):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.sid = sid
        self.pid = pid
        self.index = index

    def as_tuple(self):
        return (self.name, self.start, self.end, self.parent, self.sid,
                self.pid, self.index)

    @classmethod
    def from_tuple(cls, row):
        span = cls(row[0], row[1], row[3], row[4], row[5], row[6])
        span.end = row[2]
        return span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans plus named counters for one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []
        # Worker results arrive on the pool's management thread.
        self._lock = threading.Lock()
        #: Index of the parent-process span that worker spans hang under.
        self.remote_parent: int | None = None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def span(self, name: str, sid=None):
        parent = self._stack[-1] if self._stack else None
        if sid is None and parent is not None:
            sid = parent.sid
        with self._lock:
            span = Span(
                name, time.perf_counter(),
                parent.index if parent is not None else self.remote_parent,
                sid, self.pid, (self.pid, next(_SERIAL)),
            )
            self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def merge_worker(self, rows, counters) -> None:
        with self._lock:
            self.spans.extend(Span.from_tuple(row) for row in rows)
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict:
        """``{span index: self seconds}``: duration minus same-process children."""
        child_time: dict = {}
        for span in self.spans:
            if span.parent is not None and span.parent[0] == span.pid:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        return {s.index: s.duration - child_time.get(s.index, 0.0) for s in self.spans}

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, name: str, selfs: dict | None = None) -> float:
        selfs = selfs if selfs is not None else self.self_times()
        return sum(selfs[s.index] for s in self.spans if s.name == name)

    def inclusive_seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def descendants_seconds(self, ancestor: str, name: str) -> float:
        """Inclusive time of ``name`` spans nested anywhere under ``ancestor``."""
        index = {s.index: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None:
                node = index[parent]
                if node.name == ancestor:
                    total += span.duration
                    break
                parent = node.parent
        return total

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (span name prefix), over all processes."""
        selfs = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[span.index]
        return out

    def self_time_error(self, root_name: str, wall_s: float) -> float:
        """``|Σ self − wall| / wall`` over the main process's spans.

        Checks that the main process's spans nest inside the root and that the
        root covers the measured wall time; worker spans are checked
        per job by :meth:`worker_self_time_error`.
        """
        selfs = self.self_times()
        total = sum(selfs[s.index] for s in self.spans if s.pid == self.pid)
        roots = [s for s in self.spans if s.name == root_name and s.pid == self.pid]
        if not roots or wall_s <= 0:
            return 1.0
        return abs(total - wall_s) / wall_s

    def worker_self_time_error(self) -> float:
        """Worst ``|Σ self − job span| / job span`` over traced pool jobs."""
        selfs = self.self_times()
        per_job: dict = {}
        for span in self.spans:
            if span.pid != self.pid:
                per_job[(span.pid, span.sid)] = (
                    per_job.get((span.pid, span.sid), 0.0) + selfs[span.index]
                )
        worst = 0.0
        for span in self.spans:
            if span.pid != self.pid and span.name == "engine.job" and span.duration > 0:
                total = per_job[(span.pid, span.sid)]
                worst = max(worst, abs(total - span.duration) / span.duration)
        return worst


# ----------------------------------------------------------------------
# Layer instrumentation
# ----------------------------------------------------------------------

class _Active:
    """The tracer the installed wrappers report to (swapped in workers)."""

    tracer: Tracer | None = None
    installed = False


def _wrap_function(owner, attr: str, name: str, sid=None, after=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer = _Active.tracer
        if tracer is None:
            return original(*args, **kwargs)
        key = sid(args, kwargs) if sid is not None else None
        with tracer.span(name, key):
            result = original(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    setattr(owner, attr, traced)
    return original


def _store_put_bytes(tracer, args, kwargs, result):
    store, key = args[0], args[1]
    entry_dir = store.entry_dir
    if entry_dir is None:
        return
    try:
        size = os.path.getsize(entry_dir / f"{key}.json")
    except OSError:
        return
    tracer.count("engine.store_bytes_written", size)
    current = tracer.current
    if current is not None and current.name == "service.checkpoint":
        tracer.count("service.checkpoint_bytes", size)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points so calls report to ``tracer``.

    Wrapping happens in the main process before any pool exists, so forked
    engine workers inherit the wrapped functions.  Idempotent per process.
    """
    import repro.cpu.sampling as sampling
    import repro.engine.job as job_module
    from repro.cpu.smt_core import SMTCore
    from repro.engine.store import ResultStore
    from repro.fleet.engine import FleetEngine, FleetState, FleetStepper
    from repro.obs.recorder import FlightRecorder
    from repro.obs.sampler import JsonlSink
    from repro.obs.slo import SLOEngine
    from repro.qos.queueing import ServiceSimulator
    from repro.scenarios import ScenarioSampler
    from repro.service.service import FleetService
    from repro.workloads.generator import TraceGenerator

    _Active.tracer = tracer
    if _Active.installed:
        return
    _Active.installed = True

    _wrap_function(
        TraceGenerator, "generate", "workloads.generate",
        after=lambda t, a, k, r: t.count("workloads.uops", len(r)),
    )
    _wrap_function(sampling, "make_core", "cpu.core_build")

    def core_done(t, a, k, result):
        t.count("cpu.cycles", result.cycles)
        t.count("cpu.samples")

    _wrap_function(SMTCore, "run", "cpu.core_run", after=core_done)
    _wrap_function(job_module, "sample_solo", "cpu.sample")
    _wrap_function(job_module, "sample_colocation", "cpu.sample")
    _wrap_function(ResultStore, "get", "engine.store_get")
    _wrap_function(ResultStore, "put", "engine.store_put", after=_store_put_bytes)

    def des_requests(args, kwargs):
        if "n_requests" in kwargs:
            return kwargs["n_requests"]
        return args[3] if len(args) > 3 else 20000

    _wrap_function(
        ServiceSimulator, "run", "qos.sim",
        after=lambda t, a, k, r: t.count("qos.requests", des_requests(a, k)),
    )
    _wrap_function(FleetEngine, "ensure_surrogate", "fleet.surrogate_fit")
    _wrap_function(FleetState, "copy", "fleet.state_copy")

    def step_done(t, args, kwargs, result):
        t.count("fleet.server_windows", args[0].state.n_servers)

    _wrap_function(
        FleetStepper, "step", "fleet.step",
        sid=lambda a, k: a[0].state.window, after=step_done,
    )
    _wrap_function(ScenarioSampler, "load_factors", "scenarios.load_factors")
    _wrap_function(
        SLOEngine, "observe", "obs.slo_observe",
        after=lambda t, a, k, r: t.count("obs.alerts", len(r)),
    )
    _wrap_function(FlightRecorder, "observe", "obs.recorder_capture")
    _wrap_function(JsonlSink, "write", "obs.sink_write")
    _wrap_function(JsonlSink, "flush", "obs.sink_write")
    _wrap_function(
        FleetService, "advance", "service.advance",
        sid=lambda a, k: a[0].window,
    )
    _wrap_function(FleetService, "whatif", "service.whatif")
    _wrap_function(FleetService, "checkpoint", "service.checkpoint")


def uninstall() -> None:
    """Stop reporting (wrappers stay in place but pass straight through)."""
    _Active.tracer = None
