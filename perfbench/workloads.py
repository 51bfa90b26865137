"""The benchmark workloads: paper-quick and serve-ops.

Each workload is a function ``(ctx) -> dict`` that sets up, measures and
checks one product of the repository through its public entry points:

* ``paper-quick`` — the experiment runner's recipe (the engine executes a
  figure's job grid on a process pool, then ``run`` assembles the figure
  from the store) for fig01/fig02/fig03 at quick fidelity, on a cold
  store and again on the warm store;
* ``serve-ops`` — a live :func:`repro.serve` fleet with scenario, SLO,
  flight recorder and metrics sink attached, driven by one closed-loop
  client that also issues ``whatif`` and ``checkpoint`` control requests.

Every workload reports the same end-to-end metric names (see
``BENCHMARK.json``; ``NOTES.md`` maps them to each workload).  Every
timing is taken between two readings of a reference kernel on the same
thread and reported normalized by them (:func:`perfbench.stats.normalize`),
which cancels most of the machine's speed drift; the raw wall times are
printed beside them.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time

from perfbench import stats

#: Figures regenerated by paper-quick.
PAPER_FIGURES = ("fig01", "fig02", "fig03")
#: Engine worker processes for paper-quick.
PAPER_WORKERS = 2
#: Job-grid constructions timed as paper-quick's set-up (median reported).
PAPER_SETUP_REPEATS = 20
#: EngineStats counters summed over a run's engine calls.
ENGINE_COUNTS = ("unique", "executed", "cache_hits", "crash_retries",
                 "failure_retries", "timeouts")
#: Published Fig. 3 aggregates (Margaritov et al., HPCA'19, §III).
PAPER_FIG3 = {"ls_mean": 0.14, "ls_max": 0.28, "batch_mean": 0.24, "batch_max": 0.46}

#: Reference readings during long main-process blocks, one per this many seconds.
SAMPLE_PERIOD_S = 0.25

#: serve-ops: the colocated pair, fleet size, window length, served windows.
SERVE_LS, SERVE_BATCH = "web_search", "zeusmp"
SERVE_SERVERS = 50_000
SERVE_WINDOW_MINUTES = 5.0
SERVE_WINDOWS = 287
#: A what-if every 12 windows; a checkpoint 6 windows after each.
SERVE_WHATIF_EVERY = 12
SERVE_CHECKPOINT_LAG = 6
SERVE_WHATIF = {"cmd": "whatif", "monitor": {"engage_fraction": 0.8}, "horizon": 6}


class Context:
    """One run's inputs, bookkeeping and (optional) tracer."""

    def __init__(self, workload, seed, seconds, workdir, recorded, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.recorded = recorded
        self.tracer = tracer
        #: Reference readings taken in the main process, and by the engine's pool
        #: workers before each job; a traced run scales its layer times by them.
        self.refs: list[float] = []
        self.pool_refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report: list[str] = []
        #: Values the traced run turns into per-layer metrics.
        self.layer: dict[str, float] = {}
        self.digest: str | None = None

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a failure is recorded with ``what``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def ops(self, attempted: int, failed: int, what: str = "") -> None:
        """Count a batch of operations, ``failed`` of which failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def span(self, name: str, sid=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, sid)

    def timer(self, repeats: int = 1, period: float | None = None) -> stats.Paired:
        """A paired timer whose readings also join :attr:`refs`."""
        return stats.Paired(repeats, period, refs=self.refs)

    def pool_factory(self):
        from perfbench.pool import pool_factory

        return pool_factory(self.pool_refs, self.tracer)

    def fresh_store(self, label: str):
        """Point the package's default store at an empty directory."""
        from repro.engine.store import default_store

        path = os.path.join(self.workdir, label)
        os.makedirs(path, exist_ok=False)
        os.environ["REPRO_CACHE_DIR"] = path
        return default_store()

    def check_digest(self, digest: str) -> None:
        self.digest = digest
        verdict = stats.check_digest(self.recorded, self.workload, self.seed, digest)
        if verdict is not None:
            self.op(verdict, f"output digest {digest[:16]} differs from the recorded one")


def _timings(ctx: Context, name: str, raw, normalized, unit: str = "s") -> None:
    """Add one timing series (raw and reference-normalized) to the report."""
    r, n = stats.summary(raw), stats.summary(normalized)
    ctx.report.append(
        f"{name:<16} normalized {n['median']:11.4f} {unit:<2} (IQR {n['iqr']:.4f}); "
        f"raw {r['median']:11.4f} {unit:<2} (IQR {r['iqr']:.4f}); n={n['n']}"
    )


def _rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(setup_s, pass_s, steps_s) -> dict:
    """The shared end-to-end metrics, from (normalized) measurements."""
    steps_ms = [v * 1e3 for v in steps_s]
    __, tail_ms = stats.tail(steps_ms)
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "step_p50_ms": statistics.median(steps_ms),
        "step_tail_ms": tail_ms,
        "peak_rss_mb": _rss_mb(),
    }


# ----------------------------------------------------------------------
# paper-quick
# ----------------------------------------------------------------------

def _paper_pass(ctx: Context, fidelity, store, warm: bool):
    """One fig01-fig03 pass: engine over each job grid, then assembly.

    Returns the pass's JSON payload, figure results, and raw and
    normalized seconds.  The engine call is normalized by the readings
    around it plus those its pool jobs took on the workers; the figure
    assembly (the queueing DES for fig01/fig02) by readings taken during it.
    """
    from repro.engine import EngineConfig, ExecutionEngine
    from repro.experiments.runner import EXPERIMENTS, result_to_jsonable

    payloads, results = {}, {}
    raw = normalized = 0.0
    for name in PAPER_FIGURES:
        module = importlib.import_module(EXPERIMENTS[name])
        if hasattr(module, "jobs"):
            engine = ExecutionEngine(
                EngineConfig(workers=PAPER_WORKERS), pool_factory=ctx.pool_factory()
            )
            first_ref = len(ctx.pool_refs)
            with ctx.span("engine.run_jobs"), ctx.timer(repeats=5) as timer:
                report = engine.run_jobs(module.jobs(fidelity), store=store)
            raw += timer.raw
            normalized += stats.normalize(timer.raw, timer.readings + ctx.pool_refs[first_ref:])
            st = report.stats
            missing = st.unique - (st.executed + st.cache_hits)
            ctx.ops(st.unique, missing, f"{name}: {missing} jobs without a result")
            if warm:
                ctx.op(st.executed == 0, f"{name}: warm pass executed {st.executed} jobs")
            for key in ENGINE_COUNTS:
                ctx.layer[f"engine.{key}"] = ctx.layer.get(f"engine.{key}", 0) + getattr(st, key)
        with ctx.span("experiments.run", name), ctx.timer(3, SAMPLE_PERIOD_S) as timer:
            result = module.run(fidelity)
        raw += timer.raw
        normalized += timer.value
        results[name] = result
        payloads[name] = result_to_jsonable(result)
    return json.dumps(payloads, sort_keys=True), results, raw, normalized


def paper_quick(ctx: Context) -> dict:
    from repro.experiments.common import Fidelity
    from repro.experiments.runner import EXPERIMENTS
    from repro.util.stats import summarize

    fidelity = Fidelity.resolve("quick", ctx.seed)
    modules = [importlib.import_module(EXPERIMENTS[n]) for n in PAPER_FIGURES]
    setups = []
    with ctx.span("bench.setup"):
        for __ in range(PAPER_SETUP_REPEATS):
            with ctx.timer(repeats=3) as timer:
                grid = [job for m in modules if hasattr(m, "jobs") for job in m.jobs(fidelity)]
                keys = {job.key for job in grid}
            setups.append(timer)
    ctx.report.append(f"job grid: {len(grid)} jobs, {len(keys)} unique")

    store = ctx.fresh_store("paper-store")
    with ctx.span("bench.cold_pass"):
        cold_payload, results, cold_raw, cold = _paper_pass(ctx, fidelity, store, warm=False)
    ctx.check_digest(stats.digest_json(json.loads(cold_payload)))

    warm_raw, warm = [], []
    deadline = time.perf_counter() + ctx.seconds
    while not warm or time.perf_counter() < deadline:
        # A fresh process would start with an empty memory layer: the warm
        # pass reads every result back from disk.
        store.clear_memory()
        with ctx.span("bench.warm_pass"):
            warm_payload, __, raw, normalized = _paper_pass(ctx, fidelity, store, warm=True)
        warm_raw.append(raw)
        warm.append(normalized)
        ctx.op(warm_payload == cold_payload, "warm pass output differs from the cold pass")

    fig3 = results["fig03"]
    ls = summarize(fig3.all_ls_slowdowns())
    batch = summarize(fig3.all_batch_slowdowns())
    ctx.report += [
        f"fig03 model vs paper: LS slowdown mean {ls.mean:.1%} (paper "
        f"{PAPER_FIG3['ls_mean']:.0%}), max {ls.maximum:.1%} (paper "
        f"{PAPER_FIG3['ls_max']:.0%}); batch mean {batch.mean:.1%} (paper "
        f"{PAPER_FIG3['batch_mean']:.0%}), max {batch.maximum:.1%} (paper "
        f"{PAPER_FIG3['batch_max']:.0%}) [information only, not gated]",
        "  The model is unvalidated beyond these published aggregates.",
        "  Statistics are collected after checkpoint warming plus the warm-up "
        "instructions, not from cold caches.",
    ]
    _timings(ctx, "setup_s", [t.raw for t in setups], [t.value for t in setups])
    _timings(ctx, "paper_cold_s", [cold_raw], [cold])
    _timings(ctx, "paper_warm_s", warm_raw, warm)
    return _end_to_end(statistics.median(t.value for t in setups), cold, warm)


# ----------------------------------------------------------------------
# serve-ops
# ----------------------------------------------------------------------

def _enable_phase_timers(ctx: Context):
    """Turn on the fleet stepper's phase timers for a traced run."""
    if ctx.tracer is None:
        return None
    from repro.obs.profiler import enable_profiling

    return enable_profiling()


def _collect_phase_timers(ctx: Context, profiler) -> None:
    if profiler is None:
        return
    from repro.obs.profiler import disable_profiling

    for phase in ("loads", "gather", "tails", "monitor", "aggregate"):
        ctx.layer[f"phase.{phase}"] = profiler.seconds(f"fleet.step.{phase}")
    disable_profiling()


def serve_ops(ctx: Context) -> dict:
    """A live service driven window by window by one closed-loop client."""
    from repro import measure, serve
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sampler import JsonlSink
    from repro.obs.slo import DEFAULT_SLOS
    from repro.service.checkpoint import load_checkpoint
    from repro.service.control import handle_command

    store = ctx.fresh_store("serve-store")
    sink_path = os.path.join(ctx.workdir, "serve-metrics.jsonl")
    with ctx.span("bench.setup"), ctx.timer(5, SAMPLE_PERIOD_S) as setup:
        perf = measure(SERVE_LS, SERVE_BATCH)
        service = serve(
            SERVE_LS,
            performance=perf,
            n_servers=SERVE_SERVERS,
            window_minutes=SERVE_WINDOW_MINUTES,
            seed=ctx.seed,
            scenario="black_friday",
            slos=DEFAULT_SLOS,
            recorder=True,
            registry=MetricsRegistry(),
            sink=JsonlSink(sink_path),
        )

    profiler = _enable_phase_timers(ctx)
    windows, whatifs, checkpoints = [], [], []
    alerts = errors = 0
    last_key = last_state = None
    for k in range(SERVE_WINDOWS):
        with ctx.timer() as timer:
            records = service.advance(1)
        windows.append(timer)
        ctx.op(len(records) == 1 and records[0]["window"] == k, f"window {k} not served")
        alerts += len(service.drain_alerts())
        request = None
        if k % SERVE_WHATIF_EVERY == SERVE_WHATIF_EVERY - 1:
            request, series = SERVE_WHATIF, whatifs
        elif k % SERVE_WHATIF_EVERY == SERVE_CHECKPOINT_LAG - 1 and k >= SERVE_WHATIF_EVERY:
            request, series = {"cmd": "checkpoint"}, checkpoints
        if request is None:
            continue
        with ctx.span("service.control", k), ctx.timer() as timer:
            reply = handle_command(service, request)
        series.append(timer)
        ok = bool(reply.get("ok"))
        if request["cmd"] == "checkpoint":
            last_key = (reply.get("result") or {}).get("key")
            ok = ok and bool(last_key)
            last_state = service.state.to_values()
        errors += not ok
        ctx.op(ok, f"{request['cmd']} at window {k}: {reply.get('error', reply)}")
    _collect_phase_timers(ctx, profiler)

    # The last checkpoint must read back from disk as the state it saved.
    store.clear_memory()
    restored = load_checkpoint(store, last_key).to_values()
    ctx.op(
        stats.digest_values(restored) == stats.digest_values(last_state),
        "checkpoint read back differs from the saved state",
    )
    with open(sink_path) as handle:
        sink_lines = sum(1 for __ in handle)
    ctx.op(
        sink_lines == SERVE_WINDOWS + alerts + len(checkpoints),
        f"metrics sink holds {sink_lines} lines",
    )
    ctx.check_digest(stats.digest_json({
        "timeline": stats.digest_values(service.timeline.to_values()),
        "alerts": alerts,
    }))

    ms = lambda timers, attr="value": [getattr(t, attr) * 1e3 for t in timers]  # noqa: E731
    served = windows + whatifs + checkpoints
    day, day_raw = sum(t.value for t in served), sum(t.raw for t in served)
    recorder = service.recorder.status()
    _timings(ctx, "setup_s", [setup.raw], [setup.value])
    _timings(ctx, "served_day_s", [day_raw], [day])
    _timings(ctx, "window_ms", ms(windows, "raw"), ms(windows), "ms")
    pct, tail_ms = stats.tail(ms(windows))
    ctx.report.append(f"window_p{pct:.0f}_ms normalized {tail_ms:.4f} ms (n={len(windows)})")
    _timings(ctx, "whatif_ms", ms(whatifs, "raw"), ms(whatifs), "ms")
    _timings(ctx, "checkpoint_ms", ms(checkpoints, "raw"), ms(checkpoints), "ms")
    ctx.report.append(
        f"server_windows_per_s normalized "
        f"{SERVE_SERVERS * SERVE_WINDOWS / sum(t.value for t in windows):.0f} "
        f"({SERVE_SERVERS} servers x {SERVE_WINDOWS} windows); "
        f"alerts {alerts}, recorder captures {recorder['captures']}"
    )
    ctx.layer.update({
        "obs.captures": recorder["captures"],
        "service.control_errors": errors,
    })
    return _end_to_end(setup.value, day, [t.value for t in windows])


WORKLOADS = {
    "paper-quick": paper_quick,
    "serve-ops": serve_ops,
}
