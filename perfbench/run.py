"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-quick --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the workload with a span around every call into
each layer (pool workers included) and reports the per-layer metrics.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a human-readable report.  ``--record`` stores
this seed's output digest in ``digests.json`` instead of checking it (for
a deliberate change of simulated results).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORK_DIR = ".perfbench_work"

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Layers idle on a workload report 0;
#: times are normalized like the end-to-end ones (see ``layer_metrics``).
LAYER_METRICS = {
    "workloads.generate_s": "s",
    "workloads.uops": "count",
    "workloads.uops_per_s": "1/s",
    "cpu.core_build_s": "s",
    "cpu.core_run_s": "s",
    "cpu.cycles": "count",
    "cpu.cycles_per_s": "1/s",
    "cpu.sample_s": "s",
    "cpu.samples": "count",
    "engine.jobs_executed": "count",
    "engine.cache_hits": "count",
    "engine.hit_rate": "fraction",
    "engine.retries": "count",
    "engine.job_exec_s": "s",
    "engine.queue_wait_s": "s",
    "engine.pool_overhead_s": "s",
    "engine.store_put_s": "s",
    "engine.store_bytes_written": "B",
    "engine.store_get_s": "s",
    "experiments.assemble_s": "s",
    "qos.requests": "count",
    "qos.sim_s": "s",
    "qos.requests_per_s": "1/s",
    "fleet.surrogate_fit_s": "s",
    "fleet.step.loads_ns": "ns",
    "fleet.step.gather_ns": "ns",
    "fleet.step.tails_ns": "ns",
    "fleet.step.monitor_ns": "ns",
    "fleet.step.aggregate_ns": "ns",
    "fleet.state_copy_s": "s",
    "fleet.project_s": "s",
    "scenarios.load_factors_s": "s",
    "obs.slo_observe_us": "us",
    "obs.recorder_capture_us": "us",
    "obs.sink_write_us": "us",
    "obs.alerts": "count",
    "obs.captures": "count",
    "service.advance_s": "s",
    "service.whatif_s": "s",
    "service.checkpoint_s": "s",
    "service.checkpoint_bytes": "B",
    "service.control_errors": "count",
    **{f"{layer}.self_s": "s" for layer in (
        "workloads", "cpu", "engine", "experiments", "qos",
        "fleet", "scenarios", "obs", "service", "bench",
    )},
    "trace.wall_s": "s",
    "trace.pass_s": "s",
    "trace.self_time_error": "fraction",
    "trace.worker_self_time_error": "fraction",
    "trace.spans": "count",
}

#: A traced run whose self times miss its wall time by more is incorrect.
SELF_TIME_TOLERANCE = 0.03


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, ctx, wall_s: float, pass_s: float) -> dict:
    """Per-layer metrics from a traced run's spans, counters and phase timers."""
    from perfbench import stats
    from perfbench.workloads import PAPER_WORKERS

    c = tracer.counters.get
    selfs = tracer.self_times()
    self_s = lambda name: tracer.self_seconds(name, selfs)  # noqa: E731
    incl = tracer.inclusive_seconds
    layer = ctx.layer.get

    generate_s = incl("workloads.generate")
    core_run_s = incl("cpu.core_run")
    qos_s = self_s("qos.sim")

    # Engine: worker-side job spans against their main-process run_jobs span.
    index = {s.index: s for s in tracer.spans}
    jobs = tracer.by_name("engine.job")
    job_exec_s = sum(job.duration for job in jobs)
    queue_wait_s = sum(job.start - index[job.parent].start for job in jobs)
    pooled: dict = {}
    for job in jobs:
        pooled[job.parent] = pooled.get(job.parent, 0.0) + job.duration
    workers = PAPER_WORKERS
    pool_overhead_s = sum(index[p].duration * workers - busy for p, busy in pooled.items())
    unique = layer("engine.unique", 0)

    server_windows = c("fleet.server_windows", 0)
    served = len(tracer.by_name("service.advance"))
    per_window_us = lambda name: _ratio(incl(name), served) * 1e6  # noqa: E731

    out = {
        "workloads.generate_s": generate_s,
        "workloads.uops": c("workloads.uops", 0),
        "workloads.uops_per_s": _ratio(c("workloads.uops", 0), generate_s),
        "cpu.core_build_s": incl("cpu.core_build"),
        "cpu.core_run_s": core_run_s,
        "cpu.cycles": c("cpu.cycles", 0),
        "cpu.cycles_per_s": _ratio(c("cpu.cycles", 0), core_run_s),
        "cpu.sample_s": self_s("cpu.sample"),
        "cpu.samples": c("cpu.samples", 0),
        "engine.jobs_executed": layer("engine.executed", 0),
        "engine.cache_hits": layer("engine.cache_hits", 0),
        "engine.hit_rate": _ratio(layer("engine.cache_hits", 0), unique),
        "engine.retries": sum(layer(f"engine.{k}", 0) for k in (
            "crash_retries", "failure_retries", "timeouts")),
        "engine.job_exec_s": job_exec_s,
        "engine.queue_wait_s": queue_wait_s,
        "engine.pool_overhead_s": pool_overhead_s,
        "engine.store_put_s": incl("engine.store_put"),
        "engine.store_bytes_written": c("engine.store_bytes_written", 0),
        "engine.store_get_s": incl("engine.store_get"),
        "experiments.assemble_s": self_s("experiments.run"),
        "qos.requests": c("qos.requests", 0),
        "qos.sim_s": qos_s,
        "qos.requests_per_s": _ratio(c("qos.requests", 0), qos_s),
        "fleet.surrogate_fit_s": incl("fleet.surrogate_fit"),
        **{
            f"fleet.step.{phase}_ns": _ratio(layer(f"phase.{phase}", 0.0), server_windows) * 1e9
            for phase in ("loads", "gather", "tails", "monitor", "aggregate")
        },
        "fleet.state_copy_s": incl("fleet.state_copy"),
        "fleet.project_s": tracer.descendants_seconds("service.whatif", "fleet.step"),
        "scenarios.load_factors_s": incl("scenarios.load_factors"),
        "obs.slo_observe_us": per_window_us("obs.slo_observe"),
        "obs.recorder_capture_us": per_window_us("obs.recorder_capture"),
        "obs.sink_write_us": per_window_us("obs.sink_write"),
        "obs.alerts": c("obs.alerts", 0),
        "obs.captures": layer("obs.captures", 0),
        "service.advance_s": incl("service.advance"),
        "service.whatif_s": incl("service.whatif"),
        "service.checkpoint_s": incl("service.checkpoint"),
        "service.checkpoint_bytes": c("service.checkpoint_bytes", 0),
        "service.control_errors": layer("service.control_errors", 0),
        **{f"{name}.self_s": value for name, value in tracer.layer_self().items()},
        "trace.wall_s": wall_s,
        "trace.pass_s": pass_s,
        "trace.self_time_error": tracer.self_time_error("bench.run", wall_s),
        "trace.worker_self_time_error": tracer.worker_self_time_error(),
        "trace.spans": len(tracer.spans),
    }
    # Scale layer times by the run's reference readings, as the end-to-end
    # timings are (trace.pass_s already is), so runs at different machine
    # speeds compare.
    scale = stats.normalize(1.0, ctx.refs + ctx.pool_refs)
    for name, unit in LAYER_METRICS.items():
        if name == "trace.pass_s":
            continue
        if unit in ("s", "ns", "us"):
            out[name] *= scale
        elif unit == "1/s":
            out[name] /= scale
    return out


def _load_digests() -> dict:
    with open(DIGESTS) as handle:
        return json.load(handle)


def _record_digest(workload: str, seed: int, digest: str) -> None:
    recorded = _load_digests()
    recorded.setdefault(workload, {})[str(seed)] = digest
    with open(DIGESTS, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digest in digests.json "
                             "instead of checking it (after a deliberate change "
                             "of simulated results)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import stats
    from perfbench import trace as tracing
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    ctx = workloads.Context(
        args.workload, args.seed, args.seconds, workdir,
        {} if args.record else _load_digests(),
        tracer=tracer,
    )
    try:
        if tracer is not None:
            tracing.install(tracer)
        t0 = time.perf_counter()
        with ctx.span("bench.run"):
            measured = workloads.WORKLOADS[args.workload](ctx)
        wall_s = time.perf_counter() - t0
        tracing.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass

    if tracer is None:
        metrics = {name: (measured[name], unit) for name, unit in END_TO_END.items()}
    else:
        values = layer_metrics(tracer, ctx, wall_s, measured["pass_s"])
        ctx.op(values["trace.self_time_error"] <= SELF_TIME_TOLERANCE,
               f"main-process self times miss wall time by {values['trace.self_time_error']:.1%}")
        ctx.op(values["trace.worker_self_time_error"] <= SELF_TIME_TOLERANCE,
               "worker self times miss job time by "
               f"{values['trace.worker_self_time_error']:.1%}")
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}

    if args.record and ctx.failed == 0 and ctx.digest is not None:
        _record_digest(args.workload, args.seed, ctx.digest)

    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={wall_s:.2f}s")
    for line in ctx.report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"digest {ctx.digest}")
    print(f"failed_frac {stats.failed_frac(ctx.failed, ctx.attempted):.6f} "
          f"({ctx.failed} of {ctx.attempted} operations)")
    for problem in ctx.problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
