"""Repeat benchmark runs over seeds; report spreads or compare two run sets.

Usage, from the root of the tree to measure::

    python3 perfbench/spread.py --workloads serve-ops --seeds 1-5 --out a.json
    python3 perfbench/spread.py --workloads serve-ops --seeds 1-5 --out b.json \\
        --baseline a.json

Each run is ``perfbench/run.py`` in a fresh process.  For every workload
and metric the report gives the median, the quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``) and, with
``--baseline``, the change of the median against the baseline set, flagged
``REGRESSION`` when it is worse than the metric's bound in
``BENCHMARK.json`` and ``worse`` when it is worse by more than the
baseline's own spread (a change the runs can resolve).  ``--trace 1`` measures the per-layer metrics instead
(no bounds; the change is reported for attribution).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, __, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int, record: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        + (["--record"] if record else []),
        capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(results: dict) -> dict:
    """``{workload: {metric: {"median", "spread", "n"}}}`` from raw runs."""
    out: dict = {}
    for workload, runs in results.items():
        series: dict = {}
        for run in runs:
            for name, metric in run["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
        out[workload] = {
            name: {"median": statistics.median(v), "spread": spread(v), "n": len(v)}
            for name, v in series.items()
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the raw runs here (JSON)")
    parser.add_argument("--baseline", help="raw runs of another set to compare with")
    parser.add_argument("--record", action="store_true",
                        help="record each run's output digest (run.py --record)")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads.split(",")
    results: dict = {w: [] for w in workloads}
    failed = 0
    # Seeds outermost, workloads interleaved within each seed.
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = run_once(workload, seed, bench["run_seconds"], args.trace, args.record)
            failed += not run["correct"]
            results[workload].append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle)

    summary = summarize(results)
    base = None
    if args.baseline:
        with open(args.baseline) as handle:
            base = summarize(json.load(handle))
    regressions = 0
    for workload, metrics in summary.items():
        print(f"== {workload}")
        for name, s in metrics.items():
            meta = bounds.get(name, {})
            line = (f"  {name:<32} median {s['median']:>14.6g} "
                    f"spread {s['spread']:7.2%} n={s['n']}")
            if "bound" in meta:
                line += f"  (bound {meta['bound']:.0%})"
            if base is not None and name in base.get(workload, {}):
                before = base[workload][name]["median"]
                change = (s["median"] - before) / before if before else 0.0
                worse = -change if meta.get("better") == "higher" else change
                line += f"  change {change:+.2%}"
                if "bound" in meta and worse > meta["bound"]:
                    line += "  REGRESSION"
                    regressions += 1
                elif worse > base[workload][name]["spread"]:
                    line += "  worse"
            print(line)
    print(f"incorrect runs: {failed}; regressions: {regressions}")
    return 1 if failed or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
