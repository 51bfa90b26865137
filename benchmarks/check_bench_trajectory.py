#!/usr/bin/env python
"""Bench-trajectory guard: fail CI on throughput regressions.

Compares freshly generated benchmark payloads against the committed
baselines under ``benchmarks/results/``:

* ``BENCH_fleet.json`` — per-size ``server_windows_per_s`` from the
  fleet scaling benchmark.  A size present in both payloads may not
  regress by more than ``--max-regression`` (default 25%).  The
  10k-vs-100k falloff ratio (how much throughput the working-set jump
  costs — ROADMAP's memory-bandwidth trail) is recorded for both
  payloads and printed; it is informational, since the per-size gates
  already bound each end of the ratio.
* ``BENCH_core.json`` — per-scenario ``speedup`` from the core
  benchmark (``SMTCore`` over ``ReferenceCore`` cycles/sec, timed
  interleaved in one process), same 25% budget.  The gate reads the
  ratio, not the absolute ``core_cps``: the host's speed drifts between
  runs (identical code has read -16..-26% ``core_cps``), and both engines
  drift together.  Plus the surrogate-tier sweep entry, gated on an
  absolute floor (``min_warm_speedup``, committed inside the payload):
  the warm fit-cached evaluation must stay at least that many times
  faster than the quick-exact DES sweep.

Usage (the CI flow: stash the committed results, rerun the benchmark —
which rewrites the payloads in place — then compare)::

    cp benchmarks/results/BENCH_fleet.json /tmp/baseline_fleet.json
    REPRO_BENCH_FLEET_SIZES=1000,10000,100000 \
        pytest benchmarks/test_fleet_scaling.py -x -q -s -o addopts=
    python benchmarks/check_bench_trajectory.py \
        --baseline-fleet /tmp/baseline_fleet.json

Absolute wall times are machine-dependent; the guard therefore compares
each fresh number against the committed baseline *ratio-wise* and is
meant to run on runners comparable to the ones that produced the
baseline.  Exits 1 on any regression beyond the margin, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def load(path: Path) -> dict | None:
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def check_ratio(label: str, baseline: float, fresh: float,
                max_regression: float, failures: list[str],
                fmt: str = ",.0f") -> None:
    """Flag ``label`` when ``fresh`` fell more than the margin below."""
    if baseline <= 0:
        return
    change = fresh / baseline - 1.0
    marker = ""
    if change < -max_regression:
        failures.append(
            f"{label}: {baseline:{fmt}} -> {fresh:{fmt}} "
            f"({change:+.1%}, allowed -{max_regression:.0%})"
        )
        marker = "  << REGRESSION"
    print(f"  {label:32s} {baseline:>12{fmt}} -> {fresh:>12{fmt}} "
          f"({change:+7.1%}){marker}")


def check_fleet(baseline: dict, fresh: dict, max_regression: float,
                failures: list[str]) -> None:
    base_sws = baseline.get("server_windows_per_s", {})
    fresh_sws = fresh.get("server_windows_per_s", {})
    shared = sorted(set(base_sws) & set(fresh_sws), key=int)
    if not shared:
        failures.append("fleet: no fleet sizes shared with the baseline")
        return
    print(f"fleet server_windows_per_s ({len(shared)} shared sizes):")
    for size in shared:
        check_ratio(f"fleet[{size}]", float(base_sws[size]),
                    float(fresh_sws[size]), max_regression, failures)

    # The 10k -> 100k falloff: the jump past cache residency.  >1 means
    # throughput fell with the larger working set.
    for name, payload in (("baseline", base_sws), ("fresh", fresh_sws)):
        if "10000" in payload and "100000" in payload:
            falloff = float(payload["10000"]) / float(payload["100000"])
            print(f"  10k-vs-100k falloff ({name}): {falloff:.2f}x")

    # Heterogeneous-placement stepping overhead vs the homogeneous path.
    # The benchmark itself asserts the budget; the trajectory guard only
    # fails when a fresh payload breaches it (older baselines may predate
    # the field entirely).
    for kind in ("placement", "scenario"):
        budget = fresh.get(f"{kind}_overhead_budget")
        for name, payload in (("baseline", baseline), ("fresh", fresh)):
            overhead = payload.get(f"{kind}_overhead")
            if overhead is None:
                continue
            servers = payload.get(f"{kind}_overhead_servers", "?")
            print(f"  {kind} overhead ({name}, {servers} servers): "
                  f"{float(overhead):+.1%}")
            if name == "fresh" and budget is not None \
                    and float(overhead) > float(budget):
                failures.append(
                    f"fleet: {kind} overhead {float(overhead):+.1%} exceeds "
                    f"budget {float(budget):.0%}"
                )


def check_core(baseline: dict, fresh: dict, max_regression: float,
               failures: list[str]) -> None:
    base_scenarios = baseline.get("scenarios", {})
    fresh_scenarios = fresh.get("scenarios", {})
    shared = sorted(set(base_scenarios) & set(fresh_scenarios))
    if not shared:
        failures.append("core: no scenarios shared with the baseline")
        return
    print(f"core speedup over ReferenceCore ({len(shared)} shared scenarios):")
    for name in shared:
        check_ratio(f"core[{name}]",
                    float(base_scenarios[name]["speedup"]),
                    float(fresh_scenarios[name]["speedup"]),
                    max_regression, failures, fmt=".2f")

    # Surrogate-tier sweep: the warm (fit-cached) evaluation must keep its
    # wall-clock advantage over the quick-exact DES sweep.  The floor is
    # absolute (not baseline-relative) and travels inside the payload, so
    # older baselines without the section are simply skipped.
    for name, payload in (("baseline", baseline), ("fresh", fresh)):
        entry = payload.get("surrogate")
        if entry is None:
            continue
        speedup = float(entry["warm_speedup"])
        floor = float(entry.get("min_warm_speedup", 0.0))
        print(f"  surrogate warm speedup ({name}): {speedup:.1f}x "
              f"(exact {entry['exact_s']}s, warm {entry['warm_s']}s, "
              f"floor {floor:.0f}x)")
        if name == "fresh" and speedup < floor:
            failures.append(
                f"core: surrogate warm speedup {speedup:.1f}x below the "
                f"{floor:.0f}x floor"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--baseline-fleet", type=Path, default=None,
        help="committed BENCH_fleet.json to compare against",
    )
    parser.add_argument(
        "--baseline-core", type=Path, default=None,
        help="committed BENCH_core.json to compare against",
    )
    parser.add_argument(
        "--fresh-fleet", type=Path,
        default=RESULTS_DIR / "BENCH_fleet.json",
        help="freshly generated BENCH_fleet.json",
    )
    parser.add_argument(
        "--fresh-core", type=Path,
        default=RESULTS_DIR / "BENCH_core.json",
        help="freshly generated BENCH_core.json",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional throughput drop (default 0.25)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    compared = 0
    for label, baseline_path, fresh_path, checker in (
        ("fleet", args.baseline_fleet, args.fresh_fleet, check_fleet),
        ("core", args.baseline_core, args.fresh_core, check_core),
    ):
        if baseline_path is None:
            continue
        baseline = load(baseline_path)
        fresh = load(fresh_path)
        if baseline is None:
            failures.append(f"{label}: baseline {baseline_path} missing")
            continue
        if fresh is None:
            failures.append(f"{label}: fresh payload {fresh_path} missing "
                            "(did the benchmark run?)")
            continue
        checker(baseline, fresh, args.max_regression, failures)
        compared += 1

    if compared == 0 and not failures:
        print("nothing to compare: pass --baseline-fleet and/or "
              "--baseline-core", file=sys.stderr)
        return 2
    if failures:
        print("\nbench trajectory FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench trajectory OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
