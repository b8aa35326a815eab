#!/usr/bin/env python3
"""Bench-regression guard for scripts/verify.sh.

Compares a fresh BENCH_core.json against the checked-in baseline on the
guarded benchmarks and fails when wall time per op regresses more than the
threshold. The guard is about catching accidental hot-path regressions in
review, not about enforcing absolute numbers, so it compares like hardware
with like hardware only: both files' meta blocks must name the same
cpu_model and usable_threads. When they differ (or a file has no meta
block) it compares nothing and exits 2 with a message naming both hosts and
the command that re-captures the baseline on this one; it never passes or
fails such a pair silently. On matching hosts a >15% ns_per_op swing on a
pinned-iteration-count benchmark is a code change, not noise. Skip with
verify.sh --skip-bench-guard on busy/shared hardware.

Usage:
  check_bench_regression.py BASELINE FRESH --bench NAME [--bench NAME ...]
      [--max-regression 0.15]

Exit status: 0 no regression, 1 regression or missing row, 2 hosts differ.
"""

import argparse
import json
import sys


RECAPTURE = ("re-capture the baseline on this host: ./build/bench/micro_core "
             "from the repo root (Release preset), then commit "
             "BENCH_core.json")


def load_benchmarks(path):
    """Returns (host, table): host is (cpu_model, usable_threads), with None
    for a field the meta block lacks; table maps bare names to records."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    meta = doc.get("meta", {})
    host = (meta.get("cpu_model"), meta.get("usable_threads"))
    table = {}
    for record in doc.get("benchmarks", []):
        # Registered names may carry gbench suffixes ("/iterations:1");
        # index by the bare prefix so guard names stay stable.
        bare = record["name"].split("/")[0]
        table.setdefault(bare, record)
    return host, table


def describe(host):
    cpu, threads = host
    return (f"cpu_model={cpu if cpu is not None else '<missing>'!r}, "
            f"usable_threads={threads if threads is not None else '<missing>'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--bench", action="append", required=True,
                        dest="benches")
    parser.add_argument("--max-regression", type=float, default=0.15)
    opts = parser.parse_args()

    baseline_host, baseline = load_benchmarks(opts.baseline)
    fresh_host, fresh = load_benchmarks(opts.fresh)
    if None in baseline_host or baseline_host != fresh_host:
        print("bench guard REFUSED: the runs come from different hosts, so "
              "their timings are not comparable", file=sys.stderr)
        print(f"  baseline {opts.baseline}: {describe(baseline_host)}",
              file=sys.stderr)
        print(f"  fresh    {opts.fresh}: {describe(fresh_host)}",
              file=sys.stderr)
        print(f"  {RECAPTURE} (or pass --skip-bench-guard)", file=sys.stderr)
        return 2
    print(f"  host: {describe(fresh_host)}")

    failures = []
    for name in opts.benches:
        if name not in baseline:
            failures.append(f"{name}: missing from baseline {opts.baseline} "
                            "(regenerate the checked-in BENCH_core.json)")
            continue
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run {opts.fresh} "
                            "(benchmark renamed or filtered out?)")
            continue
        base_ns = float(baseline[name]["ns_per_op"])
        fresh_ns = float(fresh[name]["ns_per_op"])
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + opts.max_regression:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {base_ns:.0f} -> {fresh_ns:.0f} ns/op "
                f"({(ratio - 1.0) * 100:+.1f}%, limit "
                f"+{opts.max_regression * 100:.0f}%)")
        print(f"  {name}: {base_ns:.0f} -> {fresh_ns:.0f} ns/op "
              f"({(ratio - 1.0) * 100:+.1f}%) {verdict}")

    if failures:
        print("bench guard FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(f"  (intentional? {RECAPTURE} — or pass --skip-bench-guard)",
              file=sys.stderr)
        return 1
    print("  bench guard OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
