#!/usr/bin/env python3
"""Gate a fresh benchmark run against the newest committed per-PR artifact.

A PR that touches a measured path commits its microbenchmark results as
BENCH_PR<n>.json (one flat {name: ns_per_op} object, written by
bench_to_json.py).  This gate compares a fresh run (CI writes
BENCH_CI.json, a name outside the BENCH_PR* glob, so the run is never
taken for a committed artifact) against the newest committed artifact,
and fails if any metric present in both regressed by more than
THRESHOLD (25%):

  new / old  > 1 + THRESHOLD   -> FAIL

The threshold is deliberately loose — the fresh run and the artifact may
come from different machines — but it still catches the failure mode
that matters: a change that quietly doubles a hot-path cost and would
otherwise surface three PRs later as "the benchmarks got slow at some
point".  Metrics that appear only in the fresh run (new benchmarks) or
only in the artifact (retired benchmarks) are reported and skipped.

Usage: check_bench_trend.py BENCH_CI.json
       check_bench_trend.py --self-test
"""

import argparse
import contextlib
import glob
import io
import json
import os
import re
import sys
import tempfile

BENCH_RE = re.compile(r"BENCH_PR(\d+)\.json$")

# Largest tolerated fractional regression (0.25 = 25%).
THRESHOLD = 0.25


def find_artifacts(directory):
    """All BENCH_PR<n>.json under directory, sorted by PR number."""
    found = []
    for path in glob.glob(os.path.join(directory, "BENCH_PR*.json")):
        match = BENCH_RE.search(os.path.basename(path))
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def compare(old, new, threshold):
    """Returns (regressions, skipped) comparing flat metric maps."""
    regressions = []
    for name in sorted(set(old) & set(new)):
        old_value, new_value = float(old[name]), float(new[name])
        if old_value <= 0 or new_value <= 0:
            continue
        ratio = new_value / old_value
        if ratio > 1 + threshold:
            regressions.append((name, old_value, new_value, ratio))
    skipped = sorted(set(old) ^ set(new))
    return regressions, skipped


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_gate(directory, threshold, fresh):
    artifacts = find_artifacts(directory)
    if not artifacts:
        print(f"no BENCH_PR*.json artifact in {directory!r}; "
              f"nothing to compare")
        return 0
    old_path, new_path = artifacts[-1], fresh
    old, new = load(old_path), load(new_path)
    print(f"comparing {os.path.basename(old_path)} -> "
          f"{os.path.basename(new_path)} "
          f"({len(set(old) & set(new))} shared metrics, "
          f"threshold {threshold:.0%})")

    regressions, skipped = compare(old, new, threshold)
    for name in skipped:
        which = "new" if name in new else "retired"
        print(f"  skip ({which}): {name}")
    for name, old_value, new_value, ratio in regressions:
        print(f"  REGRESSION: {name}  {old_value:.1f} -> {new_value:.1f} "
              f"({ratio:.2f}x)")
    if regressions:
        print(f"FAIL: {len(regressions)} metric(s) regressed beyond "
              f"{threshold:.0%}")
        return 1
    print("OK: no metric regressed beyond the threshold")
    return 0


def self_test():
    """The comparison logic must flag regressions only."""
    old = {"BM_Fast": 100.0, "BM_Retired": 10.0}
    failures = 0

    def check(label, new, expect_names):
        nonlocal failures
        regressions, _ = compare(old, new, threshold=0.25)
        names = [name for name, *_ in regressions]
        if names == expect_names:
            print(f"self-test PASS: {label}")
        else:
            failures += 1
            print(f"self-test FAIL: {label}: got {names}, "
                  f"expected {expect_names}")

    check("within threshold passes", {"BM_Fast": 124.0}, [])
    check("ns/op regression flagged", {"BM_Fast": 126.0}, ["BM_Fast"])
    check("improvement never flagged", {"BM_Fast": 10.0}, [])
    check("new-only metric skipped",
          {"BM_Fast": 100.0, "BM_Brand_New": 9999.0}, [])

    # A fresh run is gated against the newest committed artifact (by PR
    # number, so PR10 beats PR9), and its own file is never taken for one.
    with tempfile.TemporaryDirectory() as directory:
        for name, value in (("BENCH_PR9.json", 1000.0),
                            ("BENCH_PR10.json", 100.0)):
            with open(os.path.join(directory, name), "w",
                      encoding="utf-8") as handle:
                json.dump({"BM_Fast": value}, handle)
        fresh = os.path.join(directory, "BENCH_CI.json")
        for label, value, expect in (("fresh run within threshold", 120.0, 0),
                                     ("fresh run regression flagged", 130.0,
                                      1)):
            with open(fresh, "w", encoding="utf-8") as handle:
                json.dump({"BM_Fast": value}, handle)
            skips_fresh = [os.path.basename(p)
                           for p in find_artifacts(directory)] == [
                               "BENCH_PR9.json", "BENCH_PR10.json"]
            with contextlib.redirect_stdout(io.StringIO()):
                verdict = run_gate(directory, 0.25, fresh)
            if verdict == expect and skips_fresh:
                print(f"self-test PASS: {label}")
            else:
                failures += 1
                print(f"self-test FAIL: {label}: gate returned {verdict}, "
                      f"expected {expect}; BENCH_CI.json skipped by the "
                      f"artifact glob: {skips_fresh}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="?",
                        help="a fresh run (e.g. BENCH_CI.json) to gate "
                             "against the newest committed artifact")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparison logic and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.fresh is None:
        parser.error("a fresh run (e.g. BENCH_CI.json) is required")
    return run_gate(".", THRESHOLD, args.fresh)


if __name__ == "__main__":
    sys.exit(main())
