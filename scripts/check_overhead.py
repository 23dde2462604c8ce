#!/usr/bin/env python3
"""Gate on the data-path cost contracts of the observability planes.

Reads the flat {name: ns_per_op} results that bench_to_json.py writes
(BENCH_CI.json) and fails if any ratio in GATES exceeds its bound.  Each
ratio compares a plane's mode against its baseline, as measured by
`bench_overhead --paired`: the two sides run interleaved in short slices
over repeated rounds, each side keeps every slice's fastest repetition,
and the ratio divides the sums (keys pair:<num>:<den>:num_ns and
...:den_ns).  A single unrepeated sample per benchmark, the statistic
before, failed some row in one run of five on a shared VM.  The bounds
are deliberately loose,
since CI machines are noisy, but they still catch the failure the
contracts forbid: per-packet work (allocation, locking, encoding)
appearing on a path that should cost one untaken branch.  A benchmark
missing from the results fails the gate.

Usage: check_overhead.py BENCH_CI.json
       check_overhead.py --self-test
"""

import argparse
import json
import sys

# (numerator, denominator, bound, what the ratio guards)
GATES = [
    ("BM_EnqueueTracingUntraced", "BM_EnqueueNoObserver", 1.25,
     "obs: disabled tracing on the enqueue path"),
    ("BM_ForwardObsNoFlow", "BM_ForwardNoObserver", 1.40,
     "flow: forward path with obs wired, no flow plane"),
    ("BM_ForwardFlowEnabled", "BM_ForwardObsNoFlow", 1.50,
     "flow: enabled flow accounting"),
    ("BM_ForwardWiredUnmarked", "BM_ForwardNoObserver", 1.25,
     "int: path telemetry wired, nothing marked"),
    ("BM_FabricSendHealthEnabled", "BM_FabricSendNoHealth", 1.25,
     "health: monitor ticking on the send path"),
]


def pair_keys(num, den):
    """The paired measurement's keys: numerator and denominator ns/op."""
    return f"pair:{num}:{den}:num_ns", f"pair:{num}:{den}:den_ns"


def check(times):
    """Prints one line per gate; returns the number of failures."""
    failures = 0
    for num, den, bound, what in GATES:
        num_key, den_key = pair_keys(num, den)
        if num_key not in times or den_key not in times:
            missing = num_key if num_key not in times else den_key
            print(f"FAIL {what}: paired result {missing!r} missing")
            failures += 1
            continue
        ratio = times[num_key] / times[den_key]
        verdict = "ok  " if ratio <= bound else "FAIL"
        failures += ratio > bound
        print(f"{verdict} {what}: {num} {times[num_key]:.1f} ns / {den} "
              f"{times[den_key]:.1f} ns = {ratio:.3f} (bound {bound})")
    return failures


def self_test():
    """An in-bound table passes; an over-bound ratio or a gap fails."""
    passing = {key: 100.0 for gate in GATES for key in pair_keys(*gate[:2])}
    over_key = pair_keys("BM_ForwardFlowEnabled", "BM_ForwardObsNoFlow")[0]
    over = dict(passing, **{over_key: 151.0})
    missing = dict(passing)
    del missing[pair_keys("BM_FabricSendHealthEnabled",
                          "BM_FabricSendNoHealth")[1]]
    failures = 0
    for label, times, expect in (("in-bound table passes", passing, 0),
                                 ("over-bound ratio fails", over, 1),
                                 ("missing benchmark fails", missing, 1)):
        got = check(times)
        ok = got == expect
        failures += not ok
        print(f"self-test {'PASS' if ok else 'FAIL'}: {label} "
              f"({got} failing gate(s), expected {expect})")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="?",
                        help="flat results from bench_to_json.py")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate logic and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.results is None:
        parser.error("results is required")
    with open(args.results, encoding="utf-8") as handle:
        times = {name: float(value)
                 for name, value in json.load(handle).items()}
    if check(times):
        print("FAIL: overhead exceeds bound")
        return 1
    print("OK: every overhead ratio within bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
