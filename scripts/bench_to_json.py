#!/usr/bin/env python3
"""Collect the repo's microbenchmark results into one JSON document.

Runs the google-benchmark binary bench_overhead with
--benchmark_format=json --benchmark_min_time=0.5 and folds every
benchmark into a flat {name: ns_per_op} map using cpu_time; then runs
`bench_overhead --paired`, whose flat JSON object (the interleaved
pair:<num>:<den>:num_ns / den_ns timings check_overhead.py gates on) is
merged in as is; then runs bench_scalability and
records its ENGINE_NS line (the forwarding engine's ns/packet) under
scalability.batched_engine, the key earlier artifacts used for the same
engine; then runs bench_header_overhead and records
its INT_BYTES line (trailer bytes per hop with path telemetry off/on)
under header.int_*.

The output (default BENCH_CI.json) is what CI uploads as the per-build
performance artifact, gates on the overhead ratios (check_overhead.py
BENCH_CI.json) and gates against the newest committed BENCH_PR<n>.json
(check_bench_trend.py BENCH_CI.json).  The schema is
deliberately trivial: one flat object, names stable across runs, values
in nanoseconds (except the byte-valued header.int_* entries).

Usage: bench_to_json.py --bindir build/bench [--out BENCH_CI.json]
"""

import argparse
import json
import re
import subprocess
import sys

# ENGINE_NS per_packet=61.6
ENGINE_NS = re.compile(r"ENGINE_NS\s+per_packet=([\d.]+)")

# INT_BYTES per_hop_off=4 per_hop_on=40 record=36
INT_BYTES = re.compile(
    r"INT_BYTES\s+per_hop_off=(\d+)\s+per_hop_on=(\d+)\s+record=(\d+)")


def run_gbench(bindir, results):
    out = subprocess.run(
        [f"{bindir}/bench_overhead", "--benchmark_format=json",
         "--benchmark_min_time=0.5"],
        capture_output=True, text=True, check=True).stdout
    for bench in json.loads(out)["benchmarks"]:
        results[bench["name"]] = float(bench["cpu_time"])
    paired = subprocess.run(
        [f"{bindir}/bench_overhead", "--paired"],
        capture_output=True, text=True, check=True).stdout
    results.update(json.loads(paired))


def run_scalability(bindir, results):
    out = subprocess.run(
        [f"{bindir}/bench_scalability"],
        capture_output=True, text=True, check=True).stdout
    match = ENGINE_NS.search(out)
    if match is None:
        sys.exit("error: no ENGINE_NS line in bench_scalability output")
    results["scalability.batched_engine"] = float(match.group(1))


def run_header_overhead(bindir, results):
    out = subprocess.run(
        [f"{bindir}/bench_header_overhead"],
        capture_output=True, text=True, check=True).stdout
    match = INT_BYTES.search(out)
    if match is None:
        sys.exit("error: no INT_BYTES line in bench_header_overhead output")
    off, on, record = (int(g) for g in match.groups())
    results["header.int_bytes_per_hop_off"] = off
    results["header.int_bytes_per_hop_on"] = on
    results["header.int_record_bytes"] = record


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bindir", default="build/bench",
                        help="directory holding the bench binaries")
    parser.add_argument("--out", default="BENCH_CI.json",
                        help="output JSON path")
    args = parser.parse_args()

    results = {}
    run_gbench(args.bindir, results)
    run_scalability(args.bindir, results)
    run_header_overhead(args.bindir, results)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(results)} benchmarks, ns/op)")


if __name__ == "__main__":
    main()
