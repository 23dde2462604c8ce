#!/usr/bin/env python3
"""Builds the fabric benchmark from source and runs one workload.

Usage, from the repository root:

    python3 fabric_bench/run.py --workload line8_min --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
repository root.  Build output is kept in <build dir>/build.log and shown on
failure.  With --trace 1 the benchmark's spans are written to
<build dir>/trace_<workload>_<seed>.json (Chrome trace-event format, loads in
Perfetto).  The last line of standard output is the benchmark's JSON result;
the exit code is the benchmark's (non-zero on a failed output check or a
failed build).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fabric_bench",
                  "-j", str(os.cpu_count() or 2)])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("fabric_bench: build failed (%s)\n" % log_path)
        # A half-configured tree would be reused by the next run.
        if len(steps) == 2:
            try:
                os.remove(os.path.join(out, "CMakeCache.txt"))
            except OSError:
                pass
        sys.exit(1)
    return os.path.join(out, "fabric_bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="inject wire corruption (the output-check self test)")
    args = p.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace_%s_%d.json" % (args.workload, args.seed))]
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
