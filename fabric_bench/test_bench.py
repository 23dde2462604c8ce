#!/usr/bin/env python3
"""The fabric benchmark's own tests.

Run from the repository root (builds the benchmark first if needed):

    python3 fabric_bench/test_bench.py

Short runs of every workload check that each metric named in
BENCHMARK.json prints with its unit, that the layer shares sum to 1, that a
corrupted delivery fails the output check, that a rerun of a seed repeats
every simulated-time metric, that the traced run exports a loadable trace,
and that the benchmark refuses to run without the repository's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("line8_min", "rpc_tokens", "fanin_observed")
SIM_METRICS = ("sim_latency_p50_us", "sim_latency_p99_us", "sim_goodput_mbps")
SHARES = ("sim.share", "net.share", "viper.share", "tokens.share",
          "transport.share", "obs.share", "unattributed.share")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def bench(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    """Runs the benchmark; returns (exit code, parsed last line or None)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result, out.stderr


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertTrue(math.isfinite(got[name]["value"]), name)

    def test_end_to_end_metrics_print_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, err = bench(w)
                self.assertEqual(rc, 0, err)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_and_shares_sum_to_one(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, err = bench(w, trace=1)
                self.assertEqual(rc, 0, err)
                self.check_metrics(result, SPEC["per_layer"])
                m = result["metrics"]
                self.assertAlmostEqual(sum(m[s]["value"] for s in SHARES), 1.0,
                                       places=9)
                self.assertGreater(m["trace.overhead_ratio"]["value"], 0)
                self.assertGreater(m["sim.events_per_pkt"]["value"], 0)

    def test_corrupted_delivery_fails_the_output_check(self):
        rc, result, _ = bench("line8_min", extra=["--corrupt"])
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_rerun_repeats_simulated_time_metrics(self):
        for w in ("line8_min", "fanin_observed"):
            with self.subTest(workload=w):
                first = bench(w, seed=7)[1]["metrics"]
                again = bench(w, seed=7)[1]["metrics"]
                other = bench(w, seed=8)[1]["metrics"]
                for name in SIM_METRICS:
                    self.assertEqual(first[name], again[name], name)
                self.assertNotEqual(first["sim_latency_p99_us"],
                                    other["sim_latency_p99_us"])

    def test_traced_run_exports_chrome_trace(self):
        rc, _, err = bench("rpc_tokens", seed=3, trace=1)
        self.assertEqual(rc, 0, err)
        with open(os.path.join(build_dir(), "trace_rpc_tokens_3.json")) as f:
            events = json.load(f)["traceEvents"]
        self.assertGreater(len(events), 0)
        names = {e["name"] for e in events}
        self.assertTrue({"setup", "directory.query", "sim.run",
                         "transport.invoke", "bench.serve"} <= names)
        for e in events[:1000]:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            self.assertIn("parent", e["args"])
            self.assertIn("op", e["args"])
            if e["args"]["parent"] >= 0:
                parent = events[e["args"]["parent"]]
                self.assertLessEqual(parent["ts"], e["ts"])

    def test_refuses_to_run_without_the_sources(self):
        iso = os.path.join(build_dir(), "selftest_isolated")
        shutil.rmtree(iso, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(iso, "fabric_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        cmd = [sys.executable, "fabric_bench/run.py", "--workload", "line8_min",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(cmd, cwd=iso, capture_output=True, text=True,
                             timeout=180, env=env)
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
