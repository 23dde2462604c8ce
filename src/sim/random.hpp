// Deterministic random-number substrate for workloads and experiments.
//
// A thin wrapper over xoshiro256** with the distributions the benches need.
// Every component takes an explicit seed so runs are reproducible and
// experiments can vary seeds independently of each other.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace srp::sim {

/// xoshiro256** 1.0 (Blackman & Vigna) — small, fast, high quality, and —
/// unlike std::mt19937 — guaranteed identical across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  /// Re-initializes the state from @p seed via SplitMix64, which guarantees
  /// a non-zero, well-mixed state even for small consecutive seeds.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive).  Precondition: lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability @p p.
  bool chance(double p) { return next_double() < p; }

  /// Exponentially distributed value with mean @p mean.
  double exponential(double mean);

  /// Exponentially distributed inter-arrival gap with the given mean,
  /// rounded to Time (>= 1 ps so the clock always advances).
  Time exp_interval(Time mean);

  /// Geometric number of trials (>= 1) with success probability @p p.
  std::uint64_t geometric(double p);

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal(double mean, double stddev);

  /// Forks an independent stream; derived deterministically from this
  /// stream so components can be given private generators.
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace srp::sim
