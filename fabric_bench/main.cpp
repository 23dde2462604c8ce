// Sirpent fabric benchmark: wall-clock cost per delivered packet through a
// whole simulated internetwork, with an outside-in per-layer split.
//
//   fabric_bench --workload <line8_min|rpc_tokens|fanin_observed>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>] [--corrupt]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics (README.md has the metric -> layer -> end-to-end map).  The last
// line of standard output is one JSON object; the exit code is 0 only when
// every output check passed.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fabric_bench {
namespace {

/// Before every round the benchmark times a batch of back-to-back set-ups
/// and keeps all but the first; setup_s is the median of the kept ones.
/// The first of a batch, like a round's own set-up, runs with caches cooled
/// by the previous round and is several times slower; batches spread the
/// samples over the whole run, so a few seconds of interference from other
/// tenants move the median little.
constexpr int kSetupBatch = 6;
constexpr double kWarmShare = 0.05;
constexpr std::size_t kCapturePerHop = 256;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fabric_bench: %s\nusage: fabric_bench --workload "
               "<line8_min|rpc_tokens|fanin_observed> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file>] [--corrupt]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--corrupt") {
      a.corrupt = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!known_workload(a.workload)) usage("unknown or missing --workload");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
template <class T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Peak resident set of this process image in MB.  VmHWM, not getrusage:
/// ru_maxrss carries the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// Wall-clock slices of a run's rounds.  Every round of a seed replays the
/// same simulation, so slice i holds the same work in every round; the run
/// keeps, per slice, the fastest of its repetitions.  Other tenants of a
/// shared machine only add time: cache and memory contention slowed whole
/// seconds of a run by up to 1.6x and moved the median slice of a 10 s run
/// by 30% from one run to the next, but it leaves quiet milliseconds, which
/// the fastest repetition of a 1-3 ms slice finds.  Summing the fastest
/// repetitions over the whole round keeps all of the round's work in the
/// figure (a low percentile of the slices instead picked the seed's
/// cheapest stretches, and varied 10% between seeds).  A slowdown of the
/// program itself moves every repetition.  Slices that start within the
/// first kWarmShare of a round's operations are its warm-up and are left
/// out.
struct Slices {
  std::vector<double> best_ns;  ///< per slice: fastest repetition
  std::uint64_t pkts = 0;       ///< per round, over the kept slices
  std::uint64_t ops = 0;
  std::uint64_t payload = 0;
  std::uint64_t slices = 0;     ///< slice timings taken
  // Allocation totals over every kept slice of every round.
  std::uint64_t alloc_pkts = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  void add(const RoundResult& r) {
    const auto warm = static_cast<std::uint64_t>(
        kWarmShare * static_cast<double>(r.attempted));
    const bool first = best_ns.empty();
    std::size_t k = 0;
    for (std::size_t i = 0; i + 1 < r.marks.size(); ++i) {
      const Mark& a = r.marks[i];
      const Mark& b = r.marks[i + 1];
      if (a.ops < warm) continue;
      const auto dt = static_cast<double>(b.wall_ns - a.wall_ns);
      if (first) {
        best_ns.push_back(dt);
        pkts += b.pkts - a.pkts;
        ops += b.ops - a.ops;
        payload += b.payload - a.payload;
      } else if (k < best_ns.size()) {
        best_ns[k] = std::min(best_ns[k], dt);
      }
      ++k;
      ++slices;
      alloc_pkts += b.pkts - a.pkts;
      allocs += b.allocs - a.allocs;
      alloc_bytes += b.alloc_bytes - a.alloc_bytes;
    }
  }

  [[nodiscard]] double best_total_ns() const {
    double t = 0;
    for (const double x : best_ns) t += x;
    return t;
  }
  [[nodiscard]] double ns_per_pkt() const {
    return ratio(best_total_ns(), static_cast<double>(pkts));
  }
  [[nodiscard]] double ns_per_op() const {
    return ratio(best_total_ns(), static_cast<double>(ops));
  }
  [[nodiscard]] double payload_mb_s() const {
    return ratio(static_cast<double>(payload), best_total_ns()) * 1e3;
  }
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args),
        inputs_(make_inputs(args.workload, args.seed, args.corrupt)),
        shape_(round_shape(args.workload)) {}

  int main() {
    // The first round warms the process up and supplies the simulated-time
    // metrics and layer counts; the timed rounds after it are shorter, so
    // that every slice is repeated often.
    first_ = round(shape_.sim_ops, false);
    check(first_, /*compare=*/false);
    const std::int64_t end =
        wall_ns() + static_cast<std::int64_t>(args_.seconds * 1e9);
    Slices untraced;
    if (!args_.trace) {
      do {
        measure(false, untraced);
      } while (wall_ns() < end);
      report_end_to_end(untraced);
      return print_result();
    }
    // Traced run: untraced and traced rounds alternate, each followed by a
    // pass of layer replays, so interference from other tenants falls on
    // both sides of trace.overhead_ratio alike and each unit cost can be
    // taken from its fastest pass.
    const ReplayInputs replay = capture();
    Slices traced;
    std::vector<LayerCosts> passes;
    do {
      measure(false, untraced);
      tracer().set_enabled(true);
      AllocCounter::enable(true);
      measure(true, traced);
      AllocCounter::enable(false);
      tracer().set_enabled(false);
      passes.push_back(replay_layers(replay, pending_peak_));
    } while (wall_ns() < end);
    report_per_layer(untraced, traced, replay, fastest(passes));
    return print_result();
  }

 private:
  /// One round: timed set-up, then the workload's operations.
  RoundResult round(std::uint64_t ops, bool traced) {
    pin_next_cpu();
    for (int i = 0; i < kSetupBatch; ++i) {
      const std::int64_t t0 = wall_ns();
      auto w = make_workload(inputs_);
      if (i > 0) setup_ns_.push_back(static_cast<double>(wall_ns() - t0));
    }
    ScopedSpan span("round", rounds_);
    std::unique_ptr<Workload> w;
    {
      ScopedSpan setup("setup", rounds_);
      w = make_workload(inputs_);
    }
    ++rounds_;
    return w->run(ops, shape_.slice_ops, traced);
  }

  /// Moves the benchmark's one thread to the next CPU it may run on, so the
  /// repetitions of every slice are spread over all of them: interference
  /// from other tenants differs between CPUs at the same moment (on a
  /// shared 4-core x86 VM one CPU's median slowed 1.6x while another's
  /// stayed flat).
  void pin_next_cpu() {
    if (cpus_.empty()) {
      cpu_set_t allowed;
      CPU_ZERO(&allowed);
      if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
      }
      if (cpus_.empty()) return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[rounds_ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort
  }

  /// One timed round: checked, its wall slices and trace samples kept.
  void measure(bool traced, Slices& slices) {
    RoundResult r = round(shape_.ops, traced);
    check(r, true);
    slices.add(r);
    if (traced) traced_round_pkts_ += static_cast<double>(r.pkts);
    pending_peak_ = std::max(pending_peak_, r.samples.pending_peak);
    queue_samples_.insert(queue_samples_.end(), r.samples.queue_depth.begin(),
                          r.samples.queue_depth.end());
  }

  /// Packet images of every hop, from a fresh warm-up-sized round.
  ReplayInputs capture() {
    ReplayInputs replay;
    auto w = make_workload(inputs_);
    w->capture(replay, kCapturePerHop);
    check(w->run(shape_.ops, shape_.slice_ops, false), false);
    for (std::size_t k = 0; k < replay.images.size(); ++k) {
      if (replay.images[k].empty()) {
        throw std::runtime_error("no packet captured at hop " + std::to_string(k));
      }
    }
    return replay;
  }

  /// Output checks: every operation delivered intact, and every rerun of
  /// the seed identical in simulated time.
  void check(const RoundResult& r, bool compare) {
    attempted_ += r.attempted;
    failed_ += r.failed;
    for (const auto& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    if (r.failed > 0 && r.errors.empty()) {
      std::fprintf(stderr, "check failed: %llu operations never completed\n",
                   static_cast<unsigned long long>(r.failed));
    }
    if (!compare) return;
    if (!have_digest_) {
      digest_ = r.digest;
      have_digest_ = true;
    } else if (r.digest != digest_) {
      std::fprintf(stderr, "check failed: a rerun of seed %llu differs in "
                           "simulated time\n",
                   static_cast<unsigned long long>(args_.seed));
      rerun_mismatch_ = true;
    }
  }

  void put(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }

  void report_end_to_end(const Slices& s) {
    const RoundResult& r = first_;
    std::vector<double> lat_us;
    lat_us.reserve(r.latencies.size());
    for (const auto t : r.latencies) {
      if (t > 0) lat_us.push_back(static_cast<double>(t) / 1e6);
    }
    const double sim_span = static_cast<double>(r.sim_end - r.sim_start);

    put("wall_ns_per_pkt", s.ns_per_pkt(), "ns");
    put("wall_ns_per_txn", s.ns_per_op(), "ns");
    put("wall_payload_mb_s", s.payload_mb_s(), "MB/s");
    put("setup_s", median(setup_ns_) / 1e9, "s");

    put("peak_rss_mb", peak_rss_mb(), "MB");
    put("sim_latency_p50_us", percentile(lat_us, 0.50), "us");
    put("sim_latency_p99_us", percentile(lat_us, 0.99), "us");
    put("sim_goodput_mbps",
        ratio(static_cast<double>(r.sink_payload) * 8.0, sim_span) * 1e6, "Mb/s");

    std::printf("# workload %s seed %llu: %zu wall slices, %llu rounds, "
                "%zu set-ups\n",
                args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
                static_cast<std::size_t>(s.slices), static_cast<unsigned long long>(rounds_),
                setup_ns_.size());
    std::printf("# sim latency samples: %zu (the simulated-time round)\n",
                lat_us.size());
    std::printf("# fail_ratio %.6g (%llu failed of %llu attempted)\n",
                ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  }

  void report_per_layer(const Slices& untraced, const Slices& traced,
                        const ReplayInputs& replay, const LayerCosts& c) {
    const RoundResult& r = first_;
    const LayerCounts& n = r.counts;
    const auto pkts = static_cast<double>(r.pkts);
    auto per_pkt = [pkts](double v) { return ratio(v, pkts); };
    const auto totals = tracer().totals();
    auto mean_span = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0
                                : ratio(static_cast<double>(it->second.total_ns),
                                        static_cast<double>(it->second.count));
    };
    const double wall = untraced.ns_per_pkt();
    const double traced_wall = traced.ns_per_pkt();
    const double events_per_pkt = per_pkt(static_cast<double>(r.events));
    const double forwards_per_pkt = per_pkt(static_cast<double>(n.forwards));
    const double lookups = static_cast<double>(n.token_hits + n.token_misses);
    const double sim_span = static_cast<double>(r.sim_end - r.sim_start);
    const bool line = replay.max_data_per_packet == 0;
    const double run_self =
        totals.count("sim.run") ? static_cast<double>(totals.at("sim.run").self_ns())
                                : 0.0;

    put("sim.events_per_pkt", events_per_pkt, "count");
    put("sim.pending_peak", static_cast<double>(pending_peak_), "count");
    put("sim.schedule_pop_ns", c.schedule_pop_ns, "ns");
    put("sim.run_self_ns_per_pkt", ratio(run_self, traced_round_pkts_), "ns");
    put("alloc.per_pkt", ratio(static_cast<double>(traced.allocs),
                               static_cast<double>(traced.alloc_pkts)), "count");
    put("alloc.bytes_per_pkt", ratio(static_cast<double>(traced.alloc_bytes),
                                     static_cast<double>(traced.alloc_pkts)), "B");
    put("net.port_tx_ns", c.port_tx_ns, "ns");
    put("net.queue_p99_pkts", percentile(queue_samples_, 0.99), "count");
    put("net.drops_per_kpkt", per_pkt(static_cast<double>(n.port_drops)) * 1e3, "count");
    put("net.bottleneck_busy_share",
        ratio(static_cast<double>(n.bottleneck_busy), sim_span), "ratio");
    put("viper.host_send_ns", line ? mean_span("viper.host_send") : c.host_send_ns, "ns");
    put("viper.host_receive_ns", c.host_receive_ns, "ns");
    put("viper.encode_ns", c.encode_ns, "ns");
    put("viper.decode_view_ns", c.decode_view_ns, "ns");
    put("viper.trailer_reverse_ns", c.trailer_reverse_ns, "ns");
    put("viper.router_engine_ns", c.router_engine_ns, "ns");
    put("viper.forwards_per_pkt", forwards_per_pkt, "count");
    put("tokens.hit_ratio", ratio(static_cast<double>(n.token_hits), lookups), "ratio");
    put("tokens.misses", static_cast<double>(n.token_misses), "count");
    put("tokens.lookup_ns", c.token_lookup_ns, "ns");
    put("tokens.charge_ns", c.token_charge_ns, "ns");
    put("tokens.open_ns", c.token_open_ns, "ns");
    put("transport.invoke_ns", mean_span("transport.invoke"), "ns");
    put("transport.encode_ns", c.transport_encode_ns, "ns");
    put("transport.decode_ns", c.transport_decode_ns, "ns");
    put("transport.retx_ratio", ratio(static_cast<double>(n.retransmits),
                                      static_cast<double>(n.data_packets_sent)),
        "ratio");
    put("transport.nacks_per_txn", ratio(static_cast<double>(n.nacks),
                                         static_cast<double>(r.attempted)),
        "count");
    put("transport.timeouts", static_cast<double>(n.timeouts), "count");
    put("wire.checksum_ns_per_kb", c.checksum_ns_per_kb, "ns");
    put("wire.crc32_ns_per_kb", c.crc32_ns_per_kb, "ns");
    put("congestion.reports_per_kpkt", per_pkt(static_cast<double>(n.cc_reports)) * 1e3,
        "count");
    put("congestion.shaped_share", ratio(static_cast<double>(n.cc_shaped),
                                         static_cast<double>(n.forwards)),
        "ratio");
    put("obs.spans_per_pkt", per_pkt(static_cast<double>(n.spans_recorded)), "count");
    const double obs_router_ns =
        replay.observed ? std::max(0.0, c.router_observed_ns - c.router_engine_ns)
                        : 0.0;
    put("obs.router_overhead_ns", obs_router_ns, "ns");
    put("int.stamps_per_pkt", per_pkt(static_cast<double>(n.telemetry_stamped)), "count");
    put("directory.query_ns", mean_span("directory.query"), "ns");

    // Shares: unit cost x count per delivered packet / wall ns per packet.
    // Unit costs that ran simulator events have those events' cost taken
    // out, so no nanosecond is counted in two layers.
    const double sim_ns = c.schedule_pop_ns * events_per_pkt;
    const double net_ns =
        std::max(0.0, c.port_tx_ns - c.port_events_per_tx * c.schedule_pop_ns) *
        per_pkt(static_cast<double>(n.port_sent));
    const double tokens_ns =
        per_pkt(lookups) * c.token_lookup_ns +
        per_pkt(static_cast<double>(n.token_hits)) * c.token_charge_ns +
        per_pkt(static_cast<double>(n.token_misses)) * c.token_open_ns;
    // Token admission inside the router engine replay: one lookup and one
    // charge per forward when the routers enforce tokens.
    const double router_token_ns =
        replay.tokens ? c.token_lookup_ns + c.token_charge_ns : 0.0;
    const double viper_ns =
        std::max(0.0, c.router_engine_ns - router_token_ns) * forwards_per_pkt +
        c.host_send_ns * per_pkt(static_cast<double>(n.host_sends)) +
        std::max(0.0, c.host_receive_ns);
    const double transport_ns =
        line ? 0.0 : c.transport_encode_ns + c.transport_decode_ns;
    const double obs_ns = obs_router_ns * forwards_per_pkt;
    const std::pair<const char*, double> shares[] = {
        {"sim.share", sim_ns},       {"net.share", net_ns},
        {"viper.share", viper_ns},   {"tokens.share", tokens_ns},
        {"transport.share", transport_ns}, {"obs.share", obs_ns}};
    double sum = 0;
    for (const auto& [name, ns] : shares) {
      put(name, ratio(ns, wall), "ratio");
      sum += ratio(ns, wall);
    }
    put("unattributed.share", 1.0 - sum, "ratio");
    put("trace.overhead_ratio", ratio(traced_wall, wall), "ratio");

    std::printf("# workload %s seed %llu: untraced %.1f ns/pkt, traced %.1f "
                "ns/pkt\n",
                args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
                wall, traced_wall);
    std::printf("# span self time (traced phase, benchmark-side spans)\n");
    std::printf("# %-20s %10s %12s %12s %12s\n", "span", "count", "total_ms",
                "self_ms", "self_ns/pkt");
    for (const auto& [name, t] : totals) {
      std::printf("# %-20s %10llu %12.3f %12.3f %12.1f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns()) / 1e6,
                  ratio(static_cast<double>(t.self_ns()), traced_round_pkts_));
    }
    std::printf("# layer shares of %.1f ns/pkt:", wall);
    for (const auto& [name, ns] : shares) std::printf(" %s=%.3f", name, ratio(ns, wall));
    std::printf(" unattributed.share=%.3f\n", 1.0 - sum);

    if (!args_.trace_out.empty()) {
      std::ofstream(args_.trace_out) << tracer().to_chrome_json();
      std::printf("# wrote %zu spans to %s\n", tracer().spans().size(),
                  args_.trace_out.c_str());
    }
  }

  int print_result() {
    const bool correct = failed_ == 0 && !rerun_mismatch_;
    std::printf("# metrics\n");
    for (const auto& [name, vu] : metrics_) {
      std::printf("# %-28s %.9g %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_ + (rerun_mismatch_ ? 1 : 0));
    json += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                    metrics_[i].second.first, metrics_[i].second.second.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  }

  Args args_;
  Inputs inputs_;
  RoundShape shape_;
  std::vector<double> setup_ns_;
  std::uint64_t rounds_ = 0;
  std::vector<int> cpus_;  ///< CPUs the process may run on
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t digest_ = 0;
  bool have_digest_ = false;
  bool rerun_mismatch_ = false;
  RoundResult first_;  ///< the simulated-time round
  std::uint64_t pending_peak_ = 0;
  std::vector<std::uint32_t> queue_samples_;
  /// Packets delivered by whole traced rounds (the spans cover whole rounds).
  double traced_round_pkts_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

}  // namespace
}  // namespace fabric_bench

int main(int argc, char** argv) {
  const fabric_bench::Args args = fabric_bench::parse(argc, argv);
  try {
    fabric_bench::Bench bench(args);
    return bench.main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fabric_bench: %s\n", e.what());
    return 1;
  }
}
