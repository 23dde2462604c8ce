// Data-path overhead of every observability plane and the fault hook.
//
// Each plane shares one cost contract: wired but disabled, it costs one
// untaken branch per packet; enabled, a modest increment.  Three
// fixtures, each run in several modes:
//
//   BM_Enqueue*     TxPort::enqueue on a bare port; the queue is drained
//                   outside the timed region every 512 packets.
//     NoObserver         nothing wired (baseline),
//     MetricsOnly        a Registry: queue-depth gauge + wait histogram,
//     TracingUntraced    Registry + FlightRecorder, packets untraced,
//     TracingTraced      every packet traced: one SpanRecord per send,
//     EmptyPlan          a FaultEngine whose lanes never fire: attach()
//                        must leave the port untouched,
//     PassthroughHook    an installed fault hook that always passes,
//     FullPlan           every fault lane live at 1%.
//
//   BM_Forward*     send + full drain of one packet through a one-router
//                   line (src --- r1 --- dst) per iteration.
//     NoObserver         nothing wired (baseline),
//     ObsNoFlow          metrics + flight recorder, no flow plane,
//     FlowEnabled        full flow plane: FlowTable record + sampler draw
//                        per hop,
//     WiredUnmarked      path telemetry wired, sample period 0: every
//                        router takes the untaken stamp branch,
//     Marked             sample period 1: every packet stamped at the
//                        hop and collected at the sink.
//
//   BM_FabricSend*  the send loop through an observed three-router line,
//                   drained inside the timed region every 64 packets so
//                   the health tick (which runs on the simulator clock)
//                   is amortized in.
//     NoHealth           observability wired, no monitor (baseline),
//     HealthEnabled      enable_health() with a 1 ms window, 10x the
//                        density of the 10 ms production default.
//
// Plus two micro-benchmarks: BM_FlowTableRecord (the per-forward flow
// table update) and BM_StampEncode (the per-hop telemetry stamp).
//
// scripts/check_overhead.py gates CI on five ratios of these fixtures,
// measured by `bench_overhead --paired` (run_pairs() below): each ratio's
// two sides run interleaved in short slices, and the gate divides the sums
// of each slice's fastest repetition.  A plain run reports the usual
// google-benchmark table for every fixture.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "flow/plane.hpp"
#include "flow/table.hpp"
#include "health/monitor.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "stats/registry.hpp"
#include "viper/codec.hpp"
#include "viper/host.hpp"

namespace {

using namespace srp;

/// Discards every arrival.
class NullNode : public net::PortedNode {
 public:
  NullNode(sim::Simulator& sim, std::string name)
      : net::PortedNode(sim, std::move(name)) {}
  void on_arrival(const net::Arrival&) override {}
};

/// Ops per slice of the paired runner, and between two untimed() calls.
constexpr std::uint64_t kSliceOps = 512;

/// One benchmark mode, built once per run.  op() is one timed operation;
/// a fixture with `has_untimed` set runs untimed() after every kSliceOps
/// ops, outside the timing.
class Fixture {
 public:
  Fixture() = default;
  virtual ~Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  virtual void op() = 0;
  virtual void untimed() {}
  bool has_untimed = false;
};

enum class Enqueue {
  kNoObserver, kMetricsOnly, kTracingUntraced, kTracingTraced,
  kEmptyPlan, kPassthroughHook, kFullPlan,
};

class EnqueueFixture final : public Fixture {
 public:
  explicit EnqueueFixture(Enqueue mode)
      : port_(a_.port(net_.duplex(a_, b_, net::LinkConfig{1e12, 0, 1500})
                          .first)),
        traced_(mode == Enqueue::kTracingTraced) {
    // Drain outside the timed region so the queue stays short and the
    // measurement tracks the enqueue path, not queue growth.
    has_untimed = true;
    obs::Observer observer;
    switch (mode) {
      case Enqueue::kNoObserver:
        break;
      case Enqueue::kMetricsOnly:
        observer.registry = &registry_;
        port_.set_observer(observer);
        break;
      case Enqueue::kTracingUntraced:
      case Enqueue::kTracingTraced:
        observer.registry = &registry_;
        observer.recorder = &recorder_;
        port_.set_observer(observer);
        break;
      case Enqueue::kEmptyPlan:
        // All lanes zero: attach() must refuse to install a hook.
        engine_.emplace(sim_, plan_, registry_);
        engine_->attach(port_);
        break;
      case Enqueue::kPassthroughHook:
        port_.fault_hook = [](net::PacketPtr&, net::TxMeta&, sim::Time&) {
          return net::FaultVerdict::kPass;
        };
        break;
      case Enqueue::kFullPlan: {
        fault::LaneConfig& lane = plan_.lane(port_.name());
        lane.drop_rate = 0.01;
        lane.corrupt_rate = 0.01;
        lane.duplicate_rate = 0.01;
        lane.reorder_rate = 0.01;
        lane.jitter_rate = 0.01;
        engine_.emplace(sim_, plan_, registry_);
        engine_->attach(port_);
        break;
      }
    }
  }

  void op() override {
    auto packet = packets_.make(image_, sim_.now());
    if (traced_) packet->trace_id = ++n_;
    port_.enqueue(std::move(packet), net::TxMeta{}, 0);
  }
  void untimed() override { sim_.run(); }

 private:
  sim::Simulator sim_;
  net::Network net_{sim_};
  net::PacketFactory packets_;
  NullNode& a_ = net_.add<NullNode>("a");
  NullNode& b_ = net_.add<NullNode>("b");
  net::TxPort& port_;
  stats::Registry registry_;
  obs::FlightRecorder recorder_;
  fault::FaultPlan plan_;
  std::optional<fault::FaultEngine> engine_;
  const bool traced_;
  const wire::Bytes image_ = wire::Bytes(256, 0x42);
  std::uint64_t n_ = 0;
};

enum class Forward {
  kNoObserver, kObsNoFlow, kFlowEnabled, kWiredUnmarked, kMarked,
};

/// Send + full drain of one packet through src --- r1 --- dst per op.
class ForwardFixture final : public Fixture {
 public:
  explicit ForwardFixture(Forward mode) {
    fabric_.connect(src_, r1_);
    fabric_.connect(r1_, dst_);
    dst_.set_default_handler([](const viper::Delivery&) {});
    dir::PathTelemetryConfig telemetry;
    switch (mode) {
      case Forward::kNoObserver:
        break;
      case Forward::kObsNoFlow:
        fabric_.enable_observability({&registry_, &recorder_});
        break;
      case Forward::kFlowEnabled:
        fabric_.enable_observability({&registry_, &recorder_, &plane_});
        break;
      case Forward::kWiredUnmarked:
        telemetry.sample_period = 0;  // wired, never marks
        fabric_.enable_path_telemetry(telemetry);
        break;
      case Forward::kMarked:
        telemetry.sample_period = 1;  // every packet stamped + collected
        fabric_.enable_path_telemetry(telemetry);
        break;
    }
    const auto routes =
        fabric_.directory().query(fabric_.id_of(src_), "dst.bench", {});
    if (routes.empty()) throw std::runtime_error("no route");
    route_ = routes.front().route;
  }

  void op() override {
    src_.send(route_, payload_);
    sim_.run();  // one packet through the whole line per op
  }

 private:
  sim::Simulator sim_;
  dir::Fabric fabric_{sim_};
  viper::ViperHost& src_ = fabric_.add_host("src.bench");
  viper::ViperHost& dst_ = fabric_.add_host("dst.bench");
  viper::ViperRouter& r1_ = fabric_.add_router("r1");
  stats::Registry registry_;
  obs::FlightRecorder recorder_;
  flow::FlowPlane plane_{flow::FlowConfig{128, 64, 0x5EED}};
  core::SourceRoute route_;
  const wire::Bytes payload_ = wire::Bytes(256, 0x42);
};

/// The send loop through an observed three-router line, drained inside
/// the timed region every 64 sends so the health tick (which runs on the
/// simulator clock) is amortized in.
class FabricSendFixture final : public Fixture {
 public:
  explicit FabricSendFixture(bool health) {
    fabric_.connect(client_, r1_);
    fabric_.connect(r1_, r2_);
    fabric_.connect(r2_, r3_);
    fabric_.connect(r3_, server_);
    server_.set_default_handler([](const viper::Delivery&) {});
    fabric_.enable_observability({&registry_, nullptr, nullptr});
    if (health) {
      health::HealthConfig config;
      config.series.window = sim::kMillisecond;
      fabric_.enable_health(config);
    }
    const auto routes =
        fabric_.directory().query(fabric_.id_of(client_), "server.bench", {});
    if (routes.empty()) throw std::runtime_error("no route");
    route_ = routes.front().route;
  }

  void op() override {
    client_.send(route_, payload_);
    if (++n_ % 64 == 0) {
      // Drained inside the timed region: pausing here would hide exactly
      // the tick cost this benchmark exists to bound.
      sim_.run_until(sim_.now() + 64 * sim::kMicrosecond);
    }
  }

 private:
  sim::Simulator sim_;
  stats::Registry registry_;
  dir::Fabric fabric_{sim_};
  viper::ViperHost& client_ = fabric_.add_host("client.bench");
  viper::ViperHost& server_ = fabric_.add_host("server.bench");
  viper::ViperRouter& r1_ = fabric_.add_router("r1");
  viper::ViperRouter& r2_ = fabric_.add_router("r2");
  viper::ViperRouter& r3_ = fabric_.add_router("r3");
  core::SourceRoute route_;
  const wire::Bytes payload_ = wire::Bytes(256, 0x42);
  std::uint64_t n_ = 0;
};

using MakeFixture = std::function<std::unique_ptr<Fixture>()>;
using NamedFixture = std::pair<std::string, MakeFixture>;

template <class F, class Mode>
NamedFixture entry(const char* name, Mode mode) {
  return {name, [mode] { return std::make_unique<F>(mode); }};
}

/// Every fixture benchmark by name.
const std::vector<NamedFixture>& fixtures() {
  static const std::vector<NamedFixture> all{
      entry<EnqueueFixture>("BM_EnqueueNoObserver", Enqueue::kNoObserver),
      entry<EnqueueFixture>("BM_EnqueueMetricsOnly", Enqueue::kMetricsOnly),
      entry<EnqueueFixture>("BM_EnqueueTracingUntraced",
                            Enqueue::kTracingUntraced),
      entry<EnqueueFixture>("BM_EnqueueTracingTraced",
                            Enqueue::kTracingTraced),
      entry<EnqueueFixture>("BM_EnqueueEmptyPlan", Enqueue::kEmptyPlan),
      entry<EnqueueFixture>("BM_EnqueuePassthroughHook",
                            Enqueue::kPassthroughHook),
      entry<EnqueueFixture>("BM_EnqueueFullPlan", Enqueue::kFullPlan),
      entry<ForwardFixture>("BM_ForwardNoObserver", Forward::kNoObserver),
      entry<ForwardFixture>("BM_ForwardObsNoFlow", Forward::kObsNoFlow),
      entry<ForwardFixture>("BM_ForwardFlowEnabled", Forward::kFlowEnabled),
      entry<ForwardFixture>("BM_ForwardWiredUnmarked",
                            Forward::kWiredUnmarked),
      entry<ForwardFixture>("BM_ForwardMarked", Forward::kMarked),
      entry<FabricSendFixture>("BM_FabricSendNoHealth", false),
      entry<FabricSendFixture>("BM_FabricSendHealthEnabled", true),
  };
  return all;
}

const MakeFixture& fixture(const std::string& name) {
  for (const auto& [n, make] : fixtures()) {
    if (n == name) return make;
  }
  throw std::invalid_argument("no fixture " + name);
}

void BM_Fixture(benchmark::State& state, const MakeFixture* make) {
  const std::unique_ptr<Fixture> f = (*make)();
  std::uint64_t n = 0;
  for (auto _ : state) {
    f->op();
    if (f->has_untimed && ++n % kSliceOps == 0) {
      state.PauseTiming();
      f->untimed();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// The per-forward table update in isolation: hash, find-or-insert, and
/// (every 4th op, on a full table) a space-saving eviction scan.
void BM_FlowTableRecord(benchmark::State& state) {
  flow::FlowTable table(128);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const bool churn = n % 4 == 0;
    const flow::FlowKey key{churn ? 0x10000 + n : 1 + (n % 64),
                            static_cast<std::uint32_t>(n % 8), 0};
    benchmark::DoNotOptimize(
        table.record(key, 256, true, static_cast<sim::Time>(n), 1, 2));
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}

/// The per-hop stamp in isolation: big-endian encode into a stack buffer,
/// then the raw pseudo-segment append into a capacity-warm trailer.
void BM_StampEncode(benchmark::State& state) {
  obs::HopTelemetry t;
  t.router_id = 3;
  t.egress_port = 2;
  t.in_port = 1;
  core::SegmentFlags flags;
  flags.trm = true;
  wire::Bytes out;
  std::uint64_t n = 0;
  for (auto _ : state) {
    t.hop = static_cast<std::uint8_t>(n & 0x1F);
    t.arrival_ps = n;
    t.depart_ps = n + 1000;
    std::array<std::uint8_t, obs::kHopTelemetryWire> payload;
    t.encode(payload);
    viper::append_segment_raw(out, core::kTelemetryPort,
                              core::TypeOfService{}, flags, {}, payload);
    benchmark::DoNotOptimize(out.data());
    out.clear();  // capacity survives: the arena-warm steady state
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}

/// The ratios scripts/check_overhead.py gates, numerator first.
constexpr std::array<std::array<const char*, 2>, 5> kGatedPairs{{
    {"BM_EnqueueTracingUntraced", "BM_EnqueueNoObserver"},
    {"BM_ForwardObsNoFlow", "BM_ForwardNoObserver"},
    {"BM_ForwardFlowEnabled", "BM_ForwardObsNoFlow"},
    {"BM_ForwardWiredUnmarked", "BM_ForwardNoObserver"},
    {"BM_FabricSendHealthEnabled", "BM_FabricSendNoHealth"},
}};

constexpr int kPairRounds = 15;
constexpr int kPairSlices = 16;

/// Wall ns of one slice of kSliceOps ops; its untimed work runs after.
double time_slice(Fixture& f) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSliceOps; ++i) f.op();
  const auto t1 = std::chrono::steady_clock::now();
  f.untimed();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// The gate's statistic.  Each round builds both fixtures of a pair fresh
/// and times their slices interleaved (which side goes first alternates
/// slice by slice); slice i holds the same work in every round.  Each
/// side keeps every slice's fastest repetition across rounds and sums
/// them.  Noise from other tenants only adds time, and it hits both
/// sides of a pair alike within one slice's span; the fastest repetition
/// finds each slice's quiet run.  Prints one flat JSON object: per pair,
/// `pair:<num>:<den>:num_ns` and `...:den_ns`, ns per op.
void run_pairs() {
  std::string json = "{";
  for (const auto& [num, den] : kGatedPairs) {
    std::vector<double> best_num(kPairSlices, 1e300);
    std::vector<double> best_den(kPairSlices, 1e300);
    for (int round = 0; round < kPairRounds; ++round) {
      const std::unique_ptr<Fixture> n = fixture(num)();
      const std::unique_ptr<Fixture> d = fixture(den)();
      time_slice(*n);  // warm-up slice, not kept
      time_slice(*d);
      for (int i = 0; i < kPairSlices; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (i % 2 == 0) {
          best_num[idx] = std::min(best_num[idx], time_slice(*n));
          best_den[idx] = std::min(best_den[idx], time_slice(*d));
        } else {
          best_den[idx] = std::min(best_den[idx], time_slice(*d));
          best_num[idx] = std::min(best_num[idx], time_slice(*n));
        }
      }
    }
    const double ops = static_cast<double>(kPairSlices * kSliceOps);
    double sum_num = 0;
    double sum_den = 0;
    for (int i = 0; i < kPairSlices; ++i) {
      sum_num += best_num[static_cast<std::size_t>(i)];
      sum_den += best_den[static_cast<std::size_t>(i)];
    }
    const std::string key = std::string("pair:") + num + ":" + den + ":";
    if (json.size() > 1) json += ",";
    json += "\"" + key + "num_ns\":" + std::to_string(sum_num / ops) + ",";
    json += "\"" + key + "den_ns\":" + std::to_string(sum_den / ops);
  }
  json += "}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--paired") {
    run_pairs();
    return 0;
  }
  for (const auto& [name, make] : fixtures()) {
    benchmark::RegisterBenchmark(name.c_str(), BM_Fixture, &make);
  }
  benchmark::RegisterBenchmark("BM_FlowTableRecord", BM_FlowTableRecord);
  benchmark::RegisterBenchmark("BM_StampEncode", BM_StampEncode);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
