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
// scripts/check_overhead.py gates CI on five ratios of these timings.
#include <benchmark/benchmark.h>

#include <array>
#include <optional>
#include <string>

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

enum class Enqueue {
  kNoObserver, kMetricsOnly, kTracingUntraced, kTracingTraced,
  kEmptyPlan, kPassthroughHook, kFullPlan,
};

void BM_Enqueue(benchmark::State& state, Enqueue mode) {
  sim::Simulator sim;
  net::Network net(sim);
  net::PacketFactory packets;
  auto& a = net.add<NullNode>("a");
  auto& b = net.add<NullNode>("b");
  const auto [pa, pb] = net.duplex(a, b, net::LinkConfig{1e12, 0, 1500});
  (void)pb;
  net::TxPort& port = a.port(pa);

  stats::Registry registry;
  obs::FlightRecorder recorder;
  obs::Observer observer;
  fault::FaultPlan plan;
  std::optional<fault::FaultEngine> engine;
  switch (mode) {
    case Enqueue::kNoObserver:
      break;
    case Enqueue::kMetricsOnly:
      observer.registry = &registry;
      port.set_observer(observer);
      break;
    case Enqueue::kTracingUntraced:
    case Enqueue::kTracingTraced:
      observer.registry = &registry;
      observer.recorder = &recorder;
      port.set_observer(observer);
      break;
    case Enqueue::kEmptyPlan:
      // All lanes zero: attach() must refuse to install a hook.
      engine.emplace(sim, plan, registry);
      engine->attach(port);
      break;
    case Enqueue::kPassthroughHook:
      port.fault_hook = [](net::PacketPtr&, net::TxMeta&, sim::Time&) {
        return net::FaultVerdict::kPass;
      };
      break;
    case Enqueue::kFullPlan: {
      fault::LaneConfig& lane = plan.lane(port.name());
      lane.drop_rate = 0.01;
      lane.corrupt_rate = 0.01;
      lane.duplicate_rate = 0.01;
      lane.reorder_rate = 0.01;
      lane.jitter_rate = 0.01;
      engine.emplace(sim, plan, registry);
      engine->attach(port);
      break;
    }
  }
  const bool traced = mode == Enqueue::kTracingTraced;

  const wire::Bytes image(256, 0x42);
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto packet = packets.make(image, sim.now());
    if (traced) packet->trace_id = n + 1;
    port.enqueue(std::move(packet), net::TxMeta{}, 0);
    if (++n % 512 == 0) {
      // Drain outside the timed region so the queue stays short and the
      // measurement tracks the enqueue path, not queue growth.
      state.PauseTiming();
      sim.run();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}

enum class Forward {
  kNoObserver, kObsNoFlow, kFlowEnabled, kWiredUnmarked, kMarked,
};

void BM_Forward(benchmark::State& state, Forward mode) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.bench");
  auto& dst = fabric.add_host("dst.bench");
  auto& r1 = fabric.add_router("r1");
  fabric.connect(src, r1);
  fabric.connect(r1, dst);
  dst.set_default_handler([](const viper::Delivery&) {});

  stats::Registry registry;
  obs::FlightRecorder recorder;
  flow::FlowPlane plane(flow::FlowConfig{128, 64, 0x5EED});
  dir::PathTelemetryConfig telemetry;
  switch (mode) {
    case Forward::kNoObserver:
      break;
    case Forward::kObsNoFlow:
      fabric.enable_observability({&registry, &recorder});
      break;
    case Forward::kFlowEnabled:
      fabric.enable_observability({&registry, &recorder, &plane});
      break;
    case Forward::kWiredUnmarked:
      telemetry.sample_period = 0;  // wired, never marks
      fabric.enable_path_telemetry(telemetry);
      break;
    case Forward::kMarked:
      telemetry.sample_period = 1;  // every packet stamped + collected
      fabric.enable_path_telemetry(telemetry);
      break;
  }

  const auto routes =
      fabric.directory().query(fabric.id_of(src), "dst.bench", {});
  if (routes.empty()) {
    state.SkipWithError("no route");
    return;
  }
  const wire::Bytes payload(256, 0x42);
  std::uint64_t n = 0;
  for (auto _ : state) {
    src.send(routes.front().route, payload);
    sim.run();  // one packet through the whole line per iteration
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}

void BM_FabricSend(benchmark::State& state, bool health) {
  sim::Simulator sim;
  stats::Registry registry;
  dir::Fabric fabric(sim);
  auto& client = fabric.add_host("client.bench");
  auto& server = fabric.add_host("server.bench");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& r3 = fabric.add_router("r3");
  fabric.connect(client, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, r3);
  fabric.connect(r3, server);
  server.set_default_handler([](const viper::Delivery&) {});

  fabric.enable_observability({&registry, nullptr, nullptr});
  if (health) {
    health::HealthConfig config;
    config.series.window = sim::kMillisecond;
    fabric.enable_health(config);
  }

  const auto routes =
      fabric.directory().query(fabric.id_of(client), "server.bench", {});
  if (routes.empty()) {
    state.SkipWithError("no route");
    return;
  }
  const wire::Bytes payload(256, 0x42);
  std::uint64_t n = 0;
  for (auto _ : state) {
    client.send(routes.front().route, payload);
    if (++n % 64 == 0) {
      // Drain inside the timed region: pausing here would hide exactly
      // the tick cost this benchmark exists to bound.
      sim.run_until(sim.now() + 64 * sim::kMicrosecond);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
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

}  // namespace

int main(int argc, char** argv) {
  using benchmark::RegisterBenchmark;
  RegisterBenchmark("BM_EnqueueNoObserver", BM_Enqueue, Enqueue::kNoObserver);
  RegisterBenchmark("BM_EnqueueMetricsOnly", BM_Enqueue,
                    Enqueue::kMetricsOnly);
  RegisterBenchmark("BM_EnqueueTracingUntraced", BM_Enqueue,
                    Enqueue::kTracingUntraced);
  RegisterBenchmark("BM_EnqueueTracingTraced", BM_Enqueue,
                    Enqueue::kTracingTraced);
  RegisterBenchmark("BM_EnqueueEmptyPlan", BM_Enqueue, Enqueue::kEmptyPlan);
  RegisterBenchmark("BM_EnqueuePassthroughHook", BM_Enqueue,
                    Enqueue::kPassthroughHook);
  RegisterBenchmark("BM_EnqueueFullPlan", BM_Enqueue, Enqueue::kFullPlan);
  RegisterBenchmark("BM_ForwardNoObserver", BM_Forward, Forward::kNoObserver);
  RegisterBenchmark("BM_ForwardObsNoFlow", BM_Forward, Forward::kObsNoFlow);
  RegisterBenchmark("BM_ForwardFlowEnabled", BM_Forward,
                    Forward::kFlowEnabled);
  RegisterBenchmark("BM_ForwardWiredUnmarked", BM_Forward,
                    Forward::kWiredUnmarked);
  RegisterBenchmark("BM_ForwardMarked", BM_Forward, Forward::kMarked);
  RegisterBenchmark("BM_FabricSendNoHealth", BM_FabricSend, false);
  RegisterBenchmark("BM_FabricSendHealthEnabled", BM_FabricSend, true);
  RegisterBenchmark("BM_FlowTableRecord", BM_FlowTableRecord);
  RegisterBenchmark("BM_StampEncode", BM_StampEncode);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
