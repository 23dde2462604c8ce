// Observation never steers: wiring the observability planes must not change
// a single simulated outcome.
//
// A fan-in with every mechanism that makes decisions — token enforcement,
// VMTP transactions and rate-based congestion control — runs twice: once
// with nothing wired, once with the metrics registry, the flight recorder,
// the flow plane, path telemetry (wired, marking nothing) and the health
// plane.  Every delivery, every Stats struct, the ledger and the clock must
// come out identical.
//
// The fan-in is built so that the congested queue and its recent traffic
// disagree: a bulk feeder keeps r1's bottleneck port above the watermark
// while a light feeder's single packets pass through and leave the queue
// within one controller interval.  A controller that took its feeders
// from anything but its own queue (for example from flow-plane history of
// recent forwards) would send rate reports to the light feeder only when
// observed.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "congestion/controller.hpp"
#include "congestion/throttle.hpp"
#include "directory/fabric.hpp"
#include "flow/plane.hpp"
#include "health/monitor.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"

namespace srp {
namespace {

constexpr std::uint64_t kServer = 0x5E;
constexpr sim::Time kRunFor = 60 * sim::kMillisecond;

/// One application-level delivery, as a host's endpoint saw it.
struct Delivered {
  sim::Time at = 0;
  bool ok = false;
  std::size_t bytes = 0;
  std::uint64_t digest = 0;
  sim::Time rtt = 0;
  int retransmissions = 0;

  bool operator==(const Delivered&) const = default;
};

/// Everything sim-visible the run leaves behind.
struct Outcome {
  std::vector<std::vector<Delivered>> logs;  // per host, fabric order
  std::vector<viper::ViperRouter::Stats> routers;
  std::vector<net::TxPort::Stats> ports;  // every router and host port
  std::vector<viper::ViperHost::Stats> hosts;
  std::vector<vmtp::VmtpEndpoint::Stats> vmtp;
  std::vector<cc::CongestionController::Stats> controllers;
  std::vector<cc::SourceThrottle::Stats> throttles;
  std::map<std::uint32_t, tokens::AccountUsage> ledger;
  sim::Time end = 0;
};

/// The sinks of the observed run; outlive the fabric they are wired into.
struct Planes {
  stats::Registry registry;
  obs::FlightRecorder recorder;
  flow::FlowPlane flow{flow::FlowConfig{}, &registry, &recorder};
};

/// Reads every port's state, as a health probe, the INT stamp or a
/// logical-link choice would, on every tick of a fixed period.  The reads
/// feed a sum nothing consumes: a reader must not steer.
class PortPoller {
 public:
  PortPoller(sim::Simulator& sim, dir::Fabric& fabric, sim::Time period,
             sim::Time until)
      : sim_(sim), period_(period), until_(until) {
    for (const viper::ViperRouter* r : fabric.routers()) nodes_.push_back(r);
    for (const viper::ViperHost* h : fabric.hosts()) nodes_.push_back(h);
    sim_.at(period_, [this] { tick(); });
  }
  PortPoller(const PortPoller&) = delete;
  PortPoller& operator=(const PortPoller&) = delete;

  std::uint64_t sum = 0;

 private:
  void tick() {
    for (const net::PortedNode* node : nodes_) {
      for (int p = 1; p <= node->port_count(); ++p) {
        const net::TxPort& port = node->port(p);
        sum += port.busy() ? 1 : 0;
        sum += port.queue_packets() + port.queue_bytes();
        sum += port.stats().sent + port.stats().bytes_sent;
      }
    }
    if (sim_.now() + period_ < until_) sim_.after(period_, [this] { tick(); });
  }

  sim::Simulator& sim_;
  sim::Time period_;
  sim::Time until_;
  std::vector<const net::PortedNode*> nodes_;
};

/// bulk.obs (16 KB requests back to back) and light.obs (one-packet
/// requests with a pause) both feed r1, whose port toward r2 is a
/// 50 Mb/s bottleneck in front of the server.  With @p poll, every port
/// is also read every 700 ns of simulated time.
Outcome run_fan_in(Planes* planes, bool poll = false) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& bulk = fabric.add_host("bulk.obs");
  auto& light = fabric.add_host("light.obs");
  auto& server_host = fabric.add_host("srv.obs");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 5e7;
  fabric.connect(bulk, r1, fast);   // r1 port 1
  fabric.connect(light, r1, fast);  // r1 port 2
  fabric.connect(r1, r2, slow);     // r1 port 3: the congested queue
  fabric.connect(r2, server_host, fast);

  fabric.enable_tokens(0x0B5E, /*enforce=*/true,
                       tokens::UncachedPolicy::kOptimistic);
  cc::ControllerConfig cc_config;
  cc_config.interval = sim::kMillisecond;
  cc_config.queue_watermark_bytes = 4000;
  fabric.enable_congestion_control(cc_config);
  if (planes != nullptr) {
    fabric.enable_observability(
        {&planes->registry, &planes->recorder, &planes->flow});
    dir::PathTelemetryConfig telemetry;
    telemetry.sample_period = 0;  // wired, never marks
    fabric.enable_path_telemetry(telemetry);
    fabric.enable_health();
  }

  Outcome out;
  out.logs.resize(3);  // bulk.obs, light.obs, srv.obs: fabric host order

  vmtp::VmtpEndpoint server(sim, server_host, kServer);
  server.set_observer(fabric.observer());
  server.serve([&](std::span<const std::uint8_t> request,
                   const viper::Delivery&) {
    out.logs[2].push_back(Delivered{sim.now(), true, request.size(),
                                    test::fnv1a(request), 0, 0});
    return wire::Bytes(64, static_cast<std::uint8_t>(request.size()));
  });

  struct Client {
    viper::ViperHost* host;
    std::size_t request_bytes;
    sim::Time pause;
    std::unique_ptr<vmtp::VmtpEndpoint> endpoint;
    dir::IssuedRoute route;
    std::vector<Delivered>* log;
  };
  std::vector<Client> clients;
  clients.push_back({&bulk, 16 * 1024, 0, nullptr, {}, &out.logs[0]});
  clients.push_back(
      {&light, 512, 3 * sim::kMillisecond, nullptr, {}, &out.logs[1]});
  std::uint64_t entity = 0xC0;
  for (Client& c : clients) {
    c.endpoint = std::make_unique<vmtp::VmtpEndpoint>(sim, *c.host, entity++);
    c.endpoint->set_throttle(fabric.throttle_of(*c.host));
    c.endpoint->set_observer(fabric.observer());
    dir::QueryOptions q;
    q.dest_endpoint = kServer;
    q.account = static_cast<std::uint32_t>(entity);
    const auto routes =
        fabric.directory().query(fabric.id_of(*c.host), "srv.obs", q);
    if (routes.empty()) {
      ADD_FAILURE() << "no route from " << c.host->name();
      return out;
    }
    c.route = routes.front();
  }

  // Closed loops: each client starts its next transaction after its pause,
  // until 10 ms before kRunFor.
  std::vector<std::function<void()>> next_txn(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    next_txn[i] = [&, i] {
      Client& c = clients[i];
      if (sim.now() >= kRunFor - 10 * sim::kMillisecond) return;
      const wire::Bytes request =
          test::pattern_bytes(c.request_bytes, static_cast<std::uint8_t>(i));
      c.endpoint->invoke(c.route, kServer, request, [&, i](vmtp::Result r) {
        Client& done = clients[i];
        done.log->push_back(Delivered{sim.now(), r.ok, r.response.size(),
                                      test::fnv1a(r.response), r.rtt,
                                      r.retransmissions});
        sim.after(done.pause + 1, [&, i] { next_txn[i](); });
      });
    };
    sim.at(static_cast<sim::Time>(i + 1) * 10 * sim::kMicrosecond,
           [&, i] { next_txn[i](); });
  }
  std::optional<PortPoller> poller;
  if (poll) poller.emplace(sim, fabric, 700 * sim::kNanosecond, kRunFor);
  sim.run_until(kRunFor);
  if (poller) {
    EXPECT_GT(poller->sum, 0u);
  }

  for (viper::ViperRouter* router : fabric.routers()) {
    out.routers.push_back(router->stats());
    out.controllers.push_back(fabric.controller_of(*router)->stats());
    for (int p = 1; p <= router->port_count(); ++p) {
      out.ports.push_back(router->port(p).stats());
    }
  }
  for (viper::ViperHost* host : fabric.hosts()) {
    out.hosts.push_back(host->stats());
    out.throttles.push_back(fabric.throttle_of(*host)->stats());
    for (int p = 1; p <= host->port_count(); ++p) {
      out.ports.push_back(host->port(p).stats());
    }
  }
  for (const Client& c : clients) out.vmtp.push_back(c.endpoint->stats());
  out.vmtp.push_back(server.stats());
  out.ledger = fabric.ledger().all();
  out.end = sim.now();
  return out;
}

TEST(ObservationInvariance, EveryPlaneWiredChangesNoSimulatedOutcome) {
  const Outcome bare = run_fan_in(nullptr);
  Planes planes;
  const Outcome observed = run_fan_in(&planes);

  // The scenario exercises what it claims to: both feeders complete
  // transactions, r1's bottleneck congests and reports flow upstream.
  ASSERT_EQ(bare.logs.size(), 3u);
  EXPECT_GT(bare.logs[0].size(), 5u);  // bulk.obs
  EXPECT_GT(bare.logs[1].size(), 5u);  // light.obs
  EXPECT_GT(bare.controllers[0].reports_sent, 0u);
  EXPECT_GT(bare.throttles[0].reports_received, 0u);
  // ...and the observed run really was observed.
  EXPECT_GT(planes.registry.snapshot().size(), 0u);
  ASSERT_NE(planes.flow.observer("r1"), nullptr);
  EXPECT_GT(planes.flow.observer("r1")->table().size(), 0u);

  for (std::size_t h = 0; h < bare.logs.size(); ++h) {
    EXPECT_EQ(observed.logs[h], bare.logs[h]) << "delivery log of host " << h;
  }
  EXPECT_EQ(observed.routers, bare.routers);
  EXPECT_EQ(observed.ports, bare.ports);
  EXPECT_EQ(observed.hosts, bare.hosts);
  EXPECT_EQ(observed.vmtp, bare.vmtp);
  EXPECT_EQ(observed.controllers, bare.controllers);
  EXPECT_EQ(observed.throttles, bare.throttles);
  EXPECT_EQ(observed.ledger, bare.ledger);
  EXPECT_EQ(observed.end, bare.end);
}

void expect_same_outcome(const Outcome& got, const Outcome& bare) {
  ASSERT_EQ(got.logs.size(), bare.logs.size());
  for (std::size_t h = 0; h < bare.logs.size(); ++h) {
    EXPECT_EQ(got.logs[h], bare.logs[h]) << "delivery log of host " << h;
  }
  EXPECT_EQ(got.routers, bare.routers);
  EXPECT_EQ(got.ports, bare.ports);
  EXPECT_EQ(got.hosts, bare.hosts);
  EXPECT_EQ(got.vmtp, bare.vmtp);
  EXPECT_EQ(got.controllers, bare.controllers);
  EXPECT_EQ(got.throttles, bare.throttles);
  EXPECT_EQ(got.ledger, bare.ledger);
  EXPECT_EQ(got.end, bare.end);
}

// Readers never steer.  A port settles completions and committed starts
// without events, so its readers (busy(), queue_packets(), queue_bytes(),
// stats()) must compute the state the events would have left and never
// change what happens next.  Polling every port on a fixed tick, in the
// observed run (every start and departure runs as an event) and in the
// bare run (starts committed, completions settled lazily), must leave
// every outcome of the unpolled bare run unchanged.
TEST(ObservationInvariance, PollingEveryPortChangesNoSimulatedOutcome) {
  const Outcome bare = run_fan_in(nullptr);
  {
    SCOPED_TRACE("bare run, polled");
    expect_same_outcome(run_fan_in(nullptr, /*poll=*/true), bare);
  }
  {
    SCOPED_TRACE("observed run, polled");
    Planes planes;
    expect_same_outcome(run_fan_in(&planes, /*poll=*/true), bare);
  }
}

}  // namespace
}  // namespace srp
