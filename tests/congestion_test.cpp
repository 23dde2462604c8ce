// Tests for rate-based congestion control (paper §2.2): backpressure from
// a congested queue to upstream routers and source hosts, soft-state
// expiry, and the network-layer slow-start ramp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "congestion/controller.hpp"
#include "congestion/messages.hpp"
#include "congestion/throttle.hpp"
#include "directory/fabric.hpp"
#include "test_util.hpp"

namespace srp::cc {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

TEST(RateReportCodec, RoundTrip) {
  const RateReport report{42, 7, 1.25e8};
  const wire::Bytes bytes = encode_rate_report(report);
  const auto back = decode_rate_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, report);
}

TEST(RateReportCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_rate_report(wire::Bytes{}).has_value());
  EXPECT_FALSE(decode_rate_report(wire::Bytes{0x99, 1, 2}).has_value());
  // Valid tag but zero rate must be rejected.
  RateReport zero{1, 1, 0.0};
  wire::Bytes bytes = encode_rate_report(zero);
  EXPECT_FALSE(decode_rate_report(bytes).has_value());
}

/// Bottleneck fixture: source host -> r1 -> (slow link) -> r2 -> sink.
/// The source offers ~4x the bottleneck rate.
struct BottleneckTest : ::testing::Test {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  viper::ViperHost* src = nullptr;
  viper::ViperRouter* r1 = nullptr;
  viper::ViperRouter* r2 = nullptr;
  viper::ViperHost* dst = nullptr;
  core::SourceRoute route;
  std::size_t max_queue_packets = 0;
  int delivered = 0;

  static constexpr double kBottleneck = 1e8;  // 100 Mb/s
  static constexpr std::size_t kPacket = 1000;

  void build(bool with_cc) {
    dir::LinkParams fast;
    fast.rate_bps = 1e9;
    dir::LinkParams slow;
    slow.rate_bps = kBottleneck;
    // src -(fast)- r1 -(slow, the bottleneck at r1 port 2)- r2 -(slow)- dst
    test::Line line = test::build_line(
        fabric, 2, "src.test", "dst.test", {},
        [&](int hop) { return hop == 0 ? fast : slow; });
    src = line.src;
    r1 = &line.router(0);
    r2 = &line.router(1);
    dst = line.dst;
    if (with_cc) {
      ControllerConfig config;
      config.interval = sim::kMillisecond;
      config.queue_watermark_bytes = 16'000;
      fabric.enable_congestion_control(config);
    }
    route = test::line_route(2);
    dst->set_default_handler([this](const viper::Delivery&) { ++delivered; });
    r1->port(2).on_queue_change = [this](sim::Time, std::size_t n) {
      max_queue_packets = std::max(max_queue_packets, n);
    };
  }

  /// Source pump: offers a packet every @p interval, consulting the
  /// throttle when congestion control is on (a rate-based transport).
  void pump(sim::Time interval, sim::Time until) {
    const FlowKey key{fabric.id_of(*r1), 2};
    test::drive(sim, 1, until, [this, key, interval]() -> sim::Time {
      SourceThrottle* throttle = fabric.throttle_of(*src);
      sim::Time when = sim.now();
      if (throttle != nullptr) {
        when = throttle->acquire(key, kPacket);
      }
      sim.at(std::max(when, sim.now()), [this] {
        src->send(route, pattern_bytes(kPacket));
      });
      return std::max(when, sim.now()) + interval - sim.now();
    });
  }
};

TEST_F(BottleneckTest, WithoutControlQueueGrowsUnbounded) {
  build(/*with_cc=*/false);
  pump(20 * sim::kMicrosecond, 100 * sim::kMillisecond);  // ~400 Mb/s offered
  sim.run_until(100 * sim::kMillisecond);
  // Offered 4x capacity for 100 ms: the queue holds thousands of packets.
  EXPECT_GT(max_queue_packets, 1000u);
}

TEST_F(BottleneckTest, BackpressureBoundsQueueAndHoldsThroughput) {
  build(/*with_cc=*/true);
  pump(20 * sim::kMicrosecond, 200 * sim::kMillisecond);
  sim.run_until(220 * sim::kMillisecond);

  SourceThrottle* throttle = fabric.throttle_of(*src);
  ASSERT_NE(throttle, nullptr);
  EXPECT_GT(throttle->stats().reports_received, 0u);
  EXPECT_GT(throttle->stats().sends_delayed, 0u);

  // Queue stays near the watermark, not thousands of packets.
  EXPECT_LT(max_queue_packets, 200u);

  // The bottleneck still carries close to its capacity: >= 60% of the
  // ~100 Mb/s over the run (ramp oscillation costs some).
  const double sent_bits =
      static_cast<double>(r1->port(2).stats().bytes_sent) * 8.0;
  EXPECT_GT(sent_bits, 0.6 * kBottleneck * 0.2);
  EXPECT_GT(delivered, 0);
}

TEST_F(BottleneckTest, SoftStateExpiresAfterQuiet) {
  build(/*with_cc=*/true);
  pump(20 * sim::kMicrosecond, 50 * sim::kMillisecond);
  sim.run_until(60 * sim::kMillisecond);
  SourceThrottle* throttle = fabric.throttle_of(*src);
  ASSERT_NE(throttle, nullptr);
  const FlowKey key{fabric.id_of(*r1), 2};
  // Under pressure the granted rate is finite.
  EXPECT_LT(throttle->rate(key), 1e12);
  // After the source stops, reports cease, the rate ramps up, and the
  // soft state disappears ("as soft cached state, it can be discarded").
  sim.run_until(300 * sim::kMillisecond);
  EXPECT_TRUE(std::isinf(throttle->rate(key)));
}

TEST_F(BottleneckTest, RouterControllerSeesNoFalseCongestion) {
  build(/*with_cc=*/true);
  // Gentle traffic well under the bottleneck: no reports should flow.
  pump(200 * sim::kMicrosecond, 50 * sim::kMillisecond);  // ~40 Mb/s
  sim.run_until(60 * sim::kMillisecond);
  SourceThrottle* throttle = fabric.throttle_of(*src);
  ASSERT_NE(throttle, nullptr);
  EXPECT_EQ(throttle->stats().reports_received, 0u);
  EXPECT_EQ(delivered,
            static_cast<int>(dst->stats().delivered));
  EXPECT_GT(delivered, 100);
}

/// Router-side soft state, tick by tick.  A downstream router sends rate
/// reports as control packets; the controller under test shapes two flows
/// through its 100 Mb/s egress.  Flow A (8 Mb/s, refreshed at 4 Mb/s while
/// packets are held) releases at the granted rate, refills at the old rate
/// before the new one lands, ramps once quiet and expires at its TTL,
/// flushing what it still holds.  Flow B (60 Mb/s) ramps out at the egress
/// rate.
TEST(RouterSoftState, ReportsShapeRampAndExpireTickByTick) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.soft");
  auto& shaper = fabric.add_router("r.shaper");
  auto& congested = fabric.add_router("r.congested");
  auto& dst_a = fabric.add_host("a.soft");
  auto& dst_b = fabric.add_host("b.soft");
  dir::LinkParams fast;
  dir::LinkParams egress;
  egress.rate_bps = 1e8;  // flow B's ramp-out ceiling
  fabric.connect(src, shaper, fast);          // shaper port 1
  fabric.connect(shaper, congested, egress);  // shaper port 2
  fabric.connect(congested, dst_a, fast);     // congested port 2
  fabric.connect(congested, dst_b, fast);     // congested port 3

  ControllerConfig config;
  config.interval = sim::kMillisecond;
  config.flow_ttl = 4 * sim::kMillisecond;
  config.ramp_factor = 2.0;
  CongestionController controller(sim, shaper, config);
  const std::uint32_t down = fabric.id_of(congested);
  controller.set_neighbor(2, down);
  const FlowKey key_a{down, 2};
  const FlowKey key_b{down, 3};

  // Every packet the shaper hands its egress, by flow (payload sizes
  // differ: A carries 450 bytes, B 600).
  struct Sent {
    sim::Time at;
    std::size_t bytes;
  };
  std::vector<Sent> sent_a;
  std::vector<Sent> sent_b;
  shaper.port(2).on_enqueue = [&](const net::Packet& p) {
    (p.size() < 600 ? sent_a : sent_b).push_back({sim.now(), p.size()});
  };

  auto report = [&](std::uint8_t port, double rate) {
    congested.send_control(1, encode_rate_report(RateReport{down, port,
                                                            rate}));
  };
  auto send = [&](std::uint8_t port, std::size_t payload, int count) {
    core::SourceRoute route;
    route.segments = {p2p_segment(2), p2p_segment(port), local_segment()};
    for (int i = 0; i < count; ++i) src.send(route, pattern_bytes(payload));
  };
  sim.at(100 * sim::kMicrosecond, [&] {
    report(2, 8e6);
    report(3, 6e7);
  });
  sim.at(150 * sim::kMicrosecond, [&] {
    send(3, 600, 4);
    send(2, 450, 4);
  });
  sim.at(1300 * sim::kMicrosecond, [&] { report(2, 4e6); });
  sim.at(5800 * sim::kMicrosecond, [&] { send(2, 450, 12); });

  // Probes run 1 ps after each tick.
  std::vector<std::vector<CongestionController::FlowSnapshot>> at_tick;
  std::vector<CongestionController::Stats> stats_at_tick;
  for (int k = 0; k <= 6; ++k) {
    sim.at(k * sim::kMillisecond + 1, [&] {
      at_tick.push_back(controller.flow_snapshots());
      stats_at_tick.push_back(controller.stats());
    });
  }
  std::size_t held_before_expiry = 0;
  sim.at(6 * sim::kMillisecond - 1,
         [&] { held_before_expiry = controller.held_packets(); });
  sim.run_until(20 * sim::kMillisecond);

  // Tick 0 precedes every report; ticks 1 and 2 see both limits as granted.
  ASSERT_EQ(at_tick.size(), 7u);
  EXPECT_TRUE(at_tick[0].empty());
  ASSERT_EQ(at_tick[1].size(), 2u);
  const auto& a1 = at_tick[1][0];
  const auto& b1 = at_tick[1][1];
  EXPECT_EQ(a1.key, key_a);
  EXPECT_EQ(b1.key, key_b);
  EXPECT_DOUBLE_EQ(a1.rate_bps, 8e6);
  EXPECT_DOUBLE_EQ(b1.rate_bps, 6e7);
  const sim::Time t_a = a1.expires - config.flow_ttl;  // report A landed
  const sim::Time t_b = b1.expires - config.flow_ttl;
  EXPECT_GT(t_a, 100 * sim::kMicrosecond);
  EXPECT_GT(t_b, t_a);
  EXPECT_LT(t_b, 150 * sim::kMicrosecond);
  // The refresh crosses the same idle link 1.2 ms after the first report.
  const sim::Time t_a2 = t_a + 1200 * sim::kMicrosecond;

  // Every packet of the first bursts was held: neither bucket had filled
  // one packet's worth since its report.
  ASSERT_EQ(sent_b.size(), 4u);
  ASSERT_EQ(sent_a.size(), 16u);
  EXPECT_EQ(stats_at_tick[1].packets_shaped, 8u);

  // Bucket-limited release: A's first two leave one packet-time at 8 Mb/s
  // apart, counted from the report that opened an empty bucket.  The
  // refresh refills at 8 Mb/s up to its arrival and only then drops the
  // rate to 4 Mb/s, which sets the third release; the fourth follows one
  // packet-time at 4 Mb/s later.
  const double need_a = 8.0 * static_cast<double>(sent_a[0].bytes);
  const double need_b = 8.0 * static_cast<double>(sent_b[0].bytes);
  const sim::Time r1 = t_a + sim::from_seconds(need_a / 8e6);
  const sim::Time r2 = r1 + sim::from_seconds(need_a / 8e6);
  const sim::Time r3 =
      t_a2 + sim::from_seconds((need_a - 8e6 * sim::to_seconds(t_a2 - r2)) /
                               4e6);
  const sim::Time r4 = r3 + sim::from_seconds(need_a / 4e6);
  const sim::Time tol = sim::kNanosecond;
  EXPECT_NEAR(sent_a[0].at, r1, tol);
  EXPECT_NEAR(sent_a[1].at, r2, tol);
  EXPECT_NEAR(sent_a[2].at, r3, tol);
  EXPECT_NEAR(sent_a[3].at, r4, tol);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(sent_b[i].at,
                t_b + (i + 1) * sim::from_seconds(need_b / 6e7), tol);
  }
  EXPECT_EQ(at_tick[1][0].held_packets, 3u);
  EXPECT_EQ(at_tick[1][1].held_packets, 0u);

  // Tick 2: the refresh set A's rate and expiry; B untouched.
  ASSERT_EQ(at_tick[2].size(), 2u);
  EXPECT_DOUBLE_EQ(at_tick[2][0].rate_bps, 4e6);
  EXPECT_EQ(at_tick[2][0].expires, t_a2 + config.flow_ttl);
  EXPECT_EQ(at_tick[2][0].held_packets, 1u);
  EXPECT_DOUBLE_EQ(at_tick[2][1].rate_bps, 6e7);
  EXPECT_EQ(stats_at_tick[2].reports_received, 3u);

  // Tick 3: B has been quiet for 2 intervals; 2 x 60 Mb/s reaches the
  // 100 Mb/s egress, so the limit ramps out.  A (quiet 1.7 ms) holds.
  ASSERT_EQ(at_tick[3].size(), 1u);
  EXPECT_EQ(at_tick[3][0].key, key_a);
  EXPECT_DOUBLE_EQ(at_tick[3][0].rate_bps, 4e6);
  EXPECT_EQ(at_tick[3][0].held_packets, 0u);
  EXPECT_EQ(stats_at_tick[3].flows_ramped_out, 1u);
  EXPECT_EQ(stats_at_tick[3].flows_expired, 0u);

  // Ticks 4 and 5: A ramps x2 per tick; its expiry does not move.
  ASSERT_EQ(at_tick[4].size(), 1u);
  EXPECT_DOUBLE_EQ(at_tick[4][0].rate_bps, 8e6);
  ASSERT_EQ(at_tick[5].size(), 1u);
  EXPECT_DOUBLE_EQ(at_tick[5][0].rate_bps, 1.6e7);
  EXPECT_EQ(at_tick[5][0].expires, t_a2 + config.flow_ttl);

  // The 12-packet burst at 5.8 ms meets a full bucket (1.6e7 b/s x 2
  // intervals = 32 000 bits): 8 packets pass untouched, 4 are held.
  const auto burst_passed = std::count_if(
      sent_a.begin() + 4, sent_a.end(), [](const Sent& s) {
        return s.at < 5850 * sim::kMicrosecond;
      });
  EXPECT_EQ(burst_passed, 8);

  // One of the 4 leaves on its bucket before tick 6.  Tick 6 is past A's
  // expiry: the limit expires and the 3 it still held leave at once.
  EXPECT_TRUE(at_tick[6].empty());
  EXPECT_EQ(held_before_expiry, 3u);
  const auto flushed = std::count_if(
      sent_a.begin(), sent_a.end(),
      [](const Sent& s) { return s.at == 6 * sim::kMillisecond; });
  EXPECT_EQ(static_cast<std::size_t>(flushed), held_before_expiry);
  EXPECT_EQ(controller.held_packets(), 0u);

  const CongestionController::Stats& stats = controller.stats();
  EXPECT_EQ(stats.reports_received, 3u);
  EXPECT_EQ(stats.flows_created, 2u);
  EXPECT_EQ(stats.flows_expired, 1u);
  EXPECT_EQ(stats.flows_ramped_out, 1u);
  EXPECT_EQ(stats.packets_shaped, 8u + 4u);
  EXPECT_EQ(stats.reports_sent, 0u);
  EXPECT_EQ(dst_a.stats().delivered, 16u);
  EXPECT_EQ(dst_b.stats().delivered, 4u);
}

TEST(ThrottleUnit, AcquirePacesAtGrantedRate) {
  sim::Simulator sim;
  net::PacketFactory packets;
  viper::ViperHost host(sim, "h", packets);
  SourceThrottle throttle(sim, host);

  const FlowKey key{5, 2};
  // No limit installed: sends go immediately.
  EXPECT_EQ(throttle.acquire(key, 1250), sim.now());
  EXPECT_TRUE(std::isinf(throttle.rate(key)));

  // Grant 1 Mb/s: a 1250-byte packet occupies 10 ms of budget.
  throttle.apply_report(RateReport{5, 2, 1e6});
  EXPECT_DOUBLE_EQ(throttle.rate(key), 1e6);
  const sim::Time t1 = throttle.acquire(key, 1250);
  const sim::Time t2 = throttle.acquire(key, 1250);
  EXPECT_EQ(t1, sim.now());
  EXPECT_EQ(t2 - t1, 10 * sim::kMillisecond);

  // An unrelated flow key is unaffected.
  EXPECT_EQ(throttle.acquire(FlowKey{6, 1}, 1250), sim.now());
}

TEST(FeedForward, StampTravelsOneHopAndRenewsGrants) {
  // Two-tier: source -> r0 -> r1 -> bottleneck -> sink, with feed-forward
  // enabled.  r0's shaped packets carry their backlog; r1 must keep
  // renewing the grant while that backlog persists even when its own
  // queue has drained below the watermark.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.ff");
  auto& r0 = fabric.add_router("r0");
  auto& r1 = fabric.add_router("r1");
  auto& dst = fabric.add_host("dst.ff");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(src, r0, fast);
  fabric.connect(r0, r1, fast);
  fabric.connect(r1, dst, slow);
  ControllerConfig config;
  config.interval = sim::kMillisecond;
  config.queue_watermark_bytes = 4'000;
  config.feed_forward = true;
  fabric.enable_congestion_control(config);

  core::SourceRoute route;
  route.segments = {p2p_segment(2), p2p_segment(2), local_segment()};
  // Blast 3x the bottleneck for 30 ms, then watch the renewals continue
  // while r0 drains its backlog.
  for (int i = 0; i < 1200; ++i) {
    sim.at(1 + i * 33 * sim::kMicrosecond, [&] {
      src.send(route, pattern_bytes(1000));
    });
  }
  sim.run_until(120 * sim::kMillisecond);

  auto* c0 = fabric.controller_of(r0);
  auto* c1 = fabric.controller_of(r1);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  // r0 shaped packets (took custody at least once)...
  EXPECT_GT(c0->stats().packets_shaped, 0u);
  // ...and r1 kept reporting well beyond the initial congestion episode.
  EXPECT_GT(c1->stats().reports_sent, 5u);
  // Everything eventually arrives (no loss at the 100 Mb/s port's default
  // unbounded buffer, but throughput was shaped).
  EXPECT_GT(dst.stats().delivered, 1000u);
}

TEST(ThrottleUnit, RampRemovesLimitWhenReportsStop) {
  sim::Simulator sim;
  net::PacketFactory packets;
  viper::ViperHost host(sim, "h", packets);
  ThrottleConfig config;
  config.ramp_interval = sim::kMillisecond;
  config.ramp_factor = 4.0;
  config.rate_ceiling_bps = 1e9;
  SourceThrottle throttle(sim, host, config);
  const FlowKey key{5, 2};
  throttle.apply_report(RateReport{5, 2, 1e6});
  // 1e6 * 4^k >= 1e9 at k = 5; each ramp tick is 1 ms.
  sim.run_until(10 * sim::kMillisecond);
  EXPECT_TRUE(std::isinf(throttle.rate(key)));
}

}  // namespace
}  // namespace srp::cc
