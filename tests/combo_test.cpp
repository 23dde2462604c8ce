// Whole-stack combinations: the transport running across the Sirpent/IP
// gateway, and tokens + congestion control + delay lines coexisting on
// one fabric.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "directory/fabric.hpp"
#include "interop/ip_gateway.hpp"
#include "ip/builder.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"

namespace srp {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

TEST(ComboStack, VmtpTransactionAcrossTheIpTunnel) {
  // Full request/response over a route whose middle hop is an IP cloud:
  // the response travels the tunnel *return* entry, and retransmission
  // timers, entity ids and checksums all operate end to end, oblivious to
  // the two stacks underneath.
  sim::Simulator sim;
  net::Network net(sim);
  auto& client_host = net.add<viper::ViperHost>("client", net.packets());
  auto& gw1 = net.add<viper::ViperRouter>("gw1", viper::RouterConfig{});
  auto& gw2 = net.add<viper::ViperRouter>("gw2", viper::RouterConfig{});
  auto& server_host = net.add<viper::ViperHost>("server", net.packets());
  constexpr ip::Addr kGw1 = 0x0A010001, kGw2 = 0x0A020001;
  auto& gw1_ip = net.add<ip::IpHost>(
      "gw1-ip", net.packets(),
      ip::IpHostConfig{kGw1});
  auto& gw2_ip = net.add<ip::IpHost>(
      "gw2-ip", net.packets(),
      ip::IpHostConfig{kGw2});
  auto& cloud = net.add<ip::IpRouter>("cloud", net.packets(),
                                      ip::IpRouterConfig{0x0A0000FE});
  const net::LinkConfig cfg{1e9, 10 * sim::kMicrosecond, 1500};
  net.duplex(client_host, gw1, cfg);
  net.duplex(gw2, server_host, cfg);
  net.duplex(gw1_ip, cloud, cfg);
  net.duplex(cloud, gw2_ip, cfg);
  cloud.add_connected(kGw1, 1);
  cloud.add_connected(kGw2, 2);
  constexpr std::uint8_t kTunnel = 200;
  interop::IpTunnel t1(gw1, gw1_ip, kTunnel);
  interop::IpTunnel t2(gw2, gw2_ip, kTunnel);

  vmtp::VmtpEndpoint client(sim, client_host, 0xC, {});
  vmtp::VmtpEndpoint server(sim, server_host, 0x5, {});
  server.serve([](std::span<const std::uint8_t> req,
                  const viper::Delivery& d) {
    // The delivery's return route must contain the tunnel-back entry.
    bool has_tunnel_entry = false;
    for (const auto& seg : d.return_route.segments) {
      if (interop::decode_tunnel_info(seg.port_info).has_value()) {
        has_tunnel_entry = true;
      }
    }
    EXPECT_TRUE(has_tunnel_entry);
    return wire::Bytes(req.begin(), req.end());
  });

  dir::IssuedRoute route;
  core::HeaderSegment across;
  across.port = kTunnel;
  across.port_info = interop::encode_tunnel_info(kGw2);
  route.route.segments = {across, p2p_segment(1), local_segment(0x5)};
  std::optional<vmtp::Result> result;
  const wire::Bytes request = pattern_bytes(3000);  // 3-packet group
  client.invoke(route, 0x5, request,
                [&](vmtp::Result r) { result = std::move(r); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->response, request);
  EXPECT_EQ(result->retransmissions, 0);
  EXPECT_EQ(t1.stats().encapsulated, 3u);  // request packets out
  EXPECT_EQ(t2.stats().encapsulated, 3u);  // response packets back
}

TEST(ComboStack, TokensCongestionAndDelayLinesCoexist) {
  // Everything on at once on a bottleneck chain: token enforcement
  // (optimistic), rate-based congestion control, and delay lines on the
  // bottleneck port.  The system must stay live, charge the account, and
  // lose nothing once the rate control bites.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.combo");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& dst = fabric.add_host("dst.combo");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(src, r1, fast);
  fabric.connect(r1, r2, slow);
  fabric.connect(r2, dst, slow);
  r1.port(2).set_buffer_limit(8 * 1024);
  fabric.enable_tokens(0xC0B0, true, tokens::UncachedPolicy::kOptimistic,
                       30 * sim::kMicrosecond);
  cc::ControllerConfig cc_config;
  cc_config.interval = sim::kMillisecond;
  cc_config.queue_watermark_bytes = 3 * 1024;
  fabric.enable_congestion_control(cc_config);
  r1.enable_delay_lines(100 * sim::kMicrosecond, 8);

  dir::QueryOptions q;
  q.account = 4242;
  const auto routes =
      fabric.directory().query(fabric.id_of(src), "dst.combo", q);
  ASSERT_FALSE(routes.empty());

  int delivered = 0;
  dst.set_default_handler([&](const viper::Delivery&) { ++delivered; });

  // Offer 2x the bottleneck for 60 ms, throttle-aware.
  const cc::FlowKey key{fabric.id_of(r1), 2};
  auto pump = std::make_shared<std::function<void(int)>>();
  // Weak self-capture; the pending event carries the strong reference, so
  // the pump chain frees itself when it runs out (no shared_ptr cycle).
  *pump = [&, weak = std::weak_ptr(pump), key](int remaining) {
    if (remaining == 0) return;
    cc::SourceThrottle* throttle = fabric.throttle_of(src);
    const sim::Time when =
        throttle ? std::max(throttle->acquire(key, 1000), sim.now())
                 : sim.now();
    sim.at(when, [&, self = weak.lock(), remaining] {
      viper::SendOptions options;
      options.out_port = routes[0].host_out_port;
      src.send(routes[0].route, wire::Bytes(1000, 0x5C), options);
      sim.after(40 * sim::kMicrosecond,
                [self, remaining] { (*self)(remaining - 1); });
    });
  };
  sim.at(1, [pump] { (*pump)(1500); });
  sim.run_until(300 * sim::kMillisecond);

  // Liveness + accounting + all three mechanisms actually engaged.
  EXPECT_GT(delivered, 1000);
  EXPECT_GT(fabric.ledger().usage(4242).packets, 500u);
  EXPECT_GT(r1.stats().delay_line_loops + r1.port(2).stats().dropped_full,
            0u);
  auto* throttle = fabric.throttle_of(src);
  ASSERT_NE(throttle, nullptr);
  EXPECT_GT(throttle->stats().reports_received, 0u);
  EXPECT_GE(r1.token_cache().stats().hits, 1000u);
}

}  // namespace
}  // namespace srp
