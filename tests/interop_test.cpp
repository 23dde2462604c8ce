// Integration tests for Sirpent-over-IP (paper §2.3): the IP internetwork
// as one logical hop of a Sirpent source route, including return routes
// through the tunnel and IP fragmentation underneath it.
#include <gtest/gtest.h>

#include <optional>

#include "interop/ip_gateway.hpp"
#include "ip/builder.hpp"
#include "net/network.hpp"
#include "test_util.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"

namespace srp::interop {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

/// Mixed internetwork:
///
///   alice -- GW1(viper router + ip host) == ip cloud (2 IP routers) ==
///   GW2(ip host + viper router) -- bob
///
/// The IP cloud uses its own addressing and routing; the Sirpent route
/// crosses it with a single tunnel segment.
struct MixedNet {
  sim::Simulator sim;
  net::Network net{sim};
  viper::ViperHost* alice = nullptr;
  viper::ViperRouter* gw1 = nullptr;
  viper::ViperRouter* gw2 = nullptr;
  viper::ViperHost* bob = nullptr;
  ip::IpHost* gw1_ip = nullptr;
  ip::IpHost* gw2_ip = nullptr;
  ip::IpRouter* ipr1 = nullptr;
  ip::IpRouter* ipr2 = nullptr;
  std::unique_ptr<IpTunnel> tunnel1;
  std::unique_ptr<IpTunnel> tunnel2;

  static constexpr ip::Addr kGw1Addr = 0x0A010001;
  static constexpr ip::Addr kGw2Addr = 0x0A020001;
  static constexpr std::uint8_t kTunnelPort = 200;

  explicit MixedNet(std::size_t cloud_mtu = 1500) {
    alice = &net.add<viper::ViperHost>("alice", net.packets());
    gw1 = &net.add<viper::ViperRouter>("gw1", viper::RouterConfig{});
    gw2 = &net.add<viper::ViperRouter>("gw2", viper::RouterConfig{});
    bob = &net.add<viper::ViperHost>("bob", net.packets());
    gw1_ip = &net.add<ip::IpHost>("gw1-ip", net.packets(),
                                  ip::IpHostConfig{kGw1Addr});
    gw2_ip = &net.add<ip::IpHost>("gw2-ip", net.packets(),
                                  ip::IpHostConfig{kGw2Addr});
    ipr1 = &net.add<ip::IpRouter>("ipr1", net.packets(),
                                  ip::IpRouterConfig{0x0A0100FE});
    ipr2 = &net.add<ip::IpRouter>("ipr2", net.packets(),
                                  ip::IpRouterConfig{0x0A0200FE});

    const net::LinkConfig edge{1e9, 5 * sim::kMicrosecond, 1500};
    const net::LinkConfig cloud{1e9, 20 * sim::kMicrosecond, cloud_mtu};
    net.duplex(*alice, *gw1, edge);    // gw1 port 1
    net.duplex(*gw2, *bob, edge);      // gw2 port 1
    net.duplex(*gw1_ip, *ipr1, cloud); // ip hosts' port 1
    net.duplex(*ipr1, *ipr2, cloud);
    net.duplex(*ipr2, *gw2_ip, cloud);
    // Static IP routes across the cloud.
    ipr1->add_connected(kGw1Addr, 1);
    ipr1->table()[kGw2Addr] = ip::RouteEntry{2, 2, true, 0};
    ipr2->table()[kGw1Addr] = ip::RouteEntry{1, 2, true, 0};
    ipr2->add_connected(kGw2Addr, 2);

    tunnel1 = std::make_unique<IpTunnel>(*gw1, *gw1_ip, kTunnelPort);
    tunnel2 = std::make_unique<IpTunnel>(*gw2, *gw2_ip, kTunnelPort);
  }

  /// alice -> bob: tunnel segment at gw1, then bob behind gw2 port 1.
  core::SourceRoute forward_route() const {
    core::SourceRoute route;
    core::HeaderSegment tunnel_seg;
    tunnel_seg.port = kTunnelPort;
    tunnel_seg.port_info = encode_tunnel_info(kGw2Addr);
    route.segments = {tunnel_seg, p2p_segment(1), local_segment()};
    return route;
  }
};

TEST(IpTunnelInfo, RoundTripAndRejects) {
  const wire::Bytes info = encode_tunnel_info(0x0A020001);
  EXPECT_EQ(info.size(), 5u);
  const auto back = decode_tunnel_info(info);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, 0x0A020001u);
  EXPECT_FALSE(decode_tunnel_info({}).has_value());
  EXPECT_FALSE(decode_tunnel_info({0x49, 1, 2}).has_value());
  EXPECT_FALSE(decode_tunnel_info({0x50, 1, 2, 3, 4}).has_value());
}

TEST(SirpentOverIp, CrossesTheCloudAndBack) {
  MixedNet m;
  std::optional<viper::Delivery> at_bob;
  m.bob->set_default_handler([&](const viper::Delivery& d) { at_bob = d; });

  const wire::Bytes payload = pattern_bytes(300);
  m.alice->send(m.forward_route(), payload);
  m.sim.run();

  ASSERT_TRUE(at_bob.has_value());
  EXPECT_EQ(at_bob->data, payload);
  EXPECT_EQ(m.tunnel1->stats().encapsulated, 1u);
  EXPECT_EQ(m.tunnel2->stats().decapsulated, 1u);

  // The return route's tunnel entry points back at gw1's address.
  bool tunnel_entry_found = false;
  for (const auto& seg : at_bob->return_route.segments) {
    const auto far = decode_tunnel_info(seg.port_info);
    if (far.has_value()) {
      tunnel_entry_found = true;
      EXPECT_EQ(*far, MixedNet::kGw1Addr);
      EXPECT_EQ(seg.port, MixedNet::kTunnelPort);
    }
  }
  EXPECT_TRUE(tunnel_entry_found);

  // The reply tunnels back across the IP cloud.
  std::optional<viper::Delivery> at_alice;
  m.alice->set_default_handler(
      [&](const viper::Delivery& d) { at_alice = d; });
  m.bob->reply(*at_bob, pattern_bytes(40));
  m.sim.run();
  ASSERT_TRUE(at_alice.has_value());
  EXPECT_EQ(at_alice->data, pattern_bytes(40));
  EXPECT_EQ(m.tunnel2->stats().encapsulated, 1u);
  EXPECT_EQ(m.tunnel1->stats().decapsulated, 1u);
}

TEST(SirpentOverIp, IpFragmentationUnderneathIsTransparent) {
  MixedNet m(/*cloud_mtu=*/512);  // VIPER packet won't fit one datagram
  std::optional<viper::Delivery> at_bob;
  m.bob->set_default_handler([&](const viper::Delivery& d) { at_bob = d; });

  const wire::Bytes payload = pattern_bytes(1200);
  m.alice->send(m.forward_route(), payload);
  m.sim.run();

  ASSERT_TRUE(at_bob.has_value());
  EXPECT_EQ(at_bob->data, payload);
  // The cloud fragmented and the far IP host reassembled.
  EXPECT_GT(m.ipr1->stats().fragments_created, 0u);
  EXPECT_EQ(m.gw2_ip->stats().reassembled, 1u);
}

TEST(SirpentOverIp, BadTunnelInfoCounted) {
  MixedNet m;
  core::SourceRoute route;
  core::HeaderSegment bad;
  bad.port = MixedNet::kTunnelPort;
  bad.port_info = {0x49, 0x01};  // malformed: too short
  route.segments = {bad, test::local_segment()};
  m.alice->send(route, pattern_bytes(10));
  m.sim.run();
  EXPECT_EQ(m.tunnel1->stats().bad_tunnel_info, 1u);
  EXPECT_EQ(m.tunnel2->stats().decapsulated, 0u);
}

TEST(SirpentOverIp, HopCountIsLogicalNotPhysical) {
  // The paper's point: the whole IP cloud is ONE Sirpent hop, so the
  // VIPER header carries one tunnel segment regardless of how many IP
  // routers sit inside.
  MixedNet m;
  std::optional<viper::Delivery> at_bob;
  m.bob->set_default_handler([&](const viper::Delivery& d) { at_bob = d; });
  m.alice->send(m.forward_route(), pattern_bytes(64));
  m.sim.run();
  ASSERT_TRUE(at_bob.has_value());
  // Return route: gw2's tunnel entry + gw1's... the forward path consumed
  // two Sirpent segments (tunnel at gw1, port 1 at gw2), so the return
  // route is 2 entries + the local segment.
  EXPECT_EQ(at_bob->return_route.segments.size(), 3u);
}

}  // namespace
}  // namespace srp::interop
