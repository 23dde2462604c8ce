// Sirpent across the Internet (paper §2.3).
//
// "A Sirpent packet can view the Internet as providing one logical hop
// across its internetwork ... In this sense, all existing networks (and
// internetworks) can be incorporated into the Sirpent approach."
//
// Two Sirpent campuses are joined by an IP backbone running its own
// distance-vector routing.  A single tunnel segment carries the VIPER
// packet across the backbone as an IP datagram; the return route works
// because the egress gateway's trailer entry records the ingress
// gateway's IP address.  We also shrink the backbone MTU to show IP
// fragmentation working transparently underneath the tunnel.
//
// Run: ./internet_transit
#include <cstdio>
#include <memory>
#include <optional>

#include "interop/ip_gateway.hpp"
#include "ip/builder.hpp"
#include "net/network.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"

int main() {
  using namespace srp;

  sim::Simulator sim;
  net::Network net(sim);

  // --- Campus A (Sirpent) ---
  auto& alice = net.add<viper::ViperHost>("alice", net.packets());
  auto& gw_west = net.add<viper::ViperRouter>("gw-west",
                                              viper::RouterConfig{});
  // --- Campus B (Sirpent) ---
  auto& gw_east = net.add<viper::ViperRouter>("gw-east",
                                              viper::RouterConfig{});
  auto& bob = net.add<viper::ViperHost>("bob", net.packets());

  // --- The IP backbone between them (its own world) ---
  constexpr ip::Addr kWestAddr = 0x0A010001, kEastAddr = 0x0A020001;
  auto& west_ip = net.add<ip::IpHost>(
      "gw-west-ip", net.packets(),
      ip::IpHostConfig{kWestAddr});
  auto& east_ip = net.add<ip::IpHost>(
      "gw-east-ip", net.packets(),
      ip::IpHostConfig{kEastAddr});
  auto& backbone1 = net.add<ip::IpRouter>("bb1", net.packets(),
                                          ip::IpRouterConfig{0x0A0100FE});
  auto& backbone2 = net.add<ip::IpRouter>("bb2", net.packets(),
                                          ip::IpRouterConfig{0x0A0200FE});

  const net::LinkConfig campus{1e9, 5 * sim::kMicrosecond, 1500};
  const net::LinkConfig wan{1e9, 10 * sim::kMillisecond, 576};  // small MTU!
  net.duplex(alice, gw_west, campus);
  net.duplex(gw_east, bob, campus);
  net.duplex(west_ip, backbone1, wan);
  net.duplex(backbone1, backbone2, wan);
  net.duplex(backbone2, east_ip, wan);
  backbone1.add_connected(kWestAddr, 1);
  backbone1.table()[kEastAddr] = ip::RouteEntry{2, 2, true, 0};
  backbone2.table()[kWestAddr] = ip::RouteEntry{1, 2, true, 0};
  backbone2.add_connected(kEastAddr, 2);

  // --- Bind each gateway router to its co-located IP host ---
  constexpr std::uint8_t kTunnel = 200;
  interop::IpTunnel west_tunnel(gw_west, west_ip, kTunnel);
  interop::IpTunnel east_tunnel(gw_east, east_ip, kTunnel);

  // Alice's source route: one tunnel segment for the whole backbone.
  core::SourceRoute route;
  core::HeaderSegment across_the_internet;
  across_the_internet.port = kTunnel;
  across_the_internet.port_info = interop::encode_tunnel_info(kEastAddr);
  core::HeaderSegment to_bob;
  to_bob.port = 1;  // gw-east port 1 leads to bob
  to_bob.flags.vnt = true;
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.flags.vnt = true;
  route.segments = {across_the_internet, to_bob, local};

  std::printf("alice's route: %zu Sirpent segments (the whole IP backbone "
              "is ONE logical hop)\n",
              route.segments.size());

  bob.set_default_handler([&](const viper::Delivery& d) {
    std::printf("[%7.2f ms] bob got %zu bytes after %u Sirpent hops\n",
                sim::to_millis(d.delivered_at), d.data.size(), d.hops);
    for (const auto& seg : d.return_route.segments) {
      if (auto far = interop::decode_tunnel_info(seg.port_info)) {
        std::printf("            return route tunnels back via gateway "
                    "10.%u.0.%u\n",
                    (*far >> 16) & 0xFF, *far & 0xFF);
      }
    }
    bob.reply(d, wire::Bytes{0xCA, 0xFE});
  });
  alice.set_default_handler([&](const viper::Delivery& d) {
    std::printf("[%7.2f ms] alice got bob's %zu-byte reply — round trip "
                "across two stacks\n",
                sim::to_millis(d.delivered_at), d.data.size());
  });

  // A 1200-byte payload will not fit the backbone's 576-byte MTU: the IP
  // substrate fragments and reassembles under the tunnel.
  alice.send(route, wire::Bytes(1200, 0xAB));
  sim.run();

  std::printf("\nbackbone fragmented the tunneled packet %llu times; the "
              "far IP host reassembled %llu datagram(s)\n",
              static_cast<unsigned long long>(
                  backbone1.stats().fragments_created),
              static_cast<unsigned long long>(
                  east_ip.stats().reassembled));
  std::printf("tunnels: west encapsulated %llu / decapsulated %llu, east "
              "encapsulated %llu / decapsulated %llu\n",
              static_cast<unsigned long long>(
                  west_tunnel.stats().encapsulated),
              static_cast<unsigned long long>(
                  west_tunnel.stats().decapsulated),
              static_cast<unsigned long long>(
                  east_tunnel.stats().encapsulated),
              static_cast<unsigned long long>(
                  east_tunnel.stats().decapsulated));
  return 0;
}
