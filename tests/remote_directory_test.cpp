// Tests for the networked directory service (paper §3, footnote 10).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "directory/fabric.hpp"
#include "directory/remote.hpp"
#include "test_util.hpp"

namespace srp::dir {
namespace {

using test::pattern_bytes;

TEST(RemoteDirectoryCodec, QueryRoundTrip) {
  QueryOptions options;
  options.constraints.metric = RouteMetric::kCost;
  options.constraints.min_security = 3;
  options.constraints.min_bandwidth_bps = 1e8;
  options.constraints.count = 4;
  options.account = 77;
  options.dest_endpoint = 0xABCDEF;
  options.token_byte_limit = 5000;
  options.token_expiry_sec = 60;
  const wire::Bytes bytes =
      encode_route_query(42, "server.example", options);
  const auto back = decode_route_query(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from_node, 42u);
  EXPECT_EQ(back->name, "server.example");
  EXPECT_EQ(back->options.constraints.metric, RouteMetric::kCost);
  EXPECT_EQ(back->options.constraints.min_security, 3);
  EXPECT_EQ(back->options.constraints.count, 4u);
  EXPECT_EQ(back->options.account, 77u);
  EXPECT_EQ(back->options.dest_endpoint, 0xABCDEFu);
  EXPECT_EQ(back->options.token_byte_limit, 5000u);
  EXPECT_EQ(back->options.token_expiry_sec, 60u);
  EXPECT_FALSE(decode_route_query(wire::Bytes{1, 2, 3}).has_value());
}

TEST(RemoteDirectoryCodec, RoutesRoundTrip) {
  IssuedRoute route;
  core::HeaderSegment seg;
  seg.port = 9;
  seg.flags.vnt = true;
  seg.token = pattern_bytes(40);
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  const auto id = viper::encode_endpoint_id(0xFEED);
  local.port_info.assign(id.begin(), id.end());
  route.route.segments = {seg, local};
  route.first_hop_link = net::EthernetHeader{
      net::MacAddr::from_index(1), net::MacAddr::from_index(2),
      net::kEtherTypeSirpent};
  route.host_out_port = 3;
  route.propagation_delay = 123 * sim::kMicrosecond;
  route.bottleneck_bps = 1e9;
  route.mtu = 1500;
  route.cost = 2.5;
  route.security_floor = 4;
  route.hops = 1;
  route.router_ids = {7};

  const wire::Bytes bytes = encode_issued_routes({route, route});
  const auto back = decode_issued_routes(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 2u);
  const IssuedRoute& b = back->front();
  EXPECT_EQ(b.route.segments, route.route.segments);
  EXPECT_EQ(b.first_hop_link, route.first_hop_link);
  EXPECT_EQ(b.host_out_port, 3);
  EXPECT_EQ(b.propagation_delay, route.propagation_delay);
  EXPECT_EQ(b.bottleneck_bps, 1e9);
  EXPECT_EQ(b.mtu, 1500u);
  EXPECT_EQ(b.cost, 2.5);
  EXPECT_EQ(b.security_floor, 4);
  EXPECT_EQ(b.hops, 1u);
  EXPECT_EQ(b.router_ids, route.router_ids);

  EXPECT_FALSE(decode_issued_routes(wire::Bytes{9}).has_value());
  EXPECT_TRUE(decode_issued_routes(encode_issued_routes({}))->empty());
}

struct RemoteDirFixture : ::testing::Test {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  viper::ViperHost* client_host = nullptr;
  viper::ViperHost* server_host = nullptr;
  viper::ViperHost* dir_host = nullptr;
  std::unique_ptr<DirectoryServerNode> server_node;
  std::unique_ptr<RemoteDirectoryClient> client;

  void build() {
    client_host = &fabric.add_host("client.rd");
    auto& r1 = fabric.add_router("r1");
    auto& r2 = fabric.add_router("r2");
    server_host = &fabric.add_host("server.rd");
    dir_host = &fabric.add_host("directory.rd");
    fabric.connect(*client_host, r1);
    fabric.connect(r1, r2);
    fabric.connect(r2, *server_host);
    fabric.connect(r1, *dir_host);  // region server near the client

    server_node = std::make_unique<DirectoryServerNode>(
        sim, *dir_host, fabric.directory());
    // Bootstrap: the statically configured route to the region server.
    dir::QueryOptions boot;
    boot.dest_endpoint = kDirectoryEntity;
    const auto boot_routes = fabric.directory().query(
        fabric.id_of(*client_host), "directory.rd", boot);
    ASSERT_FALSE(boot_routes.empty());
    client = std::make_unique<RemoteDirectoryClient>(
        sim, *client_host, fabric.id_of(*client_host), boot_routes[0],
        /*client_entity=*/0xC0FFEE);
  }
};

TEST_F(RemoteDirFixture, QueryOverTheNetworkAndUseTheRoute) {
  build();
  std::vector<IssuedRoute> routes;
  sim::Time query_rtt = 0;
  QueryOptions q;
  client->query("server.rd", q, [&](std::vector<IssuedRoute> r,
                                    sim::Time rtt) {
    routes = std::move(r);
    query_rtt = rtt;
  });
  sim.run();
  ASSERT_FALSE(routes.empty());
  EXPECT_GT(query_rtt, 0);
  EXPECT_EQ(server_node->queries_served(), 1u);

  // The remotely acquired route actually delivers.
  std::optional<viper::Delivery> got;
  server_host->set_default_handler(
      [&](const viper::Delivery& d) { got = d; });
  viper::SendOptions options;
  options.out_port = routes[0].host_out_port;
  options.link = routes[0].first_hop_link;
  client_host->send(routes[0].route, pattern_bytes(99), options);
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, pattern_bytes(99));
}

TEST_F(RemoteDirFixture, UnknownNameReturnsEmpty) {
  build();
  std::optional<std::vector<IssuedRoute>> routes;
  client->query("nosuch.rd", {}, [&](std::vector<IssuedRoute> r,
                                     sim::Time) { routes = std::move(r); });
  sim.run();
  ASSERT_TRUE(routes.has_value());
  EXPECT_TRUE(routes->empty());
}

TEST_F(RemoteDirFixture, QueryRttComparableToOneRoundTrip) {
  // Footnote 10: route acquisition costs one round trip to the server —
  // here client -> r1 -> directory and back, ~4 links of propagation.
  build();
  sim::Time query_rtt = 0;
  client->query("server.rd", {}, [&](std::vector<IssuedRoute>,
                                     sim::Time rtt) { query_rtt = rtt; });
  sim.run();
  // 4 x 10 us propagation plus serialization/processing: well under 1 ms,
  // and at least the bare 40 us of propagation.
  EXPECT_GT(query_rtt, 40 * sim::kMicrosecond);
  EXPECT_LT(query_rtt, sim::kMillisecond);
}

TEST(RemoteDirectoryReferrals, ClientWalksTheRegionHierarchy) {
  // Two region servers: "west" (near the client) owns region W names and
  // refers everything else to "east", which owns region E.  The client
  // only knows its local resolver, exactly like a DNS stub.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.ref", 0);
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  fabric.connect(client_host, r1);
  fabric.connect(r1, r2);

  Directory& directory = fabric.directory();
  const auto west = directory.add_region("west");
  const auto east = directory.add_region("east");

  auto& west_dir = fabric.add_host("dir.west", west);
  auto& east_dir = fabric.add_host("dir.east", east);
  auto& target = fabric.add_host("svc.east", east);
  fabric.connect(r1, west_dir);
  fabric.connect(r2, east_dir);
  fabric.connect(r2, target);
  // add_host registered the names in region 0; rebind them to regions.
  directory.register_name("dir.west", fabric.id_of(west_dir), west);
  directory.register_name("dir.east", fabric.id_of(east_dir), east);
  directory.register_name("svc.east", fabric.id_of(target), east);

  constexpr std::uint64_t kWestEntity = 0xD1;
  constexpr std::uint64_t kEastEntity = 0xD2;
  DirectoryServerNode west_node(sim, west_dir, directory, kWestEntity);
  DirectoryServerNode east_node(sim, east_dir, directory, kEastEntity);
  west_node.serve_regions({west}, "dir.east", kEastEntity);
  east_node.serve_regions({east}, "dir.west", kWestEntity);

  dir::QueryOptions boot;
  boot.dest_endpoint = kWestEntity;
  const auto boot_routes = directory.query(fabric.id_of(client_host),
                                           "dir.west", boot);
  ASSERT_FALSE(boot_routes.empty());
  RemoteDirectoryClient client(sim, client_host,
                               fabric.id_of(client_host),
                               boot_routes.front(), 0xCC01, kWestEntity);

  // Querying an east name through the west resolver follows a referral.
  std::vector<IssuedRoute> routes;
  sim::Time total_rtt = 0;
  client.query("svc.east", {}, [&](std::vector<IssuedRoute> r,
                                   sim::Time rtt) {
    routes = std::move(r);
    total_rtt = rtt;
  });
  sim.run();
  ASSERT_FALSE(routes.empty());
  EXPECT_EQ(west_node.referrals_issued(), 1u);
  EXPECT_EQ(east_node.queries_served(), 1u);
  EXPECT_EQ(west_node.queries_served(), 0u);
  EXPECT_EQ(client.referrals_followed(), 1u);

  // Two server round trips cost more than one direct hit.
  std::vector<IssuedRoute> local_routes;
  sim::Time local_rtt = 0;
  directory.register_name("svc.west", fabric.id_of(west_dir), west);
  client.query("svc.west", {}, [&](std::vector<IssuedRoute> r,
                                   sim::Time rtt) {
    local_routes = std::move(r);
    local_rtt = rtt;
  });
  sim.run();
  ASSERT_FALSE(local_routes.empty());
  EXPECT_GT(total_rtt, local_rtt);

  // The referred route is usable end to end.
  std::optional<viper::Delivery> got;
  target.set_default_handler([&](const viper::Delivery& d) { got = d; });
  viper::SendOptions options;
  options.out_port = routes[0].host_out_port;
  client_host.send(routes[0].route, test::pattern_bytes(31), options);
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, test::pattern_bytes(31));
}

TEST(RemoteDirectoryReferrals, ReferralLoopBounded) {
  // Two servers that own nothing and refer to each other forever: the
  // client must give up at its depth bound instead of looping.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.loop");
  auto& r1 = fabric.add_router("r1");
  fabric.connect(client_host, r1);
  Directory& directory = fabric.directory();
  const auto a_region = directory.add_region("a");
  const auto b_region = directory.add_region("b");
  const auto lost_region = directory.add_region("lost");
  auto& dir_a = fabric.add_host("dir.a");
  auto& dir_b = fabric.add_host("dir.b");
  auto& orphan = fabric.add_host("orphan.lost");
  fabric.connect(r1, dir_a);
  fabric.connect(r1, dir_b);
  fabric.connect(r1, orphan);
  directory.register_name("orphan.lost", fabric.id_of(orphan), lost_region);

  DirectoryServerNode node_a(sim, dir_a, directory, 0xA0);
  DirectoryServerNode node_b(sim, dir_b, directory, 0xB0);
  node_a.serve_regions({a_region}, "dir.b", 0xB0);
  node_b.serve_regions({b_region}, "dir.a", 0xA0);

  dir::QueryOptions boot;
  boot.dest_endpoint = 0xA0;
  const auto boot_routes = directory.query(fabric.id_of(client_host),
                                           "dir.a", boot);
  RemoteDirectoryClient client(sim, client_host,
                               fabric.id_of(client_host),
                               boot_routes.front(), 0xCC02, 0xA0);
  std::optional<std::vector<IssuedRoute>> routes;
  client.query("orphan.lost", {},
               [&](std::vector<IssuedRoute> r, sim::Time) {
                 routes = std::move(r);
               });
  sim.run();
  ASSERT_TRUE(routes.has_value());
  EXPECT_TRUE(routes->empty());
  EXPECT_LE(client.referrals_followed(), 8u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace srp::dir
