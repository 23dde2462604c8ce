// Unit + integration tests for the topology database, route computation
// (Dijkstra/Yen, policy constraints), the directory service, and the
// client route cache.
#include <gtest/gtest.h>

#include "directory/client.hpp"
#include "directory/directory.hpp"
#include "directory/fabric.hpp"
#include "directory/routes.hpp"
#include "directory/topology.hpp"
#include "test_util.hpp"

namespace srp::dir {
namespace {

using test::pattern_bytes;

/// Diamond: h0 - r1 - (r2 | r3) - r4 - h5, with the r2 branch faster.
struct DiamondTopo {
  TopologyDb topo;
  std::uint32_t h0, r1, r2, r3, r4, h5;

  DiamondTopo() {
    h0 = topo.add_node(NodeType::kHost, "h0");
    r1 = topo.add_node(NodeType::kRouter, "r1");
    r2 = topo.add_node(NodeType::kRouter, "r2");
    r3 = topo.add_node(NodeType::kRouter, "r3");
    r4 = topo.add_node(NodeType::kRouter, "r4");
    h5 = topo.add_node(NodeType::kHost, "h5");
    TopoLink fast;
    fast.prop_delay = 1 * sim::kMicrosecond;
    TopoLink slow;
    slow.prop_delay = 10 * sim::kMicrosecond;
    slow.cost = 0.1;  // cheaper but slower
    topo.add_duplex(h0, r1, 1, 1, fast);
    topo.add_duplex(r1, r2, 2, 1, fast);
    topo.add_duplex(r2, r4, 2, 1, fast);
    topo.add_duplex(r1, r3, 3, 1, slow);
    topo.add_duplex(r3, r4, 2, 2, slow);
    topo.add_duplex(r4, h5, 3, 1, fast);
  }
};

TEST(TopologyDb, BasicGraphOps) {
  TopologyDb topo;
  const auto a = topo.add_node(NodeType::kHost, "a");
  const auto b = topo.add_node(NodeType::kRouter, "b");
  TopoLink params;
  topo.add_duplex(a, b, 1, 4, params);
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.out_links(a).size(), 1u);
  EXPECT_EQ(topo.out_links(b).size(), 1u);
  ASSERT_NE(topo.find_link(a, b), nullptr);
  EXPECT_EQ(topo.find_link(a, b)->from_port, 1);
  EXPECT_EQ(topo.find_link(b, a)->from_port, 4);
  EXPECT_EQ(topo.find_link(b, 99u), nullptr);
  topo.set_link_up(a, b, false);
  EXPECT_FALSE(topo.find_link(a, b)->up);
  EXPECT_THROW((void)topo.node(5), std::out_of_range);
}

TEST(Routes, ShortestDelayPicksFastBranch) {
  DiamondTopo d;
  RouteQuery q;
  q.from = d.h0;
  q.to = d.h5;
  const auto routes = compute_routes(d.topo, q);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].hops, 3u);  // r1, r2, r4
  EXPECT_EQ(routes[0].propagation_delay, 4 * sim::kMicrosecond);
}

TEST(Routes, CostMetricPicksCheapBranch) {
  DiamondTopo d;
  RouteQuery q;
  q.from = d.h0;
  q.to = d.h5;
  q.metric = RouteMetric::kCost;
  const auto routes = compute_routes(d.topo, q);
  ASSERT_EQ(routes.size(), 1u);
  // Cheap branch: r1 -> r3 -> r4 (cost 0.1 links).
  EXPECT_EQ(routes[0].propagation_delay, 22 * sim::kMicrosecond);
}

TEST(Routes, YenFindsDisjointAlternative) {
  DiamondTopo d;
  RouteQuery q;
  q.from = d.h0;
  q.to = d.h5;
  q.count = 3;
  const auto routes = compute_routes(d.topo, q);
  ASSERT_GE(routes.size(), 2u);
  EXPECT_LT(routes[0].propagation_delay, routes[1].propagation_delay);
  EXPECT_NE(routes[0].link_indices, routes[1].link_indices);
}

TEST(Routes, DownLinksExcluded) {
  DiamondTopo d;
  d.topo.set_link_up(d.r1, d.r2, false);
  RouteQuery q;
  q.from = d.h0;
  q.to = d.h5;
  const auto routes = compute_routes(d.topo, q);
  ASSERT_EQ(routes.size(), 1u);
  // Forced onto the slow branch.
  EXPECT_EQ(routes[0].propagation_delay, 22 * sim::kMicrosecond);
}

TEST(Routes, SecurityConstraintFiltersLinks) {
  DiamondTopo d;
  // Mark the fast branch as insecure.
  d.topo.find_link(d.r1, d.r2)->security = 0;
  d.topo.find_link(d.r1, d.r3)->security = 5;
  d.topo.find_link(d.r3, d.r4)->security = 5;
  d.topo.find_link(d.h0, d.r1)->security = 5;
  d.topo.find_link(d.r4, d.h5)->security = 5;
  RouteQuery q;
  q.from = d.h0;
  q.to = d.h5;
  q.min_security = 5;
  const auto routes = compute_routes(d.topo, q);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].propagation_delay, 22 * sim::kMicrosecond);
  EXPECT_GE(routes[0].security_floor, 5);
}

TEST(Routes, BandwidthFloorFiltersLinks) {
  DiamondTopo d;
  d.topo.find_link(d.r1, d.r2)->bandwidth_bps = 1e6;
  RouteQuery q;
  q.from = d.h0;
  q.to = d.h5;
  q.min_bandwidth_bps = 1e8;
  const auto routes = compute_routes(d.topo, q);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].propagation_delay, 22 * sim::kMicrosecond);
}

TEST(Routes, UnreachableReturnsEmpty) {
  TopologyDb topo;
  const auto a = topo.add_node(NodeType::kHost, "a");
  const auto b = topo.add_node(NodeType::kHost, "b");
  RouteQuery q;
  q.from = a;
  q.to = b;
  EXPECT_TRUE(compute_routes(topo, q).empty());
}

TEST(Routes, MaterializeBuildsSegmentsFromPorts) {
  DiamondTopo d;
  RouteQuery q;
  q.from = d.h0;
  q.to = d.h5;
  const auto computed = compute_routes(d.topo, q);
  ASSERT_EQ(computed.size(), 1u);
  const IssuedRoute issued = materialize_route(d.topo, computed[0], 42);
  // 3 router segments + local segment.
  ASSERT_EQ(issued.route.segments.size(), 4u);
  EXPECT_EQ(issued.route.segments[0].port, 2);  // r1 toward r2
  EXPECT_EQ(issued.route.segments[1].port, 2);  // r2 toward r4
  EXPECT_EQ(issued.route.segments[2].port, 3);  // r4 toward h5
  EXPECT_EQ(issued.route.segments[3].port, core::kLocalPort);
  EXPECT_EQ(issued.router_ids,
            (std::vector<std::uint32_t>{d.r1, d.r2, d.r4}));
  EXPECT_EQ(issued.host_out_port, 1);
  const auto endpoint =
      viper::decode_endpoint_id(issued.route.segments[3].port_info);
  ASSERT_TRUE(endpoint.has_value());
  EXPECT_EQ(*endpoint, 42u);
}

TEST(DirectoryService, NamesRegionsAndQueries) {
  DiamondTopo d;
  Directory directory(d.topo);
  const auto edu = directory.add_region("edu");
  const auto stanford = directory.add_region("stanford.edu", edu);
  directory.register_name("h5.cs.stanford.edu", d.h5, stanford);
  directory.register_name("h0.cs.stanford.edu", d.h0, stanford);

  EXPECT_FALSE(directory.resolve("nope.example").has_value());
  EXPECT_EQ(directory.stats().resolve_failures, 1u);
  const auto node = directory.resolve("h5.cs.stanford.edu");
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(*node, d.h5);
  EXPECT_EQ(directory.stats().server_visits, 3u);  // root, edu, stanford

  QueryOptions options;
  options.constraints.count = 2;
  const auto routes = directory.query(d.h0, "h5.cs.stanford.edu", options);
  EXPECT_EQ(routes.size(), 2u);
  EXPECT_EQ(directory.stats().queries, 1u);
}

TEST(DirectoryService, TokensMintedPerHop) {
  DiamondTopo d;
  tokens::TokenAuthority authority(99);
  Directory directory(d.topo, &authority);
  directory.register_name("h5", d.h5, 0);
  const auto routes = directory.query(d.h0, "h5", {});
  ASSERT_EQ(routes.size(), 1u);
  const auto& segs = routes[0].route.segments;
  ASSERT_EQ(segs.size(), 4u);
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
    EXPECT_EQ(segs[i].token.size(), tokens::kTokenWireSize) << i;
    // And each verifies at its own router.
    const auto body = authority.open(routes[0].router_ids[i], segs[i].token);
    ASSERT_TRUE(body.has_value()) << i;
    EXPECT_EQ(body->port, segs[i].port);
  }
  EXPECT_TRUE(segs.back().token.empty());
  EXPECT_EQ(directory.stats().tokens_minted, 3u);
}

TEST(RouteCacheTest, CachesAndSwitchesOnFailure) {
  sim::Simulator sim;
  DiamondTopo d;
  Directory directory(d.topo);
  directory.register_name("h5", d.h5, 0);
  RouteCache cache(sim, directory, d.h0);

  const std::optional<IssuedRoute> first = cache.route_to("h5");
  ASSERT_TRUE(first.has_value());
  const sim::Time fast_delay = first->propagation_delay;
  EXPECT_EQ(cache.stats().queries, 1u);

  // Second lookup hits the cache.
  cache.route_to("h5");
  EXPECT_EQ(cache.stats().hits, 1u);

  // Failure switches to the cached alternate without a new query.
  cache.report_failure("h5");
  const std::optional<IssuedRoute> second = cache.route_to("h5");
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second->propagation_delay, fast_delay);
  EXPECT_EQ(cache.stats().switches, 1u);
  EXPECT_EQ(cache.stats().queries, 1u);
}

TEST(RouteCacheTest, WarmEntryServesRepeatedReadsWithoutRequery) {
  sim::Simulator sim;
  DiamondTopo d;
  Directory directory(d.topo);
  directory.register_name("h5", d.h5, 0);
  RouteCacheConfig config;
  config.ttl = 3'600 * sim::kSecond;  // stays warm for the whole test
  RouteCache cache(sim, directory, d.h0, config);
  ASSERT_TRUE(cache.route_to("h5").has_value());
  const sim::Time base = cache.base_rtt("h5");
  ASSERT_GT(base, 0);
  constexpr std::uint64_t kReads = 1'000;
  for (std::uint64_t i = 0; i < kReads; ++i) {
    EXPECT_TRUE(cache.route_to("h5").has_value());
    EXPECT_EQ(cache.base_rtt("h5"), base);
    cache.report_rtt("h5", base);  // at base: never degraded
  }
  EXPECT_EQ(cache.stats().queries, 1u);
  EXPECT_EQ(cache.stats().hits, kReads);
  EXPECT_EQ(cache.stats().switches, 0u);
}

TEST(RouteCacheTest, SustainedRttInflationSwitches) {
  sim::Simulator sim;
  DiamondTopo d;
  Directory directory(d.topo);
  directory.register_name("h5", d.h5, 0);
  RouteCacheConfig config;
  config.degraded_threshold = 3;
  config.rtt_degraded_factor = 3.0;
  RouteCache cache(sim, directory, d.h0, config);
  const std::optional<IssuedRoute> route = cache.route_to("h5");
  ASSERT_TRUE(route.has_value());
  const sim::Time base = cache.base_rtt("h5");
  EXPECT_EQ(base, 2 * route->propagation_delay);

  // Two degraded samples then a good one: no switch.
  cache.report_rtt("h5", base * 10);
  cache.report_rtt("h5", base * 10);
  cache.report_rtt("h5", base);
  EXPECT_EQ(cache.stats().switches, 0u);
  // Three in a row: switch.
  cache.report_rtt("h5", base * 10);
  cache.report_rtt("h5", base * 10);
  cache.report_rtt("h5", base * 10);
  EXPECT_EQ(cache.stats().switches, 1u);
}

TEST(RouteCacheTest, TtlExpiryRefreshes) {
  sim::Simulator sim;
  DiamondTopo d;
  Directory directory(d.topo);
  directory.register_name("h5", d.h5, 0);
  RouteCacheConfig config;
  config.ttl = sim::kMillisecond;
  RouteCache cache(sim, directory, d.h0, config);
  cache.route_to("h5");
  sim.run_until(2 * sim::kMillisecond);
  cache.route_to("h5");
  EXPECT_EQ(cache.stats().queries, 2u);
}

TEST(RouteCacheTest, ExhaustedAlternatesRefetch) {
  sim::Simulator sim;
  DiamondTopo d;
  Directory directory(d.topo);
  directory.register_name("h5", d.h5, 0);
  RouteCacheConfig config;
  config.routes_per_query = 2;
  RouteCache cache(sim, directory, d.h0, config);
  cache.route_to("h5");
  cache.report_failure("h5");  // to alternate
  cache.report_failure("h5");  // exhausted -> re-query
  EXPECT_EQ(cache.stats().refreshes, 1u);
  EXPECT_EQ(cache.stats().queries, 2u);
}

}  // namespace
}  // namespace srp::dir
