#include "directory/routes.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "viper/router.hpp"

namespace srp::dir {
namespace {

bool link_admissible(const TopoLink& link, const RouteQuery& query) {
  if (!link.up && !query.include_down_links) return false;
  if (link.security < query.min_security) return false;
  if (link.bandwidth_bps < query.min_bandwidth_bps) return false;
  return true;
}

double link_weight(const TopoLink& link, RouteMetric metric) {
  switch (metric) {
    case RouteMetric::kDelay:
      // Tiny per-hop epsilon prefers fewer hops among equal-delay paths.
      return sim::to_seconds(link.prop_delay) + 1e-9;
    case RouteMetric::kCost:
      return link.cost;
    case RouteMetric::kHops:
      return 1.0;
    case RouteMetric::kLoadAware:
      return (sim::to_seconds(link.prop_delay) + 1e-9) *
             (1.0 + 4.0 * std::clamp(link.load, 0.0, 1.0));
  }
  return 1.0;
}

/// Dijkstra from query.from to query.to over admissible links, optionally
/// excluding some link indices and some nodes (for Yen's spur paths).
std::optional<std::vector<std::size_t>> shortest_path(
    const TopologyDb& topo, const RouteQuery& query,
    const std::set<std::size_t>& banned_links,
    const std::set<std::uint32_t>& banned_nodes) {
  const std::size_t n = topo.node_count();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> via_link(n, SIZE_MAX);
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[query.from] = 0.0;
  heap.emplace(0.0, query.from);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == query.to) break;
    for (std::size_t li : topo.out_links(u)) {
      if (banned_links.contains(li)) continue;
      const TopoLink& link = topo.links()[li];
      if (banned_nodes.contains(link.to)) continue;
      if (!link_admissible(link, query)) continue;
      const double nd = d + link_weight(link, query.metric);
      if (nd < dist[link.to]) {
        dist[link.to] = nd;
        via_link[link.to] = li;
        heap.emplace(nd, link.to);
      }
    }
  }

  if (via_link[query.to] == SIZE_MAX) {
    return query.from == query.to ? std::optional<std::vector<std::size_t>>{
                                        std::vector<std::size_t>{}}
                                  : std::nullopt;
  }
  std::vector<std::size_t> path;
  for (std::uint32_t v = query.to; v != query.from;) {
    const std::size_t li = via_link[v];
    path.push_back(li);
    v = topo.links()[li].from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ComputedRoute summarize(const TopologyDb& topo,
                        std::vector<std::size_t> path) {
  ComputedRoute route;
  route.bottleneck_bps = std::numeric_limits<double>::infinity();
  route.mtu = std::numeric_limits<std::size_t>::max();
  for (std::size_t li : path) {
    const TopoLink& link = topo.links()[li];
    route.propagation_delay += link.prop_delay;
    route.bottleneck_bps = std::min(route.bottleneck_bps, link.bandwidth_bps);
    route.mtu = std::min(route.mtu, link.mtu);
    route.cost += link.cost;
    route.security_floor = std::min(route.security_floor, link.security);
  }
  route.hops = path.empty() ? 0 : path.size() - 1;  // routers traversed
  route.link_indices = std::move(path);
  return route;
}

}  // namespace

std::vector<ComputedRoute> compute_routes(const TopologyDb& topo,
                                          const RouteQuery& query) {
  std::vector<ComputedRoute> results;
  auto best = shortest_path(topo, query, {}, {});
  if (!best.has_value()) return results;
  results.push_back(summarize(topo, std::move(*best)));
  if (query.count <= 1) return results;

  // Yen's k-shortest paths.
  std::vector<std::vector<std::size_t>> candidates;
  while (results.size() < query.count) {
    const auto& prev = results.back().link_indices;
    for (std::size_t spur = 0; spur < prev.size(); ++spur) {
      const std::uint32_t spur_node =
          spur == 0 ? query.from : topo.links()[prev[spur - 1]].to;
      std::set<std::size_t> banned_links;
      for (const auto& r : results) {
        const auto& p = r.link_indices;
        if (p.size() > spur &&
            std::equal(p.begin(), p.begin() + static_cast<long>(spur),
                       prev.begin())) {
          banned_links.insert(p[spur]);
        }
      }
      std::set<std::uint32_t> banned_nodes;
      std::uint32_t node = query.from;
      for (std::size_t i = 0; i < spur; ++i) {
        banned_nodes.insert(node);
        node = topo.links()[prev[i]].to;
      }
      RouteQuery sub = query;
      sub.from = spur_node;
      const auto tail = shortest_path(topo, sub, banned_links, banned_nodes);
      if (!tail.has_value()) continue;
      std::vector<std::size_t> candidate(prev.begin(),
                                         prev.begin() +
                                             static_cast<long>(spur));
      candidate.insert(candidate.end(), tail->begin(), tail->end());
      if (std::find(candidates.begin(), candidates.end(), candidate) ==
          candidates.end()) {
        bool duplicate = false;
        for (const auto& r : results) {
          if (r.link_indices == candidate) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) candidates.push_back(std::move(candidate));
      }
    }
    if (candidates.empty()) break;
    // Pick the cheapest candidate.
    auto cheapest = candidates.begin();
    auto weight_of = [&](const std::vector<std::size_t>& p) {
      double w = 0.0;
      for (std::size_t li : p) {
        w += link_weight(topo.links()[li], query.metric);
      }
      return w;
    };
    for (auto it = std::next(candidates.begin()); it != candidates.end();
         ++it) {
      if (weight_of(*it) < weight_of(*cheapest)) cheapest = it;
    }
    results.push_back(summarize(topo, std::move(*cheapest)));
    candidates.erase(cheapest);
  }
  return results;
}

IssuedRoute materialize_route(const TopologyDb& topo,
                              const ComputedRoute& computed,
                              std::uint64_t dest_endpoint) {
  IssuedRoute issued;
  issued.propagation_delay = computed.propagation_delay;
  issued.bottleneck_bps = computed.bottleneck_bps;
  issued.mtu = computed.mtu;
  issued.cost = computed.cost;
  issued.security_floor = computed.security_floor;
  issued.hops = computed.hops;

  const auto& links = topo.links();
  for (std::size_t i = 0; i < computed.link_indices.size(); ++i) {
    const TopoLink& link = links[computed.link_indices[i]];
    if (i == 0) {
      issued.host_out_port = link.from_port;
      if (link.lan) {
        issued.first_hop_link = net::EthernetHeader{
            link.to_mac, link.from_mac, net::kEtherTypeSirpent};
      }
      continue;
    }
    issued.router_ids.push_back(link.from);
    core::HeaderSegment seg;
    seg.port = link.from_port;
    if (link.lan) {
      wire::Writer w(net::EthernetHeader::kWireSize);
      net::EthernetHeader{link.to_mac, link.from_mac,
                          net::kEtherTypeSirpent}
          .encode(w);
      seg.port_info = std::move(w).take();
    } else {
      seg.flags.vnt = true;
    }
    issued.route.segments.push_back(std::move(seg));
  }

  core::HeaderSegment local;
  local.port = core::kLocalPort;
  if (dest_endpoint != 0) {
    const auto id = viper::encode_endpoint_id(dest_endpoint);
    local.port_info.assign(id.begin(), id.end());
  } else {
    local.flags.vnt = true;
  }
  issued.route.segments.push_back(std::move(local));
  return issued;
}

}  // namespace srp::dir
