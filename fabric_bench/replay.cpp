#include "replay.hpp"

#include <algorithm>
#include <vector>

#include "flow/plane.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "stats/registry.hpp"
#include "tokens/cache.hpp"
#include "trace.hpp"
#include "transport/header.hpp"
#include "viper/codec.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"
#include "wire/checksum.hpp"
#include "wire/crc32.hpp"

namespace fabric_bench {
namespace {

using namespace srp;

constexpr int kReps = 7;

std::uint64_t g_sink = 0;  // keeps replayed results observable

/// Median over kReps repetitions of the mean wall time of one call of
/// @p op(i), i in [0, n).
template <class Op>
double ns_per_op(std::size_t n, Op&& op) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < n; ++i) op(i);
    reps.push_back(static_cast<double>(wall_ns() - t0) /
                   static_cast<double>(n));
  }
  std::nth_element(reps.begin(), reps.begin() + kReps / 2, reps.end());
  return reps[kReps / 2];
}

/// Parks @p depth events far in the future, so events run by a replay
/// pay the heap depth the workload's simulator had.
void prefill(sim::Simulator& s, std::uint64_t depth) {
  for (std::uint64_t d = 0; d < depth; ++d) {
    s.at(sim::kSecond * 1'000'000, [] {});
  }
}

class CountingSink final : public net::Node {
 public:
  CountingSink() : net::Node("replay.sink") {}
  void on_arrival(const net::Arrival&) override { ++arrivals; }
  std::uint64_t arrivals = 0;
};

net::Arrival arrival_of(const CapturedPacket& c, sim::Time now,
                        const net::LinkConfig& link, int in_port) {
  net::Arrival a;
  a.packet = c.packet;
  a.in_port = in_port;
  a.head = now;
  a.tail = now + sim::byte_time(c.packet->size(), link.rate_bps);
  a.rate_bps = link.rate_bps;
  return a;
}

double schedule_pop(std::uint64_t depth) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<sim::Time>(lcg >> 44);  // up to ~1 us of spread
  };
  for (std::uint64_t d = 0; d < std::max<std::uint64_t>(depth, 1); ++d) {
    q.schedule(next(), [&fired] { ++fired; });
  }
  const double ns = ns_per_op(50'000, [&](std::size_t) {
    auto [when, cb] = q.pop();
    cb();
    q.schedule(when + 1 + next(), [&fired] { ++fired; });
  });
  g_sink += fired;
  return ns;
}

/// A standalone router configured like hop @p hop of the workload, with
/// every egress port down so forwarded packets stop at the port.
struct StandaloneRouter {
  StandaloneRouter(const ReplayInputs& in, std::size_t hop, bool observed)
      : router(sim, name(hop), config(in, hop)) {
    int needed = 1;
    for (const auto& c : in.images[hop]) needed = std::max(needed, c.in_port);
    needed = std::max<int>(needed, in.route.route.segments[hop].port);
    while (router.port_count() < needed) router.add_port(in.link);
    for (int p = 1; p <= router.port_count(); ++p) router.port(p).set_up(false);
    if (in.tokens) router.set_token_authority(&*in.authority, &ledger);
    if (observed) {
      plane = std::make_unique<flow::FlowPlane>(flow::FlowConfig{}, &registry,
                                                &recorder);
      router.set_observer({&registry, &recorder, plane.get()});
      router.set_path_telemetry(true);
    }
  }

  static std::string name(std::size_t hop) {
    std::string n = "r";
    n += std::to_string(hop + 1);
    return n;
  }

  static viper::RouterConfig config(const ReplayInputs& in, std::size_t hop) {
    viper::RouterConfig c;
    c.router_id = in.route.router_ids.at(hop);
    c.require_tokens = in.tokens;
    return c;
  }

  /// Mean ns per arrival over the hop's images, token cache warm.
  double time(const std::vector<CapturedPacket>& images,
              const net::LinkConfig& link) {
    auto feed = [&](std::size_t i) {
      const CapturedPacket& c = images[i % images.size()];
      router.on_arrival(arrival_of(c, sim.now(), link, c.in_port));
    };
    for (std::size_t i = 0; i < images.size(); ++i) feed(i);
    sim.run();  // settle optimistic token verifications
    const double ns = ns_per_op(4 * images.size(), feed);
    sim.run();
    return ns;
  }

  sim::Simulator sim;
  tokens::Ledger ledger;
  stats::Registry registry;
  obs::FlightRecorder recorder;
  std::unique_ptr<flow::FlowPlane> plane;
  viper::ViperRouter router;
};

/// Transport packets of one operation: the request split into
/// max_data_per_packet parts, then the response.
std::vector<std::pair<vmtp::Header, wire::Bytes>> transport_packets(
    const ReplayInputs& in) {
  std::vector<std::pair<vmtp::Header, wire::Bytes>> out;
  const std::size_t parts =
      (in.request_bytes + in.max_data_per_packet - 1) / in.max_data_per_packet;
  for (std::size_t i = 0; i < parts; ++i) {
    vmtp::Header h;
    h.src_entity = 0xC0;
    h.dst_entity = 0x5E;
    h.transaction = 1;
    h.type = vmtp::PacketType::kRequest;
    h.group_size = static_cast<std::uint8_t>(parts);
    h.index = static_cast<std::uint8_t>(i);
    const std::size_t size = std::min(in.max_data_per_packet,
                                      in.request_bytes - i * in.max_data_per_packet);
    out.emplace_back(h, wire::Bytes(size, static_cast<std::uint8_t>(i)));
  }
  vmtp::Header r;
  r.src_entity = 0x5E;
  r.dst_entity = 0xC0;
  r.transaction = 1;
  r.type = vmtp::PacketType::kResponse;
  out.emplace_back(r, wire::Bytes(in.response_bytes, 0x5A));
  return out;
}

}  // namespace

LayerCosts fastest(const std::vector<LayerCosts>& passes) {
  static constexpr double LayerCosts::*kFields[] = {
      &LayerCosts::schedule_pop_ns,     &LayerCosts::port_tx_ns,
      &LayerCosts::port_events_per_tx,  &LayerCosts::host_send_ns,
      &LayerCosts::host_receive_ns,     &LayerCosts::encode_ns,
      &LayerCosts::decode_view_ns,      &LayerCosts::trailer_reverse_ns,
      &LayerCosts::router_engine_ns,    &LayerCosts::router_observed_ns,
      &LayerCosts::token_lookup_ns,     &LayerCosts::token_charge_ns,
      &LayerCosts::token_open_ns,       &LayerCosts::transport_encode_ns,
      &LayerCosts::transport_decode_ns, &LayerCosts::checksum_ns_per_kb,
      &LayerCosts::crc32_ns_per_kb};
  LayerCosts best = passes.front();
  for (const LayerCosts& p : passes) {
    for (const auto field : kFields) best.*field = std::min(best.*field, p.*field);
  }
  return best;
}

LayerCosts replay_layers(const ReplayInputs& in, std::uint64_t pending_depth) {
  LayerCosts c;
  const bool transport = in.max_data_per_packet > 0;
  const CapturedPacket& first = in.images.front().front();
  const std::size_t wire_size = first.packet->size();

  // --- sim ---
  c.schedule_pop_ns = schedule_pop(pending_depth);

  // --- net: one standalone TxPort, enqueue through delivery, run with the
  // workload's event-heap depth so its events cost what schedule_pop_ns
  // says they cost ---
  {
    sim::Simulator s;
    prefill(s, pending_depth);
    CountingSink sink;
    net::TxPort port(s, "replay:p1", in.link);
    port.connect(&sink, 1);
    const sim::Time horizon = sim::byte_time(wire_size, in.link.rate_bps) +
                              in.link.prop_delay + sim::kMicrosecond;
    std::uint64_t events = 0;
    std::uint64_t txs = 0;
    c.port_tx_ns = ns_per_op(20'000, [&](std::size_t) {
      port.enqueue(first.packet, net::TxMeta{});
      events += s.run_until(s.now() + horizon);
      ++txs;
    });
    c.port_events_per_tx =
        static_cast<double>(events) / static_cast<double>(txs);
  }

  // --- viper: host send / receive, codec, router engine ---
  const std::size_t send_bytes =
      transport ? vmtp::Header::kWireSize +
                      std::min(in.request_bytes, in.max_data_per_packet)
                : in.request_bytes;
  const wire::Bytes payload(send_bytes, 0xA5);
  {
    sim::Simulator s;
    net::PacketFactory factory;
    viper::ViperHost host(s, "replay.src", factory);
    viper::SendOptions options;
    options.out_port = host.add_port(in.link);
    host.port(options.out_port).set_up(false);
    c.host_send_ns = ns_per_op(20'000, [&](std::size_t) {
      host.send(in.route.route, payload, options);
    });
  }
  {
    sim::Simulator s;
    prefill(s, pending_depth);
    net::PacketFactory factory;
    viper::ViperHost host(s, "replay.dst", factory);
    host.add_port(in.link);
    std::uint64_t delivered = 0;
    host.set_default_handler([&delivered](const viper::Delivery&) { ++delivered; });
    const auto& images = in.images.back();
    std::uint64_t events = 0;
    const double raw = ns_per_op(4 * images.size(), [&](std::size_t i) {
      const net::Arrival a = arrival_of(images[i % images.size()], s.now(), in.link, 1);
      host.on_arrival(a);
      events += s.run_until(a.tail);
    });
    const double events_per_op =
        static_cast<double>(events) / (kReps * 4.0 * images.size());
    c.host_receive_ns = raw - events_per_op * c.schedule_pop_ns;
    g_sink += delivered;
  }
  c.encode_ns = ns_per_op(20'000, [&](std::size_t) {
    g_sink += viper::encode_packet(in.route.route, payload).size();
  });
  {
    const std::span<const std::uint8_t> bytes(first.packet->bytes);
    const std::size_t segments = in.route.route.segments.size();
    c.decode_view_ns =
        ns_per_op(5'000, [&](std::size_t) {
          std::size_t offset = 0;
          for (std::size_t k = 0; k < segments; ++k) {
            offset += viper::decode_segment_view(bytes, offset).wire_size;
          }
          g_sink += offset;
        }) /
        static_cast<double>(segments);
  }
  {
    // Sink image: [local segment][DataLen][Data][trailer].
    const wire::Bytes& image = in.images.back().front().packet->bytes;
    std::size_t offset = viper::decode_segment_view(image, 0).wire_size;
    const std::size_t data_len =
        (static_cast<std::size_t>(image[offset]) << 8) | image[offset + 1];
    offset += 2 + data_len;
    wire::Bytes trailer(image.begin() + static_cast<std::ptrdiff_t>(offset),
                        image.end());
    c.trailer_reverse_ns = ns_per_op(20'000, [&](std::size_t) {
      g_sink += viper::reverse_trailer_in_place(trailer) ? 1 : 0;
    });
  }
  {
    // Router engine per hop, averaged over the path's routers.
    double total = 0;
    double observed = 0;
    const std::size_t routers = in.images.size() - 1;
    for (std::size_t hop = 0; hop < routers; ++hop) {
      StandaloneRouter r(in, hop, false);
      total += r.time(in.images[hop], in.link);
      if (in.observed) {
        StandaloneRouter o(in, hop, true);
        observed += o.time(in.images[hop], in.link);
      }
    }
    c.router_engine_ns = total / static_cast<double>(routers);
    c.router_observed_ns = observed / static_cast<double>(routers);
  }

  // --- tokens: the route's own tokens, as the routers hold them ---
  if (in.tokens && in.authority.has_value()) {
    std::vector<wire::Bytes> toks;
    tokens::TokenCache cache;
    tokens::Ledger ledger;
    for (std::size_t k = 0; k < in.route.router_ids.size(); ++k) {
      const wire::Bytes& t = in.route.route.segments[k].token;
      toks.push_back(t);
      cache.store(t, in.authority->open(in.route.router_ids[k], t));
    }
    c.token_lookup_ns = ns_per_op(20'000, [&](std::size_t i) {
      g_sink += cache.lookup(toks[i % toks.size()]).has_value() ? 1 : 0;
    });
    c.token_charge_ns = ns_per_op(20'000, [&](std::size_t i) {
      g_sink += static_cast<std::uint64_t>(
          cache.charge(toks[i % toks.size()], send_bytes, ledger));
    });
    c.token_open_ns = ns_per_op(2'000, [&](std::size_t i) {
      const std::size_t k = i % toks.size();
      g_sink += in.authority->open(in.route.router_ids[k], toks[k]).has_value() ? 1 : 0;
    });
  }

  // --- transport codec over one operation's packets ---
  if (transport) {
    const auto packets = transport_packets(in);
    std::vector<wire::Bytes> encoded;
    for (const auto& [h, p] : packets) {
      encoded.push_back(vmtp::encode_transport_packet(h, p));
    }
    c.transport_encode_ns = ns_per_op(4'000, [&](std::size_t i) {
      const auto& [h, p] = packets[i % packets.size()];
      g_sink += vmtp::encode_transport_packet(h, p).size();
    });
    c.transport_decode_ns = ns_per_op(4'000, [&](std::size_t i) {
      g_sink += vmtp::decode_transport_packet(encoded[i % encoded.size()])
                    .has_value()
                    ? 1
                    : 0;
    });
  }

  // --- wire: the two integrity checks at the workload's packet size ---
  {
    const std::span<const std::uint8_t> bytes(first.packet->bytes);
    const double kb = static_cast<double>(wire_size) / 1024.0;
    c.checksum_ns_per_kb = ns_per_op(20'000, [&](std::size_t) {
                             g_sink += wire::internet_checksum(bytes);
                           }) /
                           kb;
    c.crc32_ns_per_kb = ns_per_op(2'000, [&](std::size_t) {
                          g_sink += wire::crc32(bytes);
                        }) /
                        kb;
  }
  return c;
}

}  // namespace fabric_bench
