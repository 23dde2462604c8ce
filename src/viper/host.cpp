#include "viper/host.hpp"

#include <algorithm>
#include <array>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::viper {

ViperHost::ViperHost(sim::Simulator& sim, std::string name,
                     net::PacketFactory& packets)
    : net::PortedNode(sim, std::move(name), net::Hears::kLastBit), packets_(packets) {}

void ViperHost::set_port_kind(int port_index, PortKind kind) {
  if (port_index <= 0) throw std::out_of_range("bad port index");
  if (static_cast<std::size_t>(port_index) >= port_kinds_.size()) {
    port_kinds_.resize(static_cast<std::size_t>(port_index) + 1,
                       PortKind::kPointToPoint);
  }
  port_kinds_[static_cast<std::size_t>(port_index)] = kind;
}

PortKind ViperHost::port_kind(int port_index) const {
  if (port_index <= 0 ||
      static_cast<std::size_t>(port_index) >= port_kinds_.size()) {
    return PortKind::kPointToPoint;
  }
  return port_kinds_[static_cast<std::size_t>(port_index)];
}

void ViperHost::bind(std::uint64_t endpoint_id, Handler handler) {
  endpoints_[endpoint_id] = std::move(handler);
}

void ViperHost::unbind(std::uint64_t endpoint_id) {
  endpoints_.erase(endpoint_id);
}

void ViperHost::set_default_handler(Handler handler) {
  default_handler_ = std::move(handler);
}

void ViperHost::set_path_telemetry(obs::PathCollector* collector,
                                   std::uint64_t seed,
                                   std::uint32_t sample_period) {
  collector_ = collector;
  marker_.emplace(seed, name(), sample_period);
}

void ViperHost::set_observer(const obs::Observer& observer) {
  if (observer.registry != nullptr) {
    obs_e2e_latency_ = &observer.registry->histogram(
        "host." + stats::metric_component(name()) + ".e2e_latency_ps");
  } else {
    obs_e2e_latency_ = nullptr;
  }
  obs_recorder_ = observer.recorder;
  stamp_route_digest_ = observer.flow != nullptr;
  for (int p = 1; p <= port_count(); ++p) port(p).set_observer(observer);
}

SRP_HOT_PATH std::uint64_t ViperHost::send(
    const core::SourceRoute& route, std::span<const std::uint8_t> data,
    const SendOptions& options) {
  std::array<std::uint8_t, net::EthernetHeader::kWireSize> link{};
  std::span<const std::uint8_t> link_header;
  if (options.link.has_value()) {
    link = options.link->wire_bytes();
    link_header = link;
  }
  net::PacketPtr packet = packets_.make(
      encode_packet(route, data, link_header), sim_.now(), options.flow);
  const std::uint64_t id = packet->id;
  // Mint the trace context at the origin: the packet id is already unique
  // per simulation, so it doubles as the trace id.
  if (obs_recorder_ != nullptr) packet->trace_id = id;
  // Flow accounting on: stamp the whole-route identity at the origin (the
  // only place that still sees the full source route); it rides the
  // packet's measurement side-band, constant along the path.
  if (stamp_route_digest_) packet->route_digest = route_digest(route);
  // Telemetry mark: sampled by the marker when wired (always advanced, so
  // a forced mark never phase-shifts later samples), else forced-only.
  packet->telemetry = marker_.has_value() ? marker_->mark(options.telemetry)
                                          : options.telemetry;
  if (packet->telemetry) ++stats_.telemetry_marked;
  ++stats_.sent;
  core::TypeOfService tos = options.tos;
  port(options.out_port)
      .enqueue(std::move(packet),
               net::TxMeta{core::priority_rank(tos.priority),
                           core::priority_preempts(tos.priority),
                           tos.drop_if_blocked},
               0);
  return id;
}

std::uint64_t ViperHost::reply(const Delivery& delivery,
                               std::span<const std::uint8_t> data,
                               core::TypeOfService tos,
                               std::optional<std::uint64_t> endpoint) {
  // Rewritten in a host-owned route whose segments keep their capacity.
  reply_route_.segments = delivery.return_route.segments;
  for (auto& seg : reply_route_.segments) {
    seg.tos.priority = tos.priority;
    seg.tos.drop_if_blocked = tos.drop_if_blocked;
    seg.flags.dib = tos.drop_if_blocked;
  }
  if (endpoint.has_value() && !reply_route_.segments.empty()) {
    core::HeaderSegment& last = reply_route_.segments.back();
    const auto id = encode_endpoint_id(*endpoint);
    last.port_info.assign(id.begin(), id.end());
    last.flags.vnt = false;
  }
  SendOptions options;
  options.tos = tos;
  options.flow = delivery.flow;
  options.out_port = delivery.in_port;
  options.link = delivery.reply_link;
  return send(reply_route_, data, options);
}

namespace {

/// Copies one trailer entry into a return-route slot, reusing the slot's
/// field capacity.  RPF marks the hop as part of a returning packet.
void assign_return_hop(core::HeaderSegment& hop, const SegmentView& entry) {
  hop.port = entry.port;
  hop.tos = entry.tos;
  hop.flags = entry.flags;
  hop.flags.rpf = true;
  hop.token.assign(entry.token.begin(), entry.token.end());
  hop.port_info.assign(entry.port_info.begin(), entry.port_info.end());
}

/// What parse_delivery() made of an arrival's bytes.
struct ParsedArrival {
  enum class Verdict : std::uint8_t {
    kAccepted,   ///< parsed; the Delivery is filled
    kMisrouted,  ///< the first segment is not a legal local segment
    kMalformed,  ///< the bytes do not parse
  };
  Verdict verdict = Verdict::kMalformed;
  /// Endpoint id of the local segment (kAccepted only).
  std::optional<std::uint64_t> endpoint;
  /// Telemetry records whose payload did not decode (kAccepted only).
  std::size_t telemetry_decode_errors = 0;
};

/// The host receive parser, the one path every arrival takes.  Parses the
/// wire image in place — the link header when @p lan_framed, the local
/// segment, DataLen, data and trailer, all with decode_segment_view — and
/// on acceptance fills @p out's `data`, `return_route` (trailer entries
/// reversed ahead of an RPF local segment), `reply_link`, `truncated`
/// (trailer marks only) and `path`, reusing their capacity.  A cut packet
/// keeps the data that arrived, less a trailing truncation mark if one
/// survived.  It accepts and rejects exactly what the copying reference
/// (decode_segment, decode_delivered_body, core::classify_trailer,
/// core::build_return_route) does, with the same results
/// (FuzzCodec.HostReceiveMatchesReference).  Other fields of @p out are
/// left alone; after a rejection @p out holds garbage.
SRP_HOT_PATH ParsedArrival parse_delivery(std::span<const std::uint8_t> bytes,
                                          bool lan_framed, Delivery& out) {
  ParsedArrival result;
  std::size_t entries = 0;
  bool marked_truncated = false;
  std::vector<core::HeaderSegment>& route = out.return_route.segments;
  std::span<const std::uint8_t> trailer;
  out.path.clear();
  // Files one trailer segment: a telemetry record joins the path, a
  // truncation mark sets the flag, anything else is a return-route entry
  // (in append order until the reversal below).
  const auto classify = [&](const SegmentView& seg) {
    if (seg.is_telemetry_record()) {
      // A telemetry record shares the TRM bit (it must never be routable)
      // but does NOT mean the packet was truncated.
      const auto hop = obs::decode_hop_telemetry(seg.port_info);
      if (hop.has_value()) {
        SRP_ALLOC_OK(out.path.push_back(*hop));
      } else {
        ++result.telemetry_decode_errors;
      }
    } else if (seg.flags.trm) {
      marked_truncated = true;
    } else {
      if (entries == route.size()) {
        // SRP_ALLOC_OK(a return route longer than any before it)
        route.emplace_back();
      }
      assign_return_hop(route[entries++], seg);
    }
  };
  try {
    std::size_t offset = 0;
    out.reply_link.reset();
    if (lan_framed) {
      wire::Reader r(bytes);
      out.reply_link = net::EthernetHeader::decode(r).reversed();
      offset = r.position();
    }
    const SegmentView local = decode_segment_view(bytes, offset);
    if (local.port != core::kLocalPort || !local.is_legal()) {
      result.verdict = ParsedArrival::Verdict::kMisrouted;
      return result;
    }
    result.endpoint = decode_endpoint_id(local.port_info);
    offset += local.wire_size;

    const DeliveredView body = split_delivered_body(bytes.subspan(offset));
    trailer = body.trailer;
    std::size_t at = 0;
    while (at < trailer.size()) {
      const SegmentView seg = decode_segment_view(trailer, at);
      at += seg.wire_size;
      classify(seg);
    }
    SIRPENT_INVARIANT(at == trailer.size());
    // SRP_ALLOC_OK(into the delivery's capacity, warm after the largest
    // packet so far)
    out.data.assign(body.data.begin(), body.data.end());
  } catch (const wire::CodecError&) {
    result.verdict = ParsedArrival::Verdict::kMalformed;
    return result;
  }

  // The return route: the last router's entry becomes the first return
  // hop, and a local segment marked RPF ends it at the origin host.
  // Shrinking drops only slots a longer earlier route left behind.
  SRP_ALLOC_OK(route.resize(entries + 1));
  std::reverse(route.begin(), route.begin() + static_cast<std::ptrdiff_t>(
                                                  entries));
  core::HeaderSegment& local = route[entries];
  local.port = core::kLocalPort;
  local.tos = {};
  local.flags = {};
  local.flags.vnt = true;
  local.flags.rpf = true;
  local.token.clear();
  local.port_info.clear();
  // Reversal round trip: hop i of the return route is trailer entry n-1-i
  // with RPF set and everything else (port, token, port_info) verbatim —
  // the paper's "entirely network-independent" reversal.
  SIRPENT_ENSURES([&] {
    std::size_t k = 0;
    for (std::size_t at = 0; at < trailer.size();) {
      const SegmentView seg = decode_segment_view(trailer, at);
      at += seg.wire_size;
      if (seg.flags.trm) continue;
      if (k == entries) return false;
      const core::HeaderSegment& hop = route[entries - 1 - k++];
      core::SegmentFlags flags = seg.flags;
      flags.rpf = true;
      if (hop.port != seg.port || hop.tos != seg.tos || hop.flags != flags ||
          !std::ranges::equal(hop.token, seg.token) ||
          !std::ranges::equal(hop.port_info, seg.port_info)) {
        return false;
      }
    }
    return k == entries && route[entries].port == core::kLocalPort &&
           route[entries].flags.rpf;
  }());
  out.truncated = marked_truncated;
  // Hop order — not trailer position — orders the path.
  std::sort(out.path.begin(), out.path.end(),
            [](const obs::HopTelemetry& a, const obs::HopTelemetry& b) {
              return a.hop < b.hop;
            });
  result.verdict = ParsedArrival::Verdict::kAccepted;
  return result;
}

}  // namespace

SRP_SIM_VISIBLE void ViperHost::on_arrival(const net::Arrival& arrival) {
  const net::Packet& packet = *arrival.packet;
  const ParsedArrival parsed = parse_delivery(
      packet.bytes, port_kind(arrival.in_port) == PortKind::kLan, delivery_);
  switch (parsed.verdict) {
    case ParsedArrival::Verdict::kAccepted:
      break;
    case ParsedArrival::Verdict::kMisrouted:
      ++stats_.misrouted;
      return;
    case ParsedArrival::Verdict::kMalformed:
      ++stats_.dropped_malformed;
      // A marked packet too damaged to parse still carries its postcard:
      // the last telemetry record names where it was last intact.
      if (packet.telemetry && collector_ != nullptr) {
        collector_->on_malformed_arrival(packet.bytes);
      }
      return;
  }
  const std::optional<std::uint64_t>& endpoint = parsed.endpoint;

  if (endpoint.has_value() && *endpoint == kControlEndpoint) {
    ++stats_.control_received;
    if (control_handler_) control_handler_(delivery_.data, arrival.in_port);
    return;
  }

  Delivery& delivery = delivery_;
  // A reply along this route must terminate at the origin host's local
  // port, marked RPF so routers honour reverse-charged tokens.
  SIRPENT_ENSURES(!delivery.return_route.empty() &&
                  delivery.return_route.segments.back().port ==
                      core::kLocalPort);
  delivery.truncated = delivery.truncated || packet.effectively_truncated();
  delivery.endpoint = endpoint.value_or(0);
  delivery.packet_id = packet.id;
  delivery.flow = packet.flow;
  delivery.hops = packet.hops;
  delivery.sent_at = packet.created;
  delivery.delivered_at = sim_.now();
  delivery.in_port = arrival.in_port;

  ++stats_.delivered;
  if (delivery.truncated) ++stats_.truncated_received;

  if (obs_e2e_latency_ != nullptr) {
    obs_e2e_latency_->record(
        static_cast<std::uint64_t>(delivery.delivered_at - delivery.sent_at));
  }
  if (obs_recorder_ != nullptr && packet.trace_id != 0) {
    obs::SpanRecord span;
    span.trace_id = packet.trace_id;
    span.hop = packet.hops;
    span.kind = obs::SpanKind::kDeliver;
    span.in_port = static_cast<std::uint16_t>(arrival.in_port);
    span.start = delivery.sent_at;
    span.decision = arrival.head;
    span.end = delivery.delivered_at;
    span.set_component(name());
    obs_recorder_->record(span);
  }
  if (packet.telemetry && collector_ != nullptr) {
    obs::DeliveredTelemetry meta;
    meta.trace_id = packet.trace_id;
    meta.packet_id = packet.id;
    meta.sent_at = delivery.sent_at;
    meta.delivered_at = delivery.delivered_at;
    meta.truncated = delivery.truncated;
    collector_->on_delivery(meta, delivery.path,
                            parsed.telemetry_decode_errors);
  }

  if (endpoint.has_value()) {
    const auto it = endpoints_.find(*endpoint);
    if (it != endpoints_.end()) {
      it->second(delivery);
      return;
    }
    ++stats_.unknown_endpoint;
  }
  if (default_handler_) {
    default_handler_(delivery);
  }
}

}  // namespace srp::viper
