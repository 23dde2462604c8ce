// Deterministic fuzz / robustness driver for the VIPER codec.
//
// Sirpent carries no internetwork checksum: "error detection and correction
// is implemented end-to-end" and routers forward whatever arrives.  The
// implementation therefore silently depends on a property the paper never
// states: *arbitrary* bytes presented to the decoder must never trigger
// undefined behaviour — only a parse or a clean wire::CodecError.  This
// driver proves that property mechanically.  Run it under
// -DSIRPENT_SANITIZE="address;undefined" and any OOB read, overflow or UB
// in the decode→encode path fails the test run.
//
// Everything is seeded: a failure reproduces from the iteration number
// alone.  Four campaigns:
//   1. structured-random packets  — valid routes/data, full round trip
//   2. mutation fuzz             — valid packets damaged in targeted ways
//   3. byte-soup fuzz            — unstructured random streams
//   4. host receive parity       — delivered images (trailers with marks
//      and telemetry, LAN framing, cut data), intact and damaged, through
//      ViperHost against the copying reference decoders
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "core/trailer.hpp"
#include "net/ethernet.hpp"
#include "obs/telemetry.hpp"
#include "sim/random.hpp"
#include "viper/codec.hpp"
#include "viper/host.hpp"

namespace srp::viper {
namespace {

wire::Bytes random_bytes(sim::Rng& rng, std::size_t len) {
  wire::Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

core::HeaderSegment random_segment(sim::Rng& rng, bool allow_huge_fields) {
  core::HeaderSegment seg;
  seg.port = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  seg.tos.priority = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  seg.flags.dib = rng.chance(0.25);
  seg.flags.rpf = rng.chance(0.25);
  seg.tos.drop_if_blocked = seg.flags.dib;
  const std::size_t max_field = allow_huge_fields ? 600 : 64;
  seg.token = random_bytes(rng, rng.uniform_int(0, max_field));
  if (rng.chance(0.4)) {
    seg.flags.vnt = true;  // point-to-point hop: portInfo void
  } else {
    seg.port_info = random_bytes(rng, rng.uniform_int(0, max_field));
  }
  return seg;
}

core::SourceRoute random_route(sim::Rng& rng) {
  core::SourceRoute route;
  const std::size_t hops = rng.uniform_int(1, 6);
  for (std::size_t i = 0; i + 1 < hops; ++i) {
    route.segments.push_back(random_segment(rng, rng.chance(0.1)));
  }
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  if (rng.chance(0.5)) {
    local.port_info = random_bytes(rng, 8);
  } else {
    local.flags.vnt = true;
  }
  route.segments.push_back(local);
  return route;
}

/// Runs the complete receive pipeline an end host would run over @p bytes:
/// peel header segments, then parse the delivered body and classify its
/// trailer.  Returns normally or throws wire::CodecError — anything else
/// (or a sanitizer report) is a failed property.
void drive_receive_pipeline(const wire::Bytes& bytes) {
  wire::Reader r(bytes);
  // Peel at most a route's worth of segments, as routers would hop by hop.
  for (std::size_t hop = 0; hop <= core::kMaxSegments && !r.done(); ++hop) {
    const std::size_t before = r.position();
    core::HeaderSegment seg = decode_segment(r);
    ASSERT_GT(r.position(), before);
    if (seg.port == core::kLocalPort) {
      DeliveredBody body = decode_delivered_body(r);
      core::TrailerInfo info = core::classify_trailer(std::move(body.trailer));
      if (!info.entries.empty() || !info.truncated) {
        (void)core::build_return_route(info.entries);
      }
      return;
    }
  }
}

/// Walks @p bytes segment by segment with both decoders — the copying
/// decode_segment and the router's decode_segment_view — and requires
/// them to agree on accept/reject, every field and the consumed size.
void expect_decoders_agree(const wire::Bytes& bytes) {
  wire::Reader r(bytes);
  while (!r.done()) {
    const std::size_t offset = r.position();
    std::optional<core::HeaderSegment> seg;
    std::optional<SegmentView> view;
    try {
      seg = decode_segment(r);
    } catch (const wire::CodecError&) {
    }
    try {
      view = decode_segment_view(bytes, offset);
    } catch (const wire::CodecError&) {
    }
    ASSERT_EQ(seg.has_value(), view.has_value()) << "offset " << offset;
    if (!seg) return;
    EXPECT_EQ(seg->port, view->port);
    EXPECT_EQ(seg->tos, view->tos);
    EXPECT_EQ(seg->flags, view->flags);
    EXPECT_TRUE(std::ranges::equal(seg->token, view->token));
    EXPECT_TRUE(std::ranges::equal(seg->port_info, view->port_info));
    ASSERT_EQ(r.position() - offset, view->wire_size);
  }
}

/// What the copying reference pipeline makes of a wire image arriving at
/// a host: decode_segment for the local segment, decode_delivered_body,
/// core::classify_trailer and core::build_return_route.
struct ReferenceReceive {
  enum class Verdict { kAccepted, kMisrouted, kMalformed };
  Verdict verdict = Verdict::kMalformed;
  Delivery delivery;  ///< data, return_route, reply_link, truncated, path
  std::optional<std::uint64_t> endpoint;
  std::uint64_t telemetry_decode_errors = 0;
};

ReferenceReceive reference_receive(const wire::Bytes& bytes, bool lan) {
  ReferenceReceive out;
  std::optional<net::EthernetHeader> link;
  core::HeaderSegment local;
  DeliveredBody body;
  try {
    wire::Reader r(bytes);
    if (lan) link = net::EthernetHeader::decode(r);
    local = decode_segment(r);
    if (local.port != core::kLocalPort || !local.is_legal()) {
      out.verdict = ReferenceReceive::Verdict::kMisrouted;
      return out;
    }
    body = decode_delivered_body(r);
  } catch (const wire::CodecError&) {
    return out;
  }
  out.verdict = ReferenceReceive::Verdict::kAccepted;
  out.endpoint = decode_endpoint_id(local.port_info);
  const core::TrailerInfo trailer =
      core::classify_trailer(std::move(body.trailer));
  Delivery& d = out.delivery;
  d.data = std::move(body.data);
  for (const core::HeaderSegment& rec : trailer.telemetry) {
    const auto hop = obs::decode_hop_telemetry(rec.port_info);
    if (hop.has_value()) {
      d.path.push_back(*hop);
    } else {
      ++out.telemetry_decode_errors;
    }
  }
  std::sort(d.path.begin(), d.path.end(),
            [](const obs::HopTelemetry& a, const obs::HopTelemetry& b) {
              return a.hop < b.hop;
            });
  d.return_route = core::build_return_route(trailer.entries);
  if (link.has_value()) d.reply_link = link->reversed();
  d.truncated = trailer.truncated;
  return out;
}

/// A host with a point-to-point port (1) and a LAN port (2) fed raw
/// arrivals; it keeps a copy of the last delivery its handler saw.  Every
/// arrival carries the telemetry mark so a collector counts undecodable
/// records.
struct ReceiveHarness {
  sim::Simulator sim;
  net::PacketFactory packets;
  obs::PathCollector collector{nullptr, nullptr};
  ViperHost host{sim, "h.fuzz", packets};
  std::optional<Delivery> got;

  ReceiveHarness() {
    host.add_port(net::LinkConfig{});
    host.add_port(net::LinkConfig{});
    host.set_port_kind(2, PortKind::kLan);
    host.set_path_telemetry(&collector, 1, 0);
    host.set_default_handler([this](const Delivery& d) { got = d; });
  }

  void receive(const wire::Bytes& bytes, bool lan) {
    net::Arrival arrival;
    arrival.packet = packets.make(bytes, sim.now());
    arrival.packet->telemetry = true;
    arrival.in_port = lan ? 2 : 1;
    arrival.head = sim.now();
    arrival.tail = sim.now() + 1;
    got.reset();
    host.on_arrival(arrival);
    sim.run();
  }
};

/// Feeds @p bytes to the harness host and requires the outcome to match
/// the reference pipeline: the same accept/reject verdict, and on
/// acceptance the same data, return route, reply link, truncation flag,
/// endpoint and telemetry path.  Returns the verdict.
ReferenceReceive::Verdict expect_receive_matches_reference(
    ReceiveHarness& h, const wire::Bytes& bytes, bool lan) {
  const ReferenceReceive want = reference_receive(bytes, lan);
  const ViperHost::Stats before = h.host.stats();
  const std::uint64_t errors_before = h.collector.totals().decode_errors;
  h.receive(bytes, lan);
  const ViperHost::Stats& after = h.host.stats();
  switch (want.verdict) {
    case ReferenceReceive::Verdict::kMalformed:
      EXPECT_EQ(after.dropped_malformed, before.dropped_malformed + 1);
      EXPECT_FALSE(h.got.has_value());
      return want.verdict;
    case ReferenceReceive::Verdict::kMisrouted:
      EXPECT_EQ(after.misrouted, before.misrouted + 1);
      EXPECT_FALSE(h.got.has_value());
      return want.verdict;
    case ReferenceReceive::Verdict::kAccepted:
      break;
  }
  if (want.endpoint == kControlEndpoint) {
    EXPECT_EQ(after.control_received, before.control_received + 1);
    return want.verdict;
  }
  EXPECT_EQ(after.delivered, before.delivered + 1);
  if (!h.got.has_value()) {
    ADD_FAILURE() << "the reference accepts, the host delivered nothing";
    return want.verdict;
  }
  const Delivery& got = *h.got;
  EXPECT_EQ(got.data, want.delivery.data);
  EXPECT_EQ(got.return_route, want.delivery.return_route);
  EXPECT_EQ(got.reply_link, want.delivery.reply_link);
  EXPECT_EQ(got.truncated, want.delivery.truncated);
  EXPECT_EQ(got.endpoint, want.endpoint.value_or(0));
  EXPECT_EQ(got.path, want.delivery.path);
  EXPECT_EQ(h.collector.totals().decode_errors - errors_before,
            want.telemetry_decode_errors);
  return want.verdict;
}

/// A trailer record as routers append it: a return entry (a random legal
/// segment), a truncation mark, or an in-band telemetry record — mostly
/// well formed, sometimes with a payload that does not decode.
core::HeaderSegment random_trailer_record(sim::Rng& rng) {
  switch (rng.uniform_int(0, 9)) {
    case 0:
    case 1:
      return core::HeaderSegment::truncation_marker();
    case 2:
    case 3: {
      core::HeaderSegment rec;
      rec.port = core::kTelemetryPort;
      rec.flags.trm = true;
      if (rng.chance(0.2)) {
        rec.port_info = random_bytes(rng, rng.uniform_int(0, 40));
        return rec;
      }
      obs::HopTelemetry hop;
      hop.router_id = static_cast<std::uint32_t>(rng.uniform_int(1, 1000));
      hop.hop = static_cast<std::uint8_t>(rng.uniform_int(0, 8));
      hop.egress_port = static_cast<std::uint8_t>(rng.uniform_int(1, 8));
      hop.arrival_ps = rng.uniform_int(0, 1'000'000);
      hop.depart_ps = hop.arrival_ps + rng.uniform_int(0, 1000);
      rec.port_info.resize(obs::kHopTelemetryWire);
      hop.encode(rec.port_info);
      return rec;
    }
    default:
      return random_segment(rng, rng.chance(0.05));
  }
}

/// A wire image as it reaches its destination host: an optional LAN
/// header, the local segment, DataLen, data and a trailer of random
/// records.  One in five is cut inside the data instead, usually with the
/// 4-byte truncation mark a truncating router appends after the cut.
wire::Bytes random_delivered_image(sim::Rng& rng, bool lan) {
  wire::Writer w;
  if (lan) {
    net::EthernetHeader{
        net::MacAddr::from_index(
            static_cast<std::uint16_t>(rng.uniform_int(1, 500))),
        net::MacAddr::from_index(
            static_cast<std::uint16_t>(rng.uniform_int(1, 500))),
        net::kEtherTypeSirpent}
        .encode(w);
  }
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  if (rng.chance(0.5)) {
    local.port_info = random_bytes(rng, 8);
  } else {
    local.flags.vnt = true;
  }
  encode_segment(w, local);
  const wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 300));
  w.u16(static_cast<std::uint16_t>(data.size()));
  if (rng.chance(0.2)) {
    w.bytes(std::span(data).first(rng.uniform_int(0, data.size())));
    if (rng.chance(0.7)) {
      encode_segment(w, core::HeaderSegment::truncation_marker());
    }
    return std::move(w).take();
  }
  w.bytes(data);
  const std::size_t records = rng.uniform_int(0, 10);
  for (std::size_t i = 0; i < records; ++i) {
    encode_segment(w, random_trailer_record(rng));
  }
  return std::move(w).take();
}

// Campaign 1: structured-random packets survive a bit-exact decode→encode
// round trip, and the delivered body reproduces data and trailer.
TEST(FuzzCodec, StructuredRoundTrip) {
  sim::Rng rng(0xF0221);
  for (int iter = 0; iter < 400; ++iter) {
    SCOPED_TRACE(iter);
    core::SourceRoute route = random_route(rng);
    const wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 256));
    wire::Bytes packet;
    try {
      packet = encode_packet(route, data);
    } catch (const wire::CodecError&) {
      continue;  // oversize route: legitimate encode rejection
    }

    // Decode the route part back segment by segment and re-encode it: the
    // bytes must match the original header exactly (codec canonicality).
    wire::Reader r(packet);
    wire::Writer reenc;
    for (const auto& expect : route.segments) {
      core::HeaderSegment got = decode_segment(r);
      // VNT padding is discarded on decode; the encoder never emits it, so
      // for encoder-produced bytes the round trip is exact.
      ASSERT_EQ(got, expect);
      encode_segment(reenc, got);
    }
    ASSERT_TRUE(std::equal(reenc.view().begin(), reenc.view().end(),
                           packet.begin()));

    DeliveredBody body = decode_delivered_body(r);
    ASSERT_EQ(body.data, data);
    ASSERT_TRUE(body.trailer.empty());
  }
}

// Campaign 2: mutated valid packets.  Damage targets the places the format
// is most sensitive: length bytes, the escape marker, flag nibbles, and
// truncation at every interesting boundary.
TEST(FuzzCodec, MutatedPacketsNeverMisbehave) {
  sim::Rng rng(0xF0222);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE(iter);
    core::SourceRoute route = random_route(rng);
    wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 64));
    wire::Bytes packet;
    try {
      packet = encode_packet(route, data);
    } catch (const wire::CodecError&) {
      continue;
    }
    if (packet.empty()) continue;

    switch (rng.uniform_int(0, 5)) {
      case 0: {  // single random byte corruption
        packet[rng.uniform_int(0, packet.size() - 1)] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      }
      case 1: {  // length-byte tampering (first two octets of a segment)
        packet[rng.uniform_int(0, 1)] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        break;
      }
      case 2: {  // force the 255 escape with garbage 32-bit length behind it
        packet[0] = 255;
        break;
      }
      case 3: {  // truncate anywhere, including mid-field
        packet.resize(rng.uniform_int(0, packet.size() - 1));
        break;
      }
      case 4: {  // splice two packets' bytes together
        const std::size_t cut = rng.uniform_int(0, packet.size() - 1);
        wire::Bytes tail = random_bytes(rng, rng.uniform_int(0, 64));
        packet.resize(cut);
        packet.insert(packet.end(), tail.begin(), tail.end());
        break;
      }
      default: {  // burst corruption
        const std::size_t start = rng.uniform_int(0, packet.size() - 1);
        const std::size_t n =
            std::min<std::size_t>(packet.size() - start,
                                  rng.uniform_int(1, 16));
        for (std::size_t i = 0; i < n; ++i) {
          packet[start + i] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        break;
      }
    }

    try {
      drive_receive_pipeline(packet);
      ++parsed;
    } catch (const wire::CodecError&) {
      ++rejected;  // the only acceptable failure mode
    }
  }
  // Both outcomes must actually occur or the campaign isn't exercising
  // anything.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// Campaign 3: unstructured byte soup, dense in the short lengths where
// every byte is a length/port/flag field.  Each input also feeds the
// decoder-parity walk and the host receive parity check.
TEST(FuzzCodec, ByteSoupNeverMisbehaves) {
  sim::Rng rng(0xF0223);
  ReceiveHarness harness;
  for (int iter = 0; iter < 6000; ++iter) {
    SCOPED_TRACE(iter);
    const std::size_t len =
        rng.chance(0.5) ? rng.uniform_int(0, 16) : rng.uniform_int(0, 512);
    const wire::Bytes junk = random_bytes(rng, len);
    expect_decoders_agree(junk);
    expect_receive_matches_reference(harness, junk, iter % 2 == 1);
    try {
      drive_receive_pipeline(junk);
    } catch (const wire::CodecError&) {
      // clean rejection
    }
  }
}

// Campaign 3b: byte soup through the trailer path (decode_segments), which
// loops until exhaustion rather than stopping at a local segment.
TEST(FuzzCodec, TrailerSoupNeverMisbehaves) {
  sim::Rng rng(0xF0224);
  for (int iter = 0; iter < 4000; ++iter) {
    SCOPED_TRACE(iter);
    const wire::Bytes junk = random_bytes(rng, rng.uniform_int(0, 128));
    wire::Reader r(junk);
    try {
      std::vector<core::HeaderSegment> segs = decode_segments(r);
      core::TrailerInfo info = core::classify_trailer(std::move(segs));
      (void)core::build_return_route(info.entries);
    } catch (const wire::CodecError&) {
      // clean rejection
    }
  }
}

// Campaign 4: host receive parity.  Delivered images — trailers mixing
// return entries, truncation marks and telemetry records, LAN framing,
// data cut in flight — go through ViperHost intact and then damaged, and
// every outcome must match the copying reference.  One host serves the
// whole campaign, so each delivery also reuses the state the previous one
// left behind.
TEST(FuzzCodec, HostReceiveMatchesReference) {
  sim::Rng rng(0xF0226);
  ReceiveHarness harness;
  int accepted = 0;
  int misrouted = 0;
  int malformed = 0;
  int truncated = 0;
  int with_path = 0;
  const auto tally = [&](ReferenceReceive::Verdict verdict) {
    switch (verdict) {
      case ReferenceReceive::Verdict::kAccepted:
        ++accepted;
        if (harness.got.has_value()) {
          truncated += harness.got->truncated ? 1 : 0;
          with_path += harness.got->path.empty() ? 0 : 1;
        }
        break;
      case ReferenceReceive::Verdict::kMisrouted:
        ++misrouted;
        break;
      case ReferenceReceive::Verdict::kMalformed:
        ++malformed;
        break;
    }
  };
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE(iter);
    const bool lan = rng.chance(0.3);
    wire::Bytes image = random_delivered_image(rng, lan);
    tally(expect_receive_matches_reference(harness, image, lan));
    if (image.empty()) continue;
    switch (rng.uniform_int(0, 2)) {
      case 0:  // one flipped bit anywhere
        image[rng.uniform_int(0, image.size() - 1)] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      case 1:  // cut anywhere
        image.resize(rng.uniform_int(0, image.size() - 1));
        break;
      default:  // a random byte
        image[rng.uniform_int(0, image.size() - 1)] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        break;
    }
    tally(expect_receive_matches_reference(harness, image, lan));
  }
  // Every outcome must actually occur or the campaign exercises nothing.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(misrouted, 0);
  EXPECT_GT(malformed, 100);
  EXPECT_GT(truncated, 100);
  EXPECT_GT(with_path, 100);
}

// Decoded-then-reencoded segments are canonical: a second decode yields an
// identical segment, and the re-encoding of *that* is byte-identical.
TEST(FuzzCodec, ReencodeIsCanonical) {
  sim::Rng rng(0xF0225);
  int decoded = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    SCOPED_TRACE(iter);
    const wire::Bytes junk = random_bytes(rng, rng.uniform_int(4, 64));
    wire::Reader r(junk);
    core::HeaderSegment seg;
    try {
      seg = decode_segment(r);
    } catch (const wire::CodecError&) {
      continue;
    }
    ++decoded;
    wire::Writer w1;
    encode_segment(w1, seg);
    wire::Reader r2(w1.view());
    const core::HeaderSegment again = decode_segment(r2);
    ASSERT_EQ(again, seg);
    wire::Writer w2;
    encode_segment(w2, again);
    ASSERT_EQ(w1.view(), w2.view());
  }
  EXPECT_GT(decoded, 0);
}

}  // namespace
}  // namespace srp::viper
