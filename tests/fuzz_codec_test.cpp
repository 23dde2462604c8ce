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
// alone.  Three campaigns:
//   1. structured-random packets  — valid routes/data, full round trip
//   2. mutation fuzz             — valid packets damaged in targeted ways
//   3. byte-soup fuzz            — unstructured random streams
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "core/trailer.hpp"
#include "sim/random.hpp"
#include "viper/codec.hpp"

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
// decoder-parity walk.
TEST(FuzzCodec, ByteSoupNeverMisbehaves) {
  sim::Rng rng(0xF0223);
  for (int iter = 0; iter < 6000; ++iter) {
    SCOPED_TRACE(iter);
    const std::size_t len =
        rng.chance(0.5) ? rng.uniform_int(0, 16) : rng.uniform_int(0, 512);
    const wire::Bytes junk = random_bytes(rng, len);
    expect_decoders_agree(junk);
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
