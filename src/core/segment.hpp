// The Sirpent header segment and source route (paper §2).
//
// "Each Sirpent packet is structured as a sequence of header segments
// followed by user data, followed by the Sirpent trailer.  Each header
// segment corresponds to a Sirpent router along the route."
//
// These are the decoded, network-independent forms; the concrete octet
// layout is VIPER's (src/viper/codec.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/tos.hpp"
#include "wire/buffer.hpp"

namespace srp::core {

/// VIPER reserves port 0 to mean local delivery ("Reserving 0 as a special
/// port value meaning 'local', the effective number of ports per switch is
/// limited to 255").
inline constexpr std::uint8_t kLocalPort = 0;

/// Route-length bound used by the paper's scaling argument ("a maximum of
/// 48 header segments (expected to be under 500 bytes long)").
inline constexpr std::size_t kMaxSegments = 48;

/// Port value identifying an in-band telemetry record on the trailer
/// (0x54, 'T').  Like the truncation mark, a telemetry record is "not a
/// legal Sirpent header segment": it carries the TRM flag so no router
/// ever routes by it, but unlike the mark it keeps VNT clear so its
/// portInfo — the fixed-size obs::HopTelemetry payload — survives decode.
/// The port value only disambiguates the two record kinds at the sink.
inline constexpr std::uint8_t kTelemetryPort = 0x54;

/// Segment flags (VIPER Flags nibble).  VNT, DIB and RPF are the paper's;
/// TRM is this implementation's concrete encoding of the paper's
/// truncation mark: "a special segment on the trailer (which is not a legal
/// Sirpent header segment) indicating that the packet has been truncated".
struct SegmentFlags {
  bool vnt = false;  ///< VIPER Next Type: portInfo void, next seg is VIPER
  bool dib = false;  ///< Drop If Blocked
  bool rpf = false;  ///< Reverse Path Forwarding (returning a packet)
  bool trm = false;  ///< truncation marker (never legal for routing)

  bool operator==(const SegmentFlags&) const = default;
};

/// True when a trailer segment with this port and these flags is an
/// in-band telemetry record: TRM set (never routable), VNT clear (portInfo
/// carries the payload), and the reserved telemetry port.  Distinct from
/// the truncation mark, which sets VNT and uses port 0.  The one copy of
/// the rule, shared by HeaderSegment and the in-place SegmentView.
[[nodiscard]] inline bool is_telemetry_record(std::uint8_t port,
                                              const SegmentFlags& flags) {
  return flags.trm && !flags.vnt && port == kTelemetryPort;
}

/// One hop of a source route.
///
/// `port_info` is network-specific: on a multi-access network it holds the
/// link header for the next hop (e.g. a 14-byte Ethernet header); on a
/// point-to-point link it is void and `flags.vnt` is set.  A final segment
/// with `port == kLocalPort` may carry an 8-byte local endpoint id in
/// `port_info` ("a Sirpent header segment can be used to designate the port
/// within a host") — the same mechanism as inter-host addressing.
struct HeaderSegment {
  std::uint8_t port = 0;
  TypeOfService tos;
  SegmentFlags flags;
  wire::Bytes token;      ///< portToken: opaque encrypted capability
  wire::Bytes port_info;  ///< network-specific next-hop information

  bool operator==(const HeaderSegment&) const = default;

  /// A routable segment must not carry the truncation mark.
  [[nodiscard]] bool is_legal() const { return !flags.trm; }

  /// The special trailer segment marking a truncated packet.
  static HeaderSegment truncation_marker() {
    HeaderSegment s;
    s.flags.trm = true;
    s.flags.vnt = true;
    return s;
  }

  /// See core::is_telemetry_record; distinct from truncation_marker().
  [[nodiscard]] bool is_telemetry_record() const {
    return core::is_telemetry_record(port, flags);
  }
};

/// A complete source route: the segments laid in front of the data.
/// The last segment should address the destination host's local port.
struct SourceRoute {
  std::vector<HeaderSegment> segments;

  bool operator==(const SourceRoute&) const = default;

  [[nodiscard]] bool empty() const { return segments.empty(); }
  [[nodiscard]] std::size_t hops() const { return segments.size(); }

  /// Marks every segment as a reverse-path packet (VIPER RPF flag) —
  /// used when sending along a route recovered from a trailer.
  void set_rpf() {
    for (auto& s : segments) s.flags.rpf = true;
  }
};

}  // namespace srp::core
