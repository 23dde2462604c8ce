// Node and arrival interfaces for the simulated forwarding plane.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace srp::net {

/// Delivery of a packet to a node.  Both instants are fixed when the
/// transmission starts (paper §6.1); the link delivers the Arrival at the
/// one the receiving node acts on (see Hears).  A first-bit node can choose
/// cut-through (act once the header portion is in) or store-and-forward
/// (schedule itself at `tail`).  `rate_bps` is the incoming link rate; the
/// paper permits cut-through only when input and output rates match.
struct Arrival {
  PacketPtr packet;
  int in_port = 0;          ///< receiving node's port the packet came in on
  sim::Time head = 0;       ///< first-bit arrival time
  sim::Time tail = 0;       ///< last-bit arrival time
  double rate_bps = 0.0;    ///< incoming link rate
};

/// The instant at which a node's on_arrival() runs.
enum class Hears : std::uint8_t {
  kFirstBit,  ///< at `head`: cut-through receivers (routers, LAN segments)
  kLastBit,   ///< at `tail`: receivers that need the whole packet (hosts)
};

/// Anything attached to the network: routers, hosts, LAN segments.
class Node {
 public:
  explicit Node(std::string name, Hears hears = Hears::kFirstBit)
      : name_(std::move(name)), hears_(hears) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] Hears hears() const { return hears_; }

  /// Called at `arrival.head` for a kFirstBit node, at `arrival.tail` for
  /// a kLastBit one.
  virtual void on_arrival(const Arrival& arrival) = 0;

 private:
  std::string name_;
  Hears hears_;
};

}  // namespace srp::net
