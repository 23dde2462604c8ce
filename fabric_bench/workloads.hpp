// The benchmark's three fabric workloads.
//
// A Workload object is one round: its constructor builds a dir::Fabric,
// enables the workload's planes and issues the directory queries (the
// timed set-up); run() drives a fixed number of operations through it from
// the benchmark's single thread and checks every output.  Rounds built from
// the same Inputs replay identically in simulated time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "directory/routes.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "sim/time.hpp"
#include "tokens/token.hpp"
#include "wire/buffer.hpp"

namespace fabric_bench {

/// Everything a round needs that is drawn from the seed.  The fabric is
/// handed only these generated values.
struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  /// Payload bodies.  An operation's payload is an 8-byte little-endian
  /// index followed by body[index % bodies.size()].
  std::vector<srp::wire::Bytes> bodies;
  /// The server application's digest of each body, for the client check.
  std::vector<std::uint64_t> body_folds;
  /// Per-source first-send offsets.
  std::vector<srp::sim::Time> start_offsets;
  /// Seed of the open-loop send-gap stream (line8_min).
  std::uint64_t gap_seed = 0;
  /// Inject a wire corruption lane (the output-check self test).
  bool corrupt = false;
};

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   bool corrupt);

/// Wall-clock mark taken by the benchmark every `slice_ops` completions.
struct Mark {
  std::int64_t wall_ns = 0;
  std::uint64_t pkts = 0;   ///< packets delivered to hosts so far
  std::uint64_t ops = 0;    ///< operations completed so far
  std::uint64_t payload = 0;  ///< useful payload bytes delivered so far
  std::uint64_t allocs = 0;   ///< operator new calls so far (traced run)
  std::uint64_t alloc_bytes = 0;
};

/// Layer counters read from the program's own stats at the end of a round.
struct LayerCounts {
  std::uint64_t host_sends = 0;
  std::uint64_t forwards = 0;
  std::uint64_t telemetry_stamped = 0;
  std::uint64_t token_hits = 0;
  std::uint64_t token_misses = 0;
  std::uint64_t port_sent = 0;
  std::uint64_t port_drops = 0;
  std::uint64_t data_packets_sent = 0;  ///< VMTP, retransmissions included
  std::uint64_t retransmits = 0;
  std::uint64_t nacks = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cc_reports = 0;
  std::uint64_t cc_shaped = 0;
  std::uint64_t spans_recorded = 0;
  srp::sim::Time bottleneck_busy = 0;
};

/// Samples taken only in the traced run.
struct TraceSamples {
  std::uint64_t pending_peak = 0;
  std::vector<std::uint32_t> queue_depth;  ///< bottleneck port, packets
};

struct RoundResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t pkts = 0;            ///< packets delivered to hosts
  std::uint64_t payload = 0;         ///< useful payload, both directions
  std::uint64_t sink_payload = 0;    ///< useful payload reaching the sink
  srp::sim::Time sim_start = 0;           ///< first send
  srp::sim::Time sim_end = 0;             ///< last completion
  std::vector<srp::sim::Time> latencies;  ///< one-way (line) or transaction time
  std::uint64_t events = 0;          ///< Simulator::run* return values
  std::uint64_t digest = 0;          ///< hash of every sim-visible outcome
  LayerCounts counts;
  TraceSamples samples;
  std::vector<Mark> marks;
  std::vector<std::string> errors;   ///< first few check failures
};

/// A packet image as it was handed to a port on the traced path, with the
/// side-band fields a router reads.
struct CapturedPacket {
  srp::net::PacketPtr packet;
  int in_port = 0;  ///< receiving port at the next node
};

/// What the layer replays need from a workload: its route, link, packet
/// images per hop, and token authority.
struct ReplayInputs {
  srp::dir::IssuedRoute route;             ///< source 0's route to the sink
  srp::net::LinkConfig link;
  bool tokens = false;
  bool observed = false;              ///< every observability plane on
  /// A copy of the fabric's token authority (set when tokens are on), so
  /// the replays outlive the round they were captured from.
  std::optional<srp::tokens::TokenAuthority> authority;
  std::size_t request_bytes = 0;      ///< one operation's request payload
  std::size_t response_bytes = 0;     ///< 0 for line8_min
  std::size_t max_data_per_packet = 0;
  /// images[k] are arrivals at router k; images.back() arrivals at the
  /// sink.  Filled by Workload::capture().
  std::vector<std::vector<CapturedPacket>> images;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Drives @p ops operations to completion, marking wall time every
  /// @p slice_ops completions.  With @p traced, samples pending events and
  /// the bottleneck queue at each benchmark callback.
  virtual RoundResult run(std::uint64_t ops, std::uint64_t slice_ops,
                          bool traced) = 0;

  /// Installs port hooks that copy up to @p per_hop packet images arriving
  /// at each hop of source 0's path; run() then fills them in.
  virtual void capture(ReplayInputs& out, std::size_t per_hop) = 0;
};

std::unique_ptr<Workload> make_workload(const Inputs& inputs);

/// Operation counts of @p workload's rounds.
struct RoundShape {
  std::uint64_t ops = 0;        ///< a timed round
  std::uint64_t slice_ops = 0;  ///< completions per wall-clock slice
  /// The first, untimed round (also the warm-up), which supplies the
  /// simulated-time metrics and the layer counts.
  std::uint64_t sim_ops = 0;
};
RoundShape round_shape(const std::string& workload);

[[nodiscard]] bool known_workload(const std::string& name);

}  // namespace fabric_bench
