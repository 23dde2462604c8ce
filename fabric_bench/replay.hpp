// Layer replays: each times one layer entry point on inputs captured from
// the workload (packet images, route, tokens), outside the simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace fabric_bench {

/// Unit costs in wall nanoseconds (0 when the workload gives the layer no
/// input, e.g. tokens on line8_min).
struct LayerCosts {
  double schedule_pop_ns = 0;    ///< EventQueue schedule + pop at depth
  double port_tx_ns = 0;         ///< TxPort enqueue through delivery
  double port_events_per_tx = 0; ///< simulator events inside port_tx_ns
  double host_send_ns = 0;       ///< ViperHost::send, egress down
  double host_receive_ns = 0;    ///< ViperHost::on_arrival of sink images
  double encode_ns = 0;          ///< viper::encode_packet
  double decode_view_ns = 0;     ///< decode_segment_view, per hop offset
  double trailer_reverse_ns = 0; ///< reverse_trailer_in_place
  double router_engine_ns = 0;   ///< ViperRouter::on_arrival, egress down
  double router_observed_ns = 0; ///< router_engine_ns with every plane wired
  double token_lookup_ns = 0;
  double token_charge_ns = 0;
  double token_open_ns = 0;
  double transport_encode_ns = 0;
  double transport_decode_ns = 0;
  double checksum_ns_per_kb = 0;
  double crc32_ns_per_kb = 0;
};

/// Field by field, the lowest of several passes' costs (interference from
/// other tenants only adds time).
LayerCosts fastest(const std::vector<LayerCosts>& passes);

/// Runs every replay.  @p pending_depth is the event-heap depth the
/// schedule/pop replay holds (the traced run's sim.pending_peak).
LayerCosts replay_layers(const ReplayInputs& in, std::uint64_t pending_depth);

}  // namespace fabric_bench
