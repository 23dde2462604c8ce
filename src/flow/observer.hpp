// One component's flow-accounting state: the FlowTable, the deterministic
// packet sampler and the exact per-account charge mirror.
//
// Sirpent's routers can aggregate traffic by source route and by account
// (tokens name the account to charge, paper §2.2).  A FlowObserver holds
// those aggregates for a single named component (one router); components
// obtain theirs via FlowPlane::scoped(name) once at set_observer() time and
// keep a raw pointer, so with no flow plane wired the per-packet price is
// one untaken null-pointer branch.  The observer only records: nothing in
// the data path or in congestion control reads its state back.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "flow/sampler.hpp"
#include "flow/table.hpp"
#include "obs/recorder.hpp"
#include "sim/time.hpp"
#include "stats/registry.hpp"

namespace srp::flow {

/// One forwarded packet, as the flow-accounting plane sees it.  The header
/// span points into the caller's buffer and is valid only for the duration
/// of the on_forward() call (the observer copies the excerpt it keeps).
struct FlowSample {
  std::uint64_t route_digest = 0;  ///< whole-route identity (0 = unknown)
  std::uint64_t packet_id = 0;
  std::uint64_t trace_id = 0;      ///< nonzero when the packet is traced
  std::uint32_t account = 0;       ///< from the validated token (0 = none)
  std::uint8_t tos_class = 0;      ///< type-of-service priority field
  bool cut_through = false;        ///< vs store-and-forward for this hop
  std::uint16_t in_port = 0;
  std::uint16_t out_port = 0;
  std::uint32_t bytes = 0;         ///< wire bytes admitted (= bytes charged)
  sim::Time now = 0;
  /// Link header + first VIPER segment as received — the excerpt source
  /// for sampled-packet capture.
  std::span<const std::uint8_t> header;
};

/// Flow-plane tuning, shared by every observer a plane creates.
struct FlowConfig {
  std::size_t table_capacity = FlowTable::kDefaultCapacity;
  /// 1-in-N deterministic packet sampling (0 = off, 1 = every packet).
  std::uint32_t sample_period = 64;
  /// Base seed for the per-component sampler streams (mixed with the
  /// component name, src/fault style, so replay is attach-order-free).
  std::uint64_t seed = 0x5EED;
};

/// Per-account roll-up entry, mirroring tokens::AccountUsage without a
/// dependency on the tokens layer.
struct AccountCharge {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  bool operator==(const AccountCharge&) const = default;
};

class FlowObserver {
 public:
  /// @p registry / @p recorder may be null (no metrics / no sampled-span
  /// capture).  Metrics: `flow.<name>.sampled`, `flow.<name>.evictions`
  /// counters and a `flow.<name>.flows` gauge.
  FlowObserver(std::string name, const FlowConfig& config,
               stats::Registry* registry, obs::FlightRecorder* recorder);

  /// One packet forwarded by the component.  Hot path: called per packet
  /// whenever a flow plane is wired.
  void on_forward(const FlowSample& sample);

  /// One tokens::Ledger charge made by the component, reported with the
  /// same account and byte count — the exact mirror that makes per-account
  /// roll-ups reconcile with the ledger.
  void on_charge(std::uint32_t account, std::uint64_t bytes);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }

  /// Exact per-account charge mirror: one entry per Ledger::charge the
  /// component reported, reconcilable 1:1 with the ledger.
  [[nodiscard]] std::map<std::uint32_t, AccountCharge> charges() const;

  /// Packets sampled so far.
  [[nodiscard]] std::uint64_t sampled() const;

 private:
  const std::string name_;
  FlowTable table_;
  obs::FlightRecorder* recorder_ = nullptr;
  stats::Counter* sampled_counter_ = nullptr;
  stats::Counter* evictions_counter_ = nullptr;
  stats::Gauge* flows_gauge_ = nullptr;
  Sampler sampler_;
  std::uint64_t sampled_total_ = 0;
  std::map<std::uint32_t, AccountCharge> charges_;
};

}  // namespace srp::flow
