// Slab-reusing packet arena: where the router builds every rewritten
// packet image (DESIGN.md §11).
//
// A plain per-hop rewrite pays one heap-backed buffer plus a make_shared
// per derived packet.  The arena replaces both: it owns a bounded pool of
// Packet slabs and recycles a slab the moment the pool is its *only*
// owner (use_count() == 1).  Everything that still needs a packet — an
// output queue, an in-flight transmission, a fault lane holding a
// duplicate, a downstream derive's parent chain — holds a PacketPtr
// reference and thereby blocks recycling, so a slab can never be reused
// while any byte of it is observable.  The sim is single-threaded, which
// makes use_count() an exact, deterministic liveness oracle.
//
// A recycled slab keeps its wire::Bytes capacity, so steady-state
// acquire()+append runs with zero allocations (pinned by
// tests/alloc_budget_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "check/analysis.hpp"
#include "net/packet.hpp"

namespace srp::net {

class PacketArena {
 public:
  struct Stats {
    std::uint64_t acquired = 0;   ///< total acquire() calls
    std::uint64_t recycled = 0;   ///< served by reusing a free slab
    std::uint64_t fresh = 0;      ///< served by a new heap allocation
    std::uint64_t scan_steps = 0; ///< pool slots inspected across acquires
  };

  /// Slabs the pool keeps; past it, acquire() hands out one-off packets
  /// the caller fully owns.  Chosen on the fabric benchmark (seed 7)
  /// against plain per-hop buffers: 64 slabs cut line8_min allocations
  /// per packet 44.0 -> 29.5 for +1.7% fanin_observed peak RSS, where 32
  /// gave 33.0 for +0.5% and 256 gave 28.0 for +5.1%.
  static constexpr std::size_t kCapacity = 64;

  /// A packet slab with empty bytes reserved for @p image_bytes and a
  /// zeroed side-band, ready to be filled as a derived image.  Recycles a
  /// free slab when one exists; falls back to a fresh allocation
  /// otherwise.
  PacketPtr acquire(std::size_t image_bytes);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Scrubs a slab for reuse.  Only called when the pool is the sole
  /// owner, so no holder can observe the reset.
  static void reset_slab(Packet& p);

  std::vector<PacketPtr> pool_;  ///< every slab ever pooled (≤ kCapacity)
  std::size_t cursor_ = 0;       ///< rotating scan start
  Stats stats_;
};

}  // namespace srp::net
