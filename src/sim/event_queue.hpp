// Pending-event set for the discrete-event simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace srp::sim {

/// Opaque handle identifying a scheduled event so it can be cancelled.
/// Ids strictly increase in schedule order.
using EventId = std::uint64_t;

/// Min-heap of timestamped callbacks with stable FIFO ordering among
/// events scheduled for the same instant (ties break on the id, i.e. on
/// schedule order, which keeps runs deterministic).
///
/// Callbacks live in a slot table recycled through a free list; the heap
/// orders 16-byte {when, id} keys.  An id is `(seq << kSlotBits) | slot`,
/// so cancel() is O(1): it frees the slot (destroying the callback at
/// once) when the slot still holds that id, and a key whose slot no
/// longer holds its id is skipped when it reaches the top.  schedule and
/// pop are O(log n).  Once the slot table and heap have grown to the
/// run's peak, scheduling, popping and cancelling allocate nothing unless
/// a capture outgrows Callback::kInlineBytes.
///
/// reserve_id() takes the next id without scheduling anything: a component
/// that settles an instant without an event (a port's completion) holds
/// that id as the instant's place in the order, and schedules it later
/// only if something must run there.
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Schedules @p cb to run at @p when.  Returns a handle for cancel().
  EventId schedule(Time when, Callback&& cb) {
    return schedule(when, reserve_id(), std::move(cb));
  }

  /// Takes the next id in schedule order without scheduling an event.
  EventId reserve_id();

  /// Schedules @p cb at @p when in the place of @p reserved, an id from
  /// reserve_id() not scheduled before.  Returns the handle for cancel().
  EventId schedule(Time when, EventId reserved, Callback&& cb);

  /// Cancels a previously scheduled event and destroys its callback.
  /// Cancelling an event that has already run (or was already cancelled)
  /// is a harmless no-op, even after its slot has been reused.
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events still pending.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest live event.  Precondition: !empty().
  std::pair<Time, Callback> pop() {
    EventId id = 0;
    return pop(id);
  }
  /// As pop(), also storing the event's id in @p id.
  std::pair<Time, Callback> pop(EventId& id);

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Key {
    Time when;
    EventId id;
  };
  struct Slot {
    EventId id = 0;  // 0 while free
    Callback cb;
  };

  static bool before(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  }
  bool stale(const Key& k) const {
    return slots_[k.id & kSlotMask].id != k.id;
  }

  /// Returns @p slot (whose callback has been moved out) to the free list.
  void free_slot(std::size_t slot);

  /// Pops heap keys whose events were cancelled.
  void drop_stale() const;
  /// Removes the top key of the 4-ary heap.
  void pop_top() const;

  mutable std::vector<Key> heap_;  // 4-ary min-heap on (when, id)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  EventId next_seq_ = 1;
};

}  // namespace srp::sim
