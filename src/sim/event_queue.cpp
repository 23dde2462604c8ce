#include "sim/event_queue.hpp"

#include <stdexcept>

#include "check/contract.hpp"

namespace srp::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventId EventQueue::reserve_id() {
  if (next_seq_ >> (64 - kSlotBits) != 0) {
    throw std::length_error("EventQueue: event id space exhausted");
  }
  return next_seq_++ << kSlotBits;
}

EventId EventQueue::schedule(Time when, EventId reserved, Callback&& cb) {
  SIRPENT_EXPECTS((reserved & kSlotMask) == 0);  // an id from reserve_id()
  std::size_t slot = slots_.size();
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot > kSlotMask) {
      throw std::length_error("EventQueue: too many pending events");
    }
    slots_.emplace_back();
  }
  const EventId id = reserved | slot;
  slots_[slot].id = id;
  slots_[slot].cb = std::move(cb);
  ++live_;

  // Sift up.
  heap_.push_back(Key{when, id});
  std::size_t i = heap_.size() - 1;
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
  return id;
}

void EventQueue::free_slot(std::size_t slot) {
  slots_[slot].id = 0;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
}

void EventQueue::cancel(EventId id) {
  const std::size_t slot = id & kSlotMask;
  if (slot >= slots_.size() || slots_[slot].id != id) return;
  // Moved out first and destroyed on return, once the table is
  // consistent: the capture's destructor may schedule (growing slots_)
  // or cancel events.
  const Callback doomed = std::move(slots_[slot].cb);
  free_slot(slot);
}

void EventQueue::pop_top() const {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::drop_stale() const {
  while (!heap_.empty() && stale(heap_.front())) pop_top();
}

Time EventQueue::next_time() const {
  drop_stale();
  return heap_.empty() ? kTimeInfinity : heap_.front().when;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop(EventId& id) {
  drop_stale();
  SIRPENT_EXPECTS(!heap_.empty());  // pop() on empty EventQueue
  const Key top = heap_.front();
  pop_top();
  id = top.id;
  const std::size_t slot = top.id & kSlotMask;
  std::pair<Time, Callback> out{top.when, std::move(slots_[slot].cb)};
  free_slot(slot);
  return out;
}

}  // namespace srp::sim
