// The discrete-event simulator driving every Sirpent experiment.
#pragma once

#include <cstdint>
#include <thread>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace srp::sim {

/// Single-threaded discrete-event simulator.
///
/// All network components hold a reference to one Simulator and schedule
/// work on it; the run*() loop advances the clock to each event in time
/// order.  Determinism: identical schedules (and identical RNG seeds in the
/// components) replay identically.
///
/// Single-threaded by contract: at()/after()/run*() from any thread but
/// the constructing one violate SIRPENT_EXPECTS in contract-enabled builds.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules @p cb at absolute time @p when (>= now()).
  EventId at(Time when, EventQueue::Callback cb);

  /// Schedules @p cb @p delay after now().
  EventId after(Time delay, EventQueue::Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event (no-op if it already ran).
  void cancel(EventId id) { events_.cancel(id); }

  /// Runs until the event queue drains.  Returns the number of events run.
  std::uint64_t run();

  /// Runs events with time <= @p deadline, then sets the clock to
  /// @p deadline.  Returns the number of events run.
  std::uint64_t run_until(Time deadline);

  /// Runs at most @p max_events events (for watchdog-style tests).
  std::uint64_t run_steps(std::uint64_t max_events);

  /// Number of events still pending.
  [[nodiscard]] std::size_t pending_events() const { return events_.size(); }

 private:
  bool step();

  EventQueue events_;
  Time now_ = 0;
  decltype(std::this_thread::get_id()) owner_ = std::this_thread::get_id();
};

}  // namespace srp::sim
