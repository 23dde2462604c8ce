// The discrete-event simulator driving every Sirpent experiment.
#pragma once

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

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
///
/// Instants without events.  A component may settle an instant that no
/// decision depends on without running an event there (a port's
/// completion with nothing queued behind it): it takes the instant's
/// place in the event order with reserve_id(), asks ran() whether the
/// clock has passed that place, and schedules it with at(when, reserved,
/// cb) only if something must run there after all.  Such a component is a
/// Debtor: when the event queue drains, run() moves the clock to the
/// latest instant a debtor still owes, where the event would have left
/// it.
class Simulator {
 public:
  /// A component owing the clock instants it settles without events.
  /// Registers with its simulator for its lifetime.
  class Debtor {
   public:
    explicit Debtor(Simulator& sim);
    virtual ~Debtor();
    Debtor(const Debtor&) = delete;
    Debtor& operator=(const Debtor&) = delete;

    /// The latest instant this component settles without an event, or 0.
    [[nodiscard]] virtual Time owed_until() const = 0;

   private:
    friend class Simulator;
    Simulator* sim_;
    std::size_t index_;
  };

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules @p cb at absolute time @p when (>= now()).
  EventId at(Time when, EventQueue::Callback cb) {
    return at(when, reserve_id(), std::move(cb));
  }

  /// Schedules @p cb at @p when (>= now()) in the place of @p reserved.
  EventId at(Time when, EventId reserved, EventQueue::Callback cb);

  /// Takes the next place in the event order without scheduling.
  EventId reserve_id() { return events_.reserve_id(); }

  /// True once the clock has passed an event scheduled at @p when with id
  /// @p id: it is earlier than now(), or at now() and ordered before the
  /// event running (between events, before every pending one).
  [[nodiscard]] bool ran(Time when, EventId id) const {
    return when < now_ || (when == now_ && id < current_);
  }

  /// Schedules @p cb @p delay after now().
  EventId after(Time delay, EventQueue::Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event (no-op if it already ran).
  void cancel(EventId id) { events_.cancel(id); }

  /// Runs until the event queue drains, then moves the clock to the latest
  /// instant a Debtor owes.  Returns the number of events run.
  std::uint64_t run();

  /// Runs events with time <= @p deadline, then sets the clock to
  /// @p deadline.  Returns the number of events run.
  std::uint64_t run_until(Time deadline);

  /// Runs at most @p max_events events (for watchdog-style tests); settles
  /// debts as run() does if the queue drains.
  std::uint64_t run_steps(std::uint64_t max_events);

  /// Number of events still pending.
  [[nodiscard]] std::size_t pending_events() const { return events_.size(); }

 private:
  bool step();
  /// The queue drained: moves the clock to the latest instant owed.
  void settle_debts();

  EventQueue events_;
  Time now_ = 0;
  /// Id of the event running, or of the last one run; kAllRan once every
  /// event up to now() has run.
  EventId current_ = 0;
  std::vector<Debtor*> debtors_;
  decltype(std::this_thread::get_id()) owner_ = std::this_thread::get_id();
};

}  // namespace srp::sim
