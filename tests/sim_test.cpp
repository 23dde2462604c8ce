// Unit tests for the discrete-event simulator substrate.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "check/contract.hpp"
#include "net/port.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace srp::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(10, [&] { ran = true; });
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterRunIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  q.pop().second();
  q.cancel(id);  // must not corrupt state
  EXPECT_TRUE(q.empty());
  q.schedule(5, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNoop) {
  EventQueue q;
  const EventId old_id = q.schedule(10, [] {});
  q.cancel(old_id);
  // The freed slot is reused by the next event; the old id must not
  // reach the new occupant.
  bool ran = false;
  const EventId new_id = q.schedule(20, [&] { ran = true; });
  EXPECT_NE(new_id, old_id);
  q.cancel(old_id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  // Same after the reused slot's event has run and the slot is reused again.
  q.pop().second();
  EXPECT_TRUE(ran);
  const EventId third = q.schedule(30, [] {});
  q.cancel(new_id);
  q.cancel(old_id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().first, 30);
  q.cancel(third);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelReleasesCaptureImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  const EventId id = q.schedule(10, [token] {});
  q.schedule(5, [] {});
  EXPECT_EQ(token.use_count(), 2);
  q.cancel(id);
  // Released at cancel time, not when the stale key reaches the top.
  EXPECT_EQ(token.use_count(), 1);
  while (!q.empty()) q.pop().second();
}

TEST(EventQueue, AcceptsMoveOnlyCaptures) {
  EventQueue q;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  q.schedule(1, [&seen, v = std::move(value)] { seen = *v; });
  auto [when, cb] = q.pop();
  cb();
  EXPECT_EQ(when, 1);
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, IdsStrictlyIncreaseInScheduleOrder) {
  EventQueue q;
  EventId last = 0;
  // Interleave cancels and pops so freed slots are reused out of order.
  for (int i = 0; i < 300; ++i) {
    const EventId id = q.schedule(static_cast<Time>(1000 - i % 7), [] {});
    EXPECT_GT(id, last);
    last = id;
    if (i % 3 == 0) q.cancel(id);
    if (i % 5 == 0 && !q.empty()) q.pop();
  }
}

/// A capture whose destructor schedules a burst of events (growing the
/// slot table) and cancels one of them.  Moved-from copies are inert.
struct ReentrantGuard {
  EventQueue* q;
  int* destroyed;
  explicit ReentrantGuard(EventQueue* queue, int* count)
      : q(queue), destroyed(count) {}
  ReentrantGuard(ReentrantGuard&& o) noexcept
      : q(std::exchange(o.q, nullptr)), destroyed(o.destroyed) {}
  ReentrantGuard(const ReentrantGuard&) = delete;
  ReentrantGuard& operator=(const ReentrantGuard&) = delete;
  ReentrantGuard& operator=(ReentrantGuard&&) = delete;
  ~ReentrantGuard() {
    if (q == nullptr) return;
    ++*destroyed;
    EventId first = 0;
    for (int i = 0; i < 64; ++i) {
      const EventId id = q->schedule(100 + i, [] {});
      if (i == 0) first = id;
    }
    q->cancel(first);
  }
};

TEST(EventQueue, CaptureDestructorMayScheduleAndCancel) {
  EventQueue q;
  int destroyed = 0;
  int ran = 0;
  const EventId id =
      q.schedule(10, [g = ReentrantGuard(&q, &destroyed)] { (void)g; });
  q.schedule(20, [g = ReentrantGuard(&q, &destroyed), &ran] {
    (void)g;
    ++ran;
  });
  EXPECT_EQ(destroyed, 0);
  q.cancel(id);  // destroys the first guard: +64 events, one cancelled
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(q.size(), 1u + 63u);
  {
    auto [when, cb] = q.pop();
    EXPECT_EQ(when, 20);
    cb();
  }  // destroys the second guard: +64 events, one cancelled
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.size(), 63u + 63u);
  Time last = 0;
  std::size_t popped = 0;
  while (!q.empty()) {
    const auto [when, cb] = q.pop();
    EXPECT_GE(when, last);
    last = when;
    cb();
    ++popped;
  }
  EXPECT_EQ(popped, 126u);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Time> seen;
  sim.at(100, [&] { seen.push_back(sim.now()); });
  sim.at(50, [&] { seen.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, (std::vector<Time>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sim.after(5, chain);
  };
  sim.after(5, chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    sim.at(t, [&] { ++count; });
  }
  sim.run_until(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 55);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::invalid_argument);
}

struct OwnerContractFired {};

[[noreturn]] void owner_contract_handler(const check::Violation&) {
  throw OwnerContractFired{};
}

// The owner-thread contract is the one guard that the system stays
// single-threaded: scheduling from any other thread must fire it.
TEST(Simulator, SchedulingFromAnotherThreadViolatesOwnerContract) {
  if (!SIRPENT_CONTRACTS_ENABLED) GTEST_SKIP() << "contracts compiled out";
  Simulator sim;
  sim.at(1, [] {});  // the owning thread schedules freely
  const auto previous = check::set_violation_handler(owner_contract_handler);
  bool fired = false;
  std::thread other([&sim, &fired] {
    try {
      sim.at(2, [] {});
    } catch (const OwnerContractFired&) {
      fired = true;
    }
  });
  other.join();
  check::set_violation_handler(previous);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.at(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, ReservedIdKeepsItsPlaceInTheOrder) {
  Simulator sim;
  std::vector<int> order;
  const EventId reserved = sim.reserve_id();
  sim.at(10, [&] { order.push_back(2); });
  // Scheduled last, ordered first: the id was taken before the other's.
  sim.at(10, reserved, [&] { order.push_back(1); });
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RanTracksThePlaceOfTheRunningEvent) {
  Simulator sim;
  const EventId before = sim.reserve_id();
  EventId after = 0;
  std::vector<bool> seen;
  sim.at(10, [&] {
    seen.push_back(sim.ran(10, before));
    seen.push_back(sim.ran(10, after));
    seen.push_back(sim.ran(9, after));
    seen.push_back(sim.ran(11, before));
  });
  after = sim.reserve_id();
  EXPECT_FALSE(sim.ran(0, before));  // nothing at now() has run yet
  sim.run_steps(1);
  EXPECT_EQ(seen, (std::vector<bool>{true, false, true, false}));
  // Between events, an instant at now() ordered after the last one run
  // is still ahead; once run_until() passes now(), nothing is.
  EXPECT_FALSE(sim.ran(10, after));
  sim.run_until(10);
  EXPECT_TRUE(sim.ran(10, after));
}

/// A component owing the clock one instant, which it may withdraw.
class OneDebt final : public Simulator::Debtor {
 public:
  using Debtor::Debtor;
  Time owed_until() const override { return owed; }
  Time owed = 0;
};

TEST(Simulator, DrainedRunMovesTheClockToTheLatestDebt) {
  Simulator sim;
  OneDebt a(sim);
  OneDebt b(sim);
  {
    OneDebt gone(sim);  // unregisters when destroyed
    gone.owed = 900;
  }
  a.owed = 300;
  b.owed = 500;
  sim.at(100, [] {});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.now(), 500);
  // A withdrawn debt does not count, and the clock never moves back.
  b.owed = 0;
  sim.at(600, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 600);
  // run_until() stops at its deadline whatever is owed.
  a.owed = 2000;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

/// Far end of a link that records arrival instants.
class TimedSink final : public net::Node {
 public:
  TimedSink(Simulator& sim, net::Hears hears)
      : net::Node("sim.sink", hears), sim_(sim) {}
  void on_arrival(const net::Arrival&) override { at.push_back(sim_.now()); }
  std::vector<Time> at;

 private:
  Simulator& sim_;
};

/// One 1250 B packet on a 1 Gb/s link with 1 us propagation: 10 us on the
/// wire, first bit at the peer at 1 us, last bit at 11 us.
net::PacketPtr packet_1250(net::PacketFactory& packets) {
  return packets.make(wire::Bytes(1250, 0xAB), 0);
}
const net::LinkConfig kDrainLink{1e9, kMicrosecond, 1500};

TEST(SimulatorDrain, RunEndsAtTheLastOwedCompletion) {
  Simulator sim;
  net::PacketFactory packets;
  TimedSink sink(sim, net::Hears::kFirstBit);
  net::TxPort port(sim, "drain:p1", kDrainLink);
  port.connect(&sink, 1);
  port.enqueue(packet_1250(packets), net::TxMeta{});
  // The arrival is the one event: nothing waits behind the transmission,
  // so its completion at 10 us settles without one.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sink.at, (std::vector<Time>{kMicrosecond}));
  EXPECT_EQ(sim.now(), 10 * kMicrosecond);
  EXPECT_FALSE(port.busy());
  EXPECT_EQ(port.stats().sent, 1u);
  EXPECT_EQ(port.stats().busy_time, 10 * kMicrosecond);
}

TEST(SimulatorDrain, LastBitReceiverHearsAtTail) {
  Simulator sim;
  net::PacketFactory packets;
  TimedSink sink(sim, net::Hears::kLastBit);
  net::TxPort port(sim, "drain:p1", kDrainLink);
  port.connect(&sink, 1);
  port.enqueue(packet_1250(packets), net::TxMeta{});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sink.at, (std::vector<Time>{11 * kMicrosecond}));
  EXPECT_EQ(sim.now(), 11 * kMicrosecond);
}

TEST(SimulatorDrain, AbortedTransmissionDoesNotAdvanceTheClock) {
  Simulator sim;
  net::PacketFactory packets;
  TimedSink sink(sim, net::Hears::kFirstBit);
  net::TxPort port(sim, "drain:p1", kDrainLink);
  port.connect(&sink, 1);
  port.enqueue(packet_1250(packets), net::TxMeta{});
  sim.at(4 * kMicrosecond, [&] { port.set_up(false); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.now(), 4 * kMicrosecond);
  EXPECT_EQ(port.stats().sent, 0u);
  EXPECT_EQ(port.stats().preempt_aborts, 1u);
  EXPECT_EQ(port.stats().busy_time, 4 * kMicrosecond);
}

TEST(TimeMath, TransmissionTimeRoundsUp) {
  // 1500 bytes at 1 Gb/s = 12 microseconds exactly.
  EXPECT_EQ(byte_time(1500, 1e9), 12 * kMicrosecond);
  // 1 bit at 10 Gb/s = 100 ps.
  EXPECT_EQ(transmission_time(1, 1e10), 100);
  // Never rounds to "finishing early".
  EXPECT_GE(transmission_time(1, 3e9), 334);
  EXPECT_EQ(transmission_time(0, 1e9), 0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(123);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(55);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.2);
}

TEST(Rng, GeometricAtLeastOne) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(rng.geometric(0.3), 1u);
  }
}

TEST(Rng, SplitStreamsIndependent) {
  Rng a(42);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace srp::sim
