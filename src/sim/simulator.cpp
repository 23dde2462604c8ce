#include "sim/simulator.hpp"

#include <stdexcept>

#include "check/contract.hpp"

namespace srp::sim {

EventId Simulator::at(Time when, EventQueue::Callback cb) {
  // The one guard that the system stays single-threaded.
  SIRPENT_EXPECTS(std::this_thread::get_id() == owner_);
  if (when < now_) {
    throw std::invalid_argument("Simulator::at: scheduling into the past");
  }
  return events_.schedule(when, std::move(cb));
}

bool Simulator::step() {
  SIRPENT_EXPECTS(std::this_thread::get_id() == owner_);
  if (events_.empty()) return false;
  auto [when, cb] = events_.pop();
  SIRPENT_INVARIANT(when >= now_);  // event queue returned a past event
  now_ = when;
  cb();
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (!events_.empty() && events_.next_time() <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Simulator::run_steps(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace srp::sim
