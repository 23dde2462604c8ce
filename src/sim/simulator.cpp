#include "sim/simulator.hpp"

#include <limits>
#include <stdexcept>

#include "check/contract.hpp"

namespace srp::sim {

namespace {
constexpr EventId kAllRan = std::numeric_limits<EventId>::max();
}  // namespace

Simulator::Debtor::Debtor(Simulator& sim)
    : sim_(&sim), index_(sim.debtors_.size()) {
  sim.debtors_.push_back(this);
}

Simulator::Debtor::~Debtor() {
  if (sim_ == nullptr) return;
  std::vector<Debtor*>& all = sim_->debtors_;
  all[index_] = all.back();
  all[index_]->index_ = index_;
  all.pop_back();
}

Simulator::~Simulator() {
  for (Debtor* d : debtors_) d->sim_ = nullptr;
}

EventId Simulator::at(Time when, EventId reserved, EventQueue::Callback cb) {
  // The one guard that the system stays single-threaded.
  SIRPENT_EXPECTS(std::this_thread::get_id() == owner_);
  if (when < now_) {
    throw std::invalid_argument("Simulator::at: scheduling into the past");
  }
  return events_.schedule(when, reserved, std::move(cb));
}

void Simulator::settle_debts() {
  for (const Debtor* d : debtors_) {
    const Time owed = d->owed_until();
    if (owed > now_) now_ = owed;
  }
  current_ = kAllRan;
}

bool Simulator::step() {
  SIRPENT_EXPECTS(std::this_thread::get_id() == owner_);
  if (events_.empty()) {
    settle_debts();
    return false;
  }
  auto [when, cb] = events_.pop(current_);
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
  if (now_ <= deadline) {
    // Nothing at or before the deadline is left to run.
    now_ = deadline;
    current_ = kAllRan;
  }
  return n;
}

std::uint64_t Simulator::run_steps(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace srp::sim
