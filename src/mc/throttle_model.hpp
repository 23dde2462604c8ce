// Source-throttle model for the bounded checker (DESIGN.md §10).
//
// Wraps the pure transition core the congestion throttle drives
// (congestion/throttle_core.hpp) in a one-flow world: rate reports,
// packet acquisitions and periodic ramp/expiry ticks interleave freely
// within budgets, with abstract time advancing one ramp interval per
// tick.  Invariants: every throttle reaches expired once reports stop,
// an active entry's rate stays below the release ceiling, and the
// pacing cursor (next_free) never moves backwards.
#pragma once

#include "congestion/throttle_core.hpp"
#include "mc/model.hpp"

namespace srp::mc {

struct ThrottleScenario {
  std::uint8_t report_budget = 2;
  std::uint8_t acquire_budget = 2;
  std::uint8_t tick_budget = 6;
  double report_rate_bps = 1000.0;
  double rate_ceiling_bps = 1500.0;
};

class ThrottleModel : public Model {
 public:
  explicit ThrottleModel(ThrottleScenario scenario = {},
                         cc::ThrottleStepFn step = &cc::throttle_step);

  [[nodiscard]] std::string name() const override { return "throttle"; }
  [[nodiscard]] StateBytes initial() const override;
  void enabled(const StateBytes& state,
               std::vector<Event>* events) const override;
  [[nodiscard]] StateBytes apply(const StateBytes& state,
                                 const Event& event) const override;
  [[nodiscard]] std::string check(const StateBytes& state) const override;
  [[nodiscard]] bool terminal(const StateBytes& state) const override;
  [[nodiscard]] std::uint64_t progress(
      const StateBytes& state) const override;
  [[nodiscard]] std::vector<std::string> invariants() const override;

  // Event codes.
  static constexpr std::uint8_t kReport = 1;
  static constexpr std::uint8_t kAcquire = 2;
  static constexpr std::uint8_t kTick = 3;

 private:
  ThrottleScenario scenario_;
  cc::ThrottleConfig config_;
  cc::ThrottleStepFn step_;
};

}  // namespace srp::mc
