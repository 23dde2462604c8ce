// The benchmark's own spans and allocation counter.
//
// Spans are recorded only around the benchmark's calls into the layers'
// public functions (the program itself is not instrumented).  Each span has
// a name, a start and end in wall nanoseconds, the index of the span that
// was open when it began (its parent) and an operation id (packet sequence
// number or transaction number).  Self time per span name is aggregated on
// the fly, so the totals cover every span even when only the first
// kMaxKept are retained for the Chrome trace export.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fabric_bench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counting hook of the replaced global operator new (alloc_count.cpp).
struct AllocCounter {
  static void enable(bool on);
  static std::uint64_t calls();
  static std::uint64_t bytes();
};

class Tracer {
 public:
  static constexpr std::size_t kMaxKept = 200'000;
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFF;

  struct Span {
    const char* name = nullptr;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = kNoParent;  ///< index into the kept spans
    std::uint64_t op = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by direct children
    [[nodiscard]] std::int64_t self_ns() const { return total_ns - child_ns; }
  };

  void set_enabled(bool on) {
    enabled_ = on;
    // Reserved up front so recording allocates nothing mid-run.
    if (on) {
      spans_.reserve(kMaxKept);
      stack_.reserve(64);
    }
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(const char* name, std::uint64_t op) {
    Open o;
    o.name = name;
    o.kept = spans_.size() < kMaxKept ? static_cast<std::uint32_t>(
                                            spans_.size())
                                      : kNoParent;
    if (o.kept != kNoParent) {
      Span s;
      s.name = name;
      s.op = op;
      s.parent = stack_.empty() ? kNoParent : stack_.back().kept;
      spans_.push_back(s);
    }
    stack_.push_back(o);
    stack_.back().start = wall_ns();
    if (o.kept != kNoParent) spans_[o.kept].start = stack_.back().start;
  }

  void end() {
    const std::int64_t now = wall_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now - o.start;
    Totals& t = totals_[o.name];
    ++t.count;
    t.total_ns += dur;
    if (!stack_.empty()) totals_[stack_.back().name].child_ns += dur;
    if (o.kept != kNoParent) spans_[o.kept].end = now;
  }

  /// Aggregates by span name.  Keys are the string literals passed to
  /// begin(), compared by content.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::map<std::string, Totals> out;
    for (const auto& [name, t] : totals_) {
      Totals& o = out[name];
      o.count += t.count;
      o.total_ns += t.total_ns;
      o.child_ns += t.child_ns;
    }
    return out;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  struct Open {
    const char* name = nullptr;
    std::int64_t start = 0;
    std::uint32_t kept = kNoParent;
  };

  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::map<const char*, Totals> totals_;
};

/// The one tracer of the process.
Tracer& tracer();

/// Records a span for the enclosing scope when tracing is on; with tracing
/// off it costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t op) : on_(tracer().enabled()) {
    if (on_) tracer().begin(name, op);
  }
  ~ScopedSpan() {
    if (on_) tracer().end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

}  // namespace fabric_bench
