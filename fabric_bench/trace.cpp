#include "trace.hpp"

#include <cstdio>

namespace fabric_bench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"op\":%llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i, parent,
                  static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace fabric_bench
