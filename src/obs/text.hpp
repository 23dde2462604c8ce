// Text-building helpers shared by the exporters (obs, flow, health).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace srp::obs {

/// Appends printf-formatted text to @p out; one call formats at most 255
/// characters.
void append_fmt(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

/// @p s with JSON string escapes applied (quotes, backslash, control
/// characters).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace srp::obs
