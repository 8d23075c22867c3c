// One parser for every HCL_* environment variable (README operator table).
//
// Each helper returns the caller's default when the variable is unset,
// empty, malformed or out of range — never a half-parsed value:
//   env_number<T>(name, fallback, lo, hi)  the whole string must parse as a
//       T (an integer, or a floating-point value for T = double) in [lo, hi]
//       (hi defaults to T's maximum); no sign on unsigned types, no leading
//       or trailing junk;
//   env_bool(name, fallback)  `1`/`on`/`true` is true, `0`/`off`/`false`
//       is false;
//   env_string(name, fallback)  the value as is.
// This is the only file in src/ that reads the environment, and
// scripts/check_docs.py takes the variable names from these calls.
#pragma once

#include <charconv>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

namespace hcl {

inline std::string env_string(const char* name, std::string fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

template <typename T>
T env_number(const char* name, T fallback, T lo,
             T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const std::string raw = env_string(name, {});
  const char* const end = raw.data() + raw.size();
  T value{};
  const auto [stop, error] = std::from_chars(raw.data(), end, value);
  // Written as "not inside" so a NaN is out of range too.
  if (raw.empty() || error != std::errc{} || stop != end ||
      !(value >= lo && value <= hi)) {
    return fallback;
  }
  return value;
}

inline bool env_bool(const char* name, bool fallback) {
  const std::string raw = env_string(name, {});
  if (raw == "1" || raw == "on" || raw == "true") return true;
  if (raw == "0" || raw == "off" || raw == "false") return false;
  return fallback;
}

}  // namespace hcl
