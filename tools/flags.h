// Strict numeric flag parsing shared by the command-line tools, so every
// tool rejects the same malformed values ("+7", " 7", "-0", "7x", out of
// range) and exits 2 on bad input.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace sm::tools {

/// Strict unsigned parse: `value` must be plain decimal digits (no sign,
/// no whitespace, no trailing bytes) and at most `max`. strtoull alone
/// would accept a sign or leading spaces, and silently wrap negatives.
inline bool parse_u64(const char* value, std::uint64_t max,
                      std::uint64_t& out) {
  if (*value < '0' || *value > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE || parsed > max) {
    return false;
  }
  out = parsed;
  return true;
}

/// parse_u64, exiting 2 with a uniform diagnostic on bad input.
inline std::uint64_t parse_u64_or_die(const char* flag, const char* value,
                                      std::uint64_t max) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, max, parsed)) {
    std::fprintf(stderr, "invalid %s value '%s' (want an integer 0-%llu)\n",
                 flag, value, static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return parsed;
}

/// Strict (0, 1] double parse for --scale-style flags; exits 2 on bad input.
inline double parse_scale_or_die(const char* flag, const char* value) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (*value == '\0' || end == nullptr || *end != '\0' || !(parsed > 0.0) ||
      parsed > 1.0) {
    std::fprintf(stderr, "invalid %s value '%s' (want 0 < F <= 1)\n", flag,
                 value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace sm::tools
