// Flag parsing shared by the tools: `--name=value` matching and strict
// numeric values.  A malformed number must fail before any engine starts:
// through a bare strtoull, "abc" reads as 0, which turns a bit-exactness
// oracle into a vacuous pass over zero updates, trips an engine CHECK, or
// silently disables a kill point.  So a numeric flag is all decimal digits
// without overflow (and nonzero for counts), or the tool exits 2.

#ifndef GSTREAM_TOOLS_TOOL_FLAGS_H_
#define GSTREAM_TOOLS_TOOL_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace gstream {

// True when `arg` is `name=value`; the value goes to *out.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

// The value of numeric flag `name` of `tool`.  `positive` marks a count,
// for which 0 is rejected too.  Anything else prints the reason and exits 2.
inline uint64_t NumberFlag(const char* tool, const char* name,
                           const std::string& v, bool positive) {
  errno = 0;
  const uint64_t n = std::strtoull(v.c_str(), nullptr, 10);
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE || (positive && n == 0)) {
    std::fprintf(stderr, "%s: invalid %s=%s (want a %s integer)\n", tool,
                 name, v.c_str(), positive ? "positive" : "non-negative");
    std::exit(2);
  }
  return n;
}

}  // namespace gstream

#endif  // GSTREAM_TOOLS_TOOL_FLAGS_H_
