#include "stream/stream_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/fault.h"
#include "util/file_io.h"

namespace gstream {
namespace {

constexpr char kMagic[] = "gstream-v1";

// Real I/O failures carry "<syscall> failed: <strerror> (errno N)" so logs
// can be correlated with the OS error; injected ones (fault sites below)
// carry fault::InjectedFaultMessage instead -- the two are always
// distinguishable by message shape.  tests/stream/stream_io_test.cc pins
// both shapes.
std::string ErrnoDetail(const char* op, int err) {
  return std::string(op) + " failed: " + std::strerror(err) + " (errno " +
         std::to_string(err) + ")";
}

// Cuts the line starting at `*pos` (without its '\n') and moves `*pos`
// past it; false once the text is exhausted.  As with std::getline, a
// final line without '\n' is a line, an empty tail after the last is not.
bool NextLine(std::string_view text, size_t* pos, std::string_view* line) {
  if (*pos >= text.size()) return false;
  const size_t end = std::min(text.find('\n', *pos), text.size());
  *line = text.substr(*pos, end - *pos);
  *pos = end + 1;
  return true;
}

// Strips a trailing comment and surrounding " \t\r" (not '\v'/'\f': a line
// holding only those is not blank, and fails to parse).
std::string_view StripLine(std::string_view line) {
  line = line.substr(0, line.find('#'));
  const auto trim = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (!line.empty() && trim(line.front())) line.remove_prefix(1);
  while (!line.empty() && trim(line.back())) line.remove_suffix(1);
  return line;
}

// std::isspace in the "C" locale: the separators operator>> skips.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Scans one integer token of operator>>'s grammar (libstdc++, "C" locale,
// decimal): skips leading whitespace, then an optional '+' or '-', then a
// maximal run of at least one digit.  Stops at the first non-digit, which
// need not be whitespace.  Returns the magnitude and the sign separately;
// false when there is no digit or the magnitude overflows 64 bits.
bool ScanInteger(std::string_view s, size_t* pos, uint64_t* magnitude,
                 bool* negative) {
  size_t i = *pos;
  while (i < s.size() && IsSpace(s[i])) ++i;
  *negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    *negative = s[i] == '-';
    ++i;
  }
  const size_t digits = i;
  uint64_t v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    const uint64_t d = static_cast<uint64_t>(s[i] - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  if (i == digits) return false;
  *pos = i;
  *magnitude = v;
  return true;
}

// Parses "<item> <delta>" (the stripped body of one update line); false on
// any syntax error, overflow, or trailing token.  As with num_get, a '-' on
// the unsigned item wraps modulo 2^64 (so "-3" reaches the domain check),
// while the delta accepts magnitudes up to 2^63 only when negative.
bool ParseUpdate(std::string_view s, uint64_t* item, int64_t* delta) {
  size_t pos = 0;
  uint64_t magnitude = 0;
  bool negative = false;
  if (!ScanInteger(s, &pos, &magnitude, &negative)) return false;
  *item = negative ? 0 - magnitude : magnitude;
  if (!ScanInteger(s, &pos, &magnitude, &negative)) return false;
  constexpr uint64_t kMaxPositive = std::numeric_limits<int64_t>::max();
  if (magnitude > (negative ? kMaxPositive + 1 : kMaxPositive)) return false;
  *delta = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
  while (pos < s.size() && IsSpace(s[pos])) ++pos;
  return pos == s.size();
}

}  // namespace

std::string StreamToText(const Stream& stream) {
  std::ostringstream out;
  out << kMagic << ' ' << stream.domain() << '\n';
  for (const Update& u : stream.updates()) {
    out << u.item << ' ' << u.delta << '\n';
  }
  return out.str();
}

std::optional<Stream> StreamFromText(const std::string& text,
                                     LoadStatus* status) {
  const std::string_view view(text);
  size_t pos = 0;
  size_t line_no = 0;
  std::string_view line;
  // Header.
  uint64_t domain = 0;
  {
    std::string_view stripped;
    while (NextLine(view, &pos, &line)) {
      ++line_no;
      stripped = StripLine(line);
      if (!stripped.empty()) break;
    }
    if (stripped.empty()) {
      ReportStatus(LoadStatus::Fail(LoadError::kBadMagic,
                                    "no header line (empty input?)"),
                   status);
      return std::nullopt;
    }
    const size_t header_line = line_no;
    std::istringstream header{std::string(stripped)};
    std::string magic;
    if (!(header >> magic) || magic != kMagic) {
      ReportStatus(
          LoadStatus::Fail(LoadError::kBadMagic,
                           "line " + std::to_string(header_line) +
                               ": expected '" + kMagic + " <domain>' header"),
          status);
      return std::nullopt;
    }
    if (!(header >> domain)) {
      ReportStatus(
          LoadStatus::Fail(LoadError::kParseError,
                           "line " + std::to_string(header_line) +
                               ": domain is not a 64-bit unsigned integer"),
          status);
      return std::nullopt;
    }
    if (domain == 0) {
      ReportStatus(LoadStatus::Fail(LoadError::kDomainError,
                                    "line " + std::to_string(header_line) +
                                        ": domain must be positive"),
                   status);
      return std::nullopt;
    }
    std::string extra;
    if (header >> extra) {
      ReportStatus(LoadStatus::Fail(LoadError::kParseError,
                                    "line " + std::to_string(header_line) +
                                        ": unexpected token '" + extra +
                                        "' after header"),
                   status);
      return std::nullopt;
    }
  }
  Stream stream(domain);
  // Each remaining line holds at most one update.
  if (pos < view.size()) {
    stream.Reserve(1 + static_cast<size_t>(std::count(view.begin() + pos,
                                                      view.end(), '\n')));
  }
  while (NextLine(view, &pos, &line)) {
    ++line_no;
    const std::string_view stripped = StripLine(line);
    if (stripped.empty()) continue;
    uint64_t item = 0;
    int64_t delta = 0;
    if (!ParseUpdate(stripped, &item, &delta)) {
      ReportStatus(LoadStatus::Fail(
                       LoadError::kParseError,
                       "line " + std::to_string(line_no) +
                           ": expected '<item> <delta>', got '" +
                           std::string(stripped) + "'"),
                   status);
      return std::nullopt;
    }
    if (item >= domain) {
      ReportStatus(LoadStatus::Fail(
                       LoadError::kDomainError,
                       "line " + std::to_string(line_no) + ": item " +
                           std::to_string(item) + " outside domain " +
                           std::to_string(domain)),
                   status);
      return std::nullopt;
    }
    stream.Append(item, delta);
  }
  ReportStatus(LoadStatus::Ok(), status);
  return stream;
}

bool SaveStream(const Stream& stream, const std::string& path) {
  static fault::FaultPoint* const kWriteFault =
      fault::Registry::Get().GetPoint("stream_io/write_error");
  if (kWriteFault->ShouldFire()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = StreamToText(stream);
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<Stream> LoadStream(const std::string& path,
                                 LoadStatus* status) {
  // Fault sites (handles are process-lifetime, fetched once): injected
  // open/read errors take exactly the real error paths below, but with the
  // uniform injected-fault message in place of the errno detail.  The read
  // site is consulted only when the open succeeded.
  static fault::FaultPoint* const kOpenFault =
      fault::Registry::Get().GetPoint("stream_io/open_error");
  static fault::FaultPoint* const kReadFault =
      fault::Registry::Get().GetPoint("stream_io/read_error");
  if (kOpenFault->ShouldFire()) {
    ReportStatus(
        LoadStatus::Fail(LoadError::kIoError,
                         path + ": " +
                             fault::InjectedFaultMessage(kOpenFault->name())),
        status);
    return std::nullopt;
  }
  std::string text;
  const FileReadResult read = ReadWholeFile(path, &text);
  if (read.step == FileReadResult::kOpen) {
    ReportStatus(LoadStatus::Fail(LoadError::kIoError,
                                  path + ": " + ErrnoDetail("open", read.err)),
                 status);
    return std::nullopt;
  }
  if (kReadFault->ShouldFire()) {
    ReportStatus(
        LoadStatus::Fail(LoadError::kIoError,
                         path + ": " +
                             fault::InjectedFaultMessage(kReadFault->name())),
        status);
    return std::nullopt;
  }
  if (!read.ok()) {
    ReportStatus(LoadStatus::Fail(LoadError::kIoError,
                                  path + ": " + ErrnoDetail("read", read.err)),
                 status);
    return std::nullopt;
  }
  return StreamFromText(text, status);
}

}  // namespace gstream
