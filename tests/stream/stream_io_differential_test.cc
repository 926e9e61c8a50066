// Differential oracle for StreamFromText: the single-pass scanner must
// accept and reject exactly what the original istringstream parser did,
// with the same reason code, the same message, and the same updates.  The
// reference below is that original parser, kept verbatim.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "stream/stream_io.h"
#include "util/random.h"

namespace gstream {
namespace {

constexpr char kMagic[] = "gstream-v1";

// Strips a trailing comment and surrounding whitespace.
std::string StripLine(const std::string& line) {
  std::string s = line;
  const size_t hash = s.find('#');
  if (hash != std::string::npos) s.erase(hash);
  const size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::optional<Stream> ReferenceStreamFromText(const std::string& text,
                                              LoadStatus* status) {
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  // Header.
  uint64_t domain = 0;
  {
    std::string stripped;
    size_t header_line = 0;
    while (std::getline(in, line)) {
      ++line_no;
      stripped = StripLine(line);
      if (!stripped.empty()) {
        header_line = line_no;
        break;
      }
    }
    if (stripped.empty()) {
      ReportStatus(LoadStatus::Fail(LoadError::kBadMagic,
                                    "no header line (empty input?)"),
                   status);
      return std::nullopt;
    }
    std::istringstream header(stripped);
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
  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = StripLine(line);
    if (stripped.empty()) continue;
    std::istringstream fields(stripped);
    uint64_t item = 0;
    int64_t delta = 0;
    std::string extra;
    if (!(fields >> item >> delta) || (fields >> extra)) {
      ReportStatus(LoadStatus::Fail(
                       LoadError::kParseError,
                       "line " + std::to_string(line_no) +
                           ": expected '<item> <delta>', got '" + stripped +
                           "'"),
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

// ---------------------------------------------------------------------------
// Structure-aware case generator: mostly well-formed files, with token- and
// byte-level mutations aimed at the grammar's corners.
// ---------------------------------------------------------------------------

template <size_t N>
const char* Pick(Rng& rng, const char* const (&options)[N]) {
  return options[rng.UniformUint64(N)];
}

std::string DigitRun(Rng& rng, size_t max_len) {
  std::string s;
  const size_t len = 1 + rng.UniformUint64(max_len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('0' + rng.UniformUint64(10)));
  }
  return s;
}

std::string NumberToken(Rng& rng) {
  static const char* const kLiterals[] = {
      "18446744073709551615",  "18446744073709551616",
      "-18446744073709551615", "-18446744073709551616",
      "9223372036854775807",   "9223372036854775808",
      "-9223372036854775808",  "-9223372036854775809",
      "99999999999999999999",  "0",
      "-0",                    "+0",
      "007",                   "0x5",
      "5.3",                   "+",
      "-",                     "--5",
      "+-3",                   "1e3",
  };
  static const char* const kSigns[] = {"", "", "", "+", "-"};
  switch (rng.UniformUint64(6)) {
    case 0:
      return Pick(rng, kLiterals);
    case 1:
      return Pick(rng, kSigns) + DigitRun(rng, 22);
    case 2:
      return Pick(rng, kSigns) + DigitRun(rng, 19);
    default:
      return Pick(rng, kSigns) + std::to_string(rng.UniformUint64(24));
  }
}

std::string Separator(Rng& rng) {
  static const char* const kSeps[] = {" ", " ", " ",  "\t", "\v", "\f",
                                      "\r", "",  "  ", " \t", "\v ", "\f\f"};
  return Pick(rng, kSeps);
}

std::string LineEnd(Rng& rng) {
  static const char* const kEnds[] = {"\n", "\n", "\n", "\r\n",
                                      " \n", "\t\r\n", " # note\n"};
  return Pick(rng, kEnds);
}

std::string UpdateLine(Rng& rng) {
  switch (rng.UniformUint64(12)) {
    case 0:
      return "";  // blank
    case 1:
      return "# comment 1 2";
    case 2:
      return Separator(rng) + "#";
    case 3:
      return NumberToken(rng);  // lone token
    case 4:  // trailing token
      return NumberToken(rng) + Separator(rng) + NumberToken(rng) + " " +
             NumberToken(rng);
    default:
      return Separator(rng) + NumberToken(rng) + Separator(rng) +
             NumberToken(rng) + Separator(rng);
  }
}

std::string HeaderLine(Rng& rng) {
  static const char* const kDomains[] = {
      "16", "16", "16", "24", "1", "0", "-5", "18446744073709551615",
      "18446744073709551616", "sixteen", "16 junk", "+16", "16#x"};
  static const char* const kMagics[] = {kMagic, kMagic, kMagic, kMagic,
                                        kMagic, "gstream-v2", "gstream-v1x"};
  return std::string(Pick(rng, kMagics)) + Separator(rng) +
         Pick(rng, kDomains);
}

// Byte-level mutation at a random position: insert, delete or overwrite
// with one of the grammar's interesting bytes (including NUL).
void Mutate(Rng& rng, std::string* text) {
  static const char kBytes[] = {' ', '\t', '\v', '\f', '\r', '\n', '#', '+',
                                '-', '0',  '5',  '9',  '\0', 'x',  '.'};
  const size_t pos = rng.UniformUint64(text->size() + 1);
  const char byte = kBytes[rng.UniformUint64(sizeof(kBytes))];
  switch (rng.UniformUint64(3)) {
    case 0:
      text->insert(pos, 1, byte);
      break;
    case 1:
      if (pos < text->size()) text->erase(pos, 1);
      break;
    default:
      if (pos < text->size()) (*text)[pos] = byte;
      break;
  }
}

std::string MakeCase(Rng& rng) {
  std::string text;
  const size_t preamble = rng.UniformUint64(8) == 0 ? 1 : 0;
  for (size_t i = 0; i < preamble; ++i) text += "# saved" + LineEnd(rng);
  if (rng.UniformUint64(50) != 0) text += HeaderLine(rng) + LineEnd(rng);
  const size_t lines = rng.UniformUint64(7);
  for (size_t i = 0; i < lines; ++i) text += UpdateLine(rng) + LineEnd(rng);
  // A missing final newline.
  if (rng.UniformUint64(4) == 0 && !text.empty()) text.pop_back();
  const size_t mutations = rng.UniformUint64(4) == 0 ? 1 + rng.UniformUint64(3)
                                                     : 0;
  for (size_t i = 0; i < mutations; ++i) Mutate(rng, &text);
  return text;
}

std::string Printable(const std::string& text) {
  std::ostringstream out;
  for (const char c : text) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out << c;
    } else {
      out << "\\x" << std::hex << (static_cast<unsigned>(c) & 0xff)
          << std::dec;
    }
  }
  return out.str();
}

TEST(StreamIoDifferentialTest, MatchesReferenceParserOnGeneratedCases) {
  constexpr size_t kCases = 120000;
  Rng rng(0x5eed1e55);
  size_t mismatches = 0;
  std::map<LoadError, size_t> outcomes;
  for (size_t c = 0; c < kCases; ++c) {
    const std::string text = MakeCase(rng);
    LoadStatus want_status;
    LoadStatus got_status;
    const std::optional<Stream> want =
        ReferenceStreamFromText(text, &want_status);
    const std::optional<Stream> got = StreamFromText(text, &got_status);
    ++outcomes[want_status.error];
    bool same = want.has_value() == got.has_value() &&
                want_status.error == got_status.error &&
                want_status.message == got_status.message;
    if (same && want.has_value()) {
      same = want->domain() == got->domain() &&
             want->length() == got->length();
      for (size_t i = 0; same && i < want->length(); ++i) {
        same = want->updates()[i].item == got->updates()[i].item &&
               want->updates()[i].delta == got->updates()[i].delta;
      }
    }
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << "case " << c << " \"" << Printable(text)
                    << "\": reference " << LoadErrorName(want_status.error)
                    << " '" << want_status.message << "', scanner "
                    << LoadErrorName(got_status.error) << " '"
                    << got_status.message << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kCases << " cases";
  // The generator must reach every outcome the text loader can report,
  // each often enough that the comparison means something.
  for (const LoadError e : {LoadError::kOk, LoadError::kBadMagic,
                            LoadError::kParseError, LoadError::kDomainError}) {
    EXPECT_GE(outcomes[e], kCases / 50) << LoadErrorName(e);
  }
}

}  // namespace
}  // namespace gstream
