// Plain-text serialization of streams: save a generated workload once,
// replay it across runs, tools, or machines.
//
// Format (line-oriented, '#' comments allowed):
//
//   gstream-v1 <domain>
//   <item> <delta>
//   <item> <delta>
//   ...
//
// Exact grammar (that of operator>> in libstdc++'s "C" locale, pinned by
// tests/stream/stream_io_test.cc and a differential test against the
// original istringstream parser):
//   * Lines end at '\n'; a final line without one is still read.  A '#'
//     starts a comment running to the end of the line.  What remains is
//     trimmed of ' ', '\t' and '\r'; a line left empty is skipped.
//   * The first non-empty line is the header: the token "gstream-v1",
//     then a positive <domain> (read like <item> below), then nothing.
//   * Inside a line, tokens are separated by any run of ' ', '\t', '\v',
//     '\f' or '\r'.  A line holding only '\v' or '\f' is not blank and
//     fails to parse.
//   * An integer is an optional '+' or '-' followed by one or more decimal
//     digits; it ends at the first non-digit, which need not be a
//     separator, so "5-3" is the update (5, -3).
//   * <item> is unsigned 64-bit: magnitudes above 2^64-1 are parse errors,
//     and a '-' negates modulo 2^64, so "-3" reads as 2^64-3 and then
//     fails the domain check.  <delta> is signed 64-bit: [-2^63, 2^63-1],
//     anything outside is a parse error.  Leading zeros are allowed.
//   * Any token after <delta> is a parse error.
//
// Loading validates the header, the domain bound on every item, and
// integer syntax; failures return std::nullopt rather than aborting, so
// callers can handle user-supplied files gracefully.  Pass a LoadStatus
// to learn *why* a load failed: the reason code distinguishes a missing
// file from a garbled header from an out-of-domain item, and the message
// names the offending line.

#ifndef GSTREAM_STREAM_STREAM_IO_H_
#define GSTREAM_STREAM_STREAM_IO_H_

#include <optional>
#include <string>

#include "stream/stream.h"
#include "util/status.h"

namespace gstream {

// Serializes `stream` to the text format.  Returns false on I/O error.
bool SaveStream(const Stream& stream, const std::string& path);

// Parses a stream from the text format; nullopt on syntax, header, or
// domain violations (and on I/O errors).  On failure `status` (when
// given) holds the reason: kIoError for unreadable files, kBadMagic for
// a missing/foreign header, kParseError for bad tokens or integer
// overflow, kDomainError for well-formed values violating the domain
// bound -- each with the 1-based line number in the message.
std::optional<Stream> LoadStream(const std::string& path,
                                 LoadStatus* status = nullptr);

// In-memory variants (used by the file functions and directly testable).
std::string StreamToText(const Stream& stream);
std::optional<Stream> StreamFromText(const std::string& text,
                                     LoadStatus* status = nullptr);

}  // namespace gstream

#endif  // GSTREAM_STREAM_STREAM_IO_H_
