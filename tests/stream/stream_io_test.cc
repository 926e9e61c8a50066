#include "stream/stream_io.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <limits>
#include <string>

#include "stream/exact.h"
#include "stream/generators.h"

namespace gstream {
namespace {

TEST(StreamIoTest, RoundTripInMemory) {
  Stream s(100);
  s.Append(1, 5);
  s.Append(99, -3);
  s.Append(1, 2);
  const auto loaded = StreamFromText(StreamToText(s));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->domain(), 100u);
  ASSERT_EQ(loaded->length(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded->updates()[i].item, s.updates()[i].item);
    EXPECT_EQ(loaded->updates()[i].delta, s.updates()[i].delta);
  }
}

TEST(StreamIoTest, RoundTripGeneratedWorkload) {
  Rng rng(1);
  const Workload w = MakeZipfWorkload(1 << 12, 500, 1.3, 10000,
                                      StreamShapeOptions{}, rng);
  const auto loaded = StreamFromText(StreamToText(w.stream));
  ASSERT_TRUE(loaded.has_value());
  const FrequencyMap reloaded = ExactFrequencies(*loaded);
  EXPECT_EQ(reloaded.size(), w.frequencies.size());
  for (const auto& [item, value] : w.frequencies) {
    EXPECT_EQ(reloaded.at(item), value);
  }
}

TEST(StreamIoTest, CommentsAndBlankLinesIgnored) {
  const auto loaded = StreamFromText(
      "# a saved workload\n\ngstream-v1 16  # header\n"
      "3 7\n\n# trailing comment\n5 -2\n");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->length(), 2u);
  EXPECT_EQ(loaded->updates()[1].delta, -2);
}

TEST(StreamIoTest, RejectsBadMagic) {
  EXPECT_FALSE(StreamFromText("gstream-v2 16\n1 1\n").has_value());
  EXPECT_FALSE(StreamFromText("1 1\n").has_value());
  EXPECT_FALSE(StreamFromText("").has_value());
}

TEST(StreamIoTest, RejectsOutOfDomainItem) {
  EXPECT_FALSE(StreamFromText("gstream-v1 16\n16 1\n").has_value());
}

TEST(StreamIoTest, RejectsMalformedLines) {
  EXPECT_FALSE(StreamFromText("gstream-v1 16\n1\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 16\n1 2 3\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 16\nfoo bar\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 0\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 16 junk\n1 1\n").has_value());
}

TEST(StreamIoTest, FileRoundTrip) {
  Stream s(32);
  s.Append(7, 42);
  s.Append(8, -42);
  const std::string path = ::testing::TempDir() + "/gstream_io_test.txt";
  ASSERT_TRUE(SaveStream(s, path));
  const auto loaded = LoadStream(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->length(), 2u);
  EXPECT_EQ(loaded->updates()[0].item, 7u);
  std::remove(path.c_str());
}

TEST(StreamIoTest, LoadMissingFileFails) {
  LoadStatus status;
  EXPECT_FALSE(LoadStream("/nonexistent/path/stream.txt", &status)
                   .has_value());
  EXPECT_EQ(status.error, LoadError::kIoError);
  EXPECT_NE(status.message.find("/nonexistent/path/stream.txt"),
            std::string::npos);
}

TEST(StreamIoTest, RealIoErrorMessagePinsErrnoShape) {
  // The kIoError message shape for *real* failures is
  // "<path>: <syscall> failed: <strerror> (errno N)" -- carrying the OS
  // error so logs are actionable, and structurally distinct from injected
  // faults (which carry "injected fault <site>" instead; pinned in
  // tests/engine/fault_injection_test.cc).  A missing file is the
  // always-reproducible real failure: ENOENT.
  LoadStatus status;
  EXPECT_FALSE(LoadStream("/nonexistent/path/stream.txt", &status)
                   .has_value());
  EXPECT_EQ(status.error, LoadError::kIoError);
  EXPECT_NE(status.message.find("open failed: "), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("(errno " + std::to_string(ENOENT) + ")"),
            std::string::npos)
      << status.message;
  EXPECT_EQ(status.message.find("injected fault"), std::string::npos)
      << status.message;
}

TEST(StreamIoTest, RealReadErrorMessagePinsErrnoShape) {
  // A directory opens for reading but read(2) fails with EISDIR: the read
  // step's "<path>: read failed: <strerror> (errno N)" shape.
  const std::string dir = ::testing::TempDir();
  LoadStatus status;
  EXPECT_FALSE(LoadStream(dir, &status).has_value());
  EXPECT_EQ(status.error, LoadError::kIoError);
  EXPECT_EQ(status.message.rfind(dir + ": read failed: ", 0), 0u)
      << status.message;
  EXPECT_NE(status.message.find("(errno " + std::to_string(EISDIR) + ")"),
            std::string::npos)
      << status.message;
}

// ---------------------------------------------------------------------------
// Corruption coverage: every malformed input comes back as (nullopt,
// reason, line number) -- never UB, never abort.  The reason codes are
// asserted exactly so a refactor cannot silently merge failure modes.
// ---------------------------------------------------------------------------

LoadStatus StatusOf(const std::string& text) {
  LoadStatus status;
  EXPECT_FALSE(StreamFromText(text, &status).has_value()) << text;
  return status;
}

TEST(StreamIoCorruptionTest, EmptyFile) {
  EXPECT_EQ(StatusOf("").error, LoadError::kBadMagic);
  EXPECT_EQ(StatusOf("# only comments\n\n  \n").error, LoadError::kBadMagic);
}

TEST(StreamIoCorruptionTest, HeaderGarbage) {
  const LoadStatus magic = StatusOf("gstream-v2 16\n1 1\n");
  EXPECT_EQ(magic.error, LoadError::kBadMagic);
  EXPECT_NE(magic.message.find("line 1"), std::string::npos);

  // Header on a later line: the diagnostic names *that* line.
  const LoadStatus late = StatusOf("# saved\n\nnot-a-header 16\n");
  EXPECT_EQ(late.error, LoadError::kBadMagic);
  EXPECT_NE(late.message.find("line 3"), std::string::npos);

  EXPECT_EQ(StatusOf("gstream-v1 sixteen\n").error, LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 16 junk\n1 1\n").error,
            LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 0\n").error, LoadError::kDomainError);
}

TEST(StreamIoCorruptionTest, TruncatedFile) {
  // A write cut off mid-record leaves a line with a lone item and no
  // delta; the loader reports the exact line.
  const LoadStatus status = StatusOf("gstream-v1 16\n3 7\n5\n");
  EXPECT_EQ(status.error, LoadError::kParseError);
  EXPECT_NE(status.message.find("line 3"), std::string::npos);
  // Truncation that removes the update lines entirely still parses (an
  // empty stream is legal), and a header cut mid-token does not.
  EXPECT_TRUE(StreamFromText("gstream-v1 16\n").has_value());
  EXPECT_EQ(StatusOf("gstream-v1\n").error, LoadError::kParseError);
}

TEST(StreamIoCorruptionTest, OutOfDomainItem) {
  const LoadStatus status = StatusOf("gstream-v1 16\n1 1\n16 1\n");
  EXPECT_EQ(status.error, LoadError::kDomainError);
  EXPECT_NE(status.message.find("line 3"), std::string::npos);
  EXPECT_NE(status.message.find("16"), std::string::npos);
}

TEST(StreamIoCorruptionTest, IntegerOverflow) {
  // 2^64 and a delta beyond int64_t range: both overflow their fields and
  // must be parse errors, not silent wraparound.
  EXPECT_EQ(StatusOf("gstream-v1 16\n18446744073709551616 1\n").error,
            LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 16\n1 99999999999999999999\n").error,
            LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 99999999999999999999999\n").error,
            LoadError::kParseError);
}

// ---------------------------------------------------------------------------
// Grammar pins: the update-line grammar is operator>>'s (libstdc++, "C"
// locale).  Each corner below is accepted or rejected on purpose; change
// one deliberately, never as a side effect of a parser rewrite.
// ---------------------------------------------------------------------------

TEST(StreamIoGrammarTest, PlusSignAccepted) {
  const auto loaded = StreamFromText("gstream-v1 16\n+5 2\n");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->updates()[0].item, 5u);
  EXPECT_EQ(loaded->updates()[0].delta, 2);
}

TEST(StreamIoGrammarTest, SignGluedToItemSeparatesDelta) {
  const auto loaded = StreamFromText("gstream-v1 16\n5-3\n");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->updates()[0].item, 5u);
  EXPECT_EQ(loaded->updates()[0].delta, -3);
}

TEST(StreamIoGrammarTest, NegativeItemWrapsToDomainError) {
  const LoadStatus status = StatusOf("gstream-v1 16\n-3 1\n");
  EXPECT_EQ(status.error, LoadError::kDomainError);
  EXPECT_NE(status.message.find("18446744073709551613"), std::string::npos)
      << status.message;
}

TEST(StreamIoGrammarTest, VerticalTabSeparatesTokens) {
  const auto loaded = StreamFromText("gstream-v1 16\n1\v2\n3\f4\n");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->length(), 2u);
  EXPECT_EQ(loaded->updates()[0].delta, 2);
  EXPECT_EQ(loaded->updates()[1].item, 3u);
}

TEST(StreamIoGrammarTest, DeltaInt64MinAcceptedOneBelowRejected) {
  const auto loaded =
      StreamFromText("gstream-v1 16\n1 -9223372036854775808\n");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->updates()[0].delta, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(StatusOf("gstream-v1 16\n1 -9223372036854775809\n").error,
            LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 16\n1 9223372036854775808\n").error,
            LoadError::kParseError);
}

TEST(StreamIoGrammarTest, LastLineWithoutNewlineIsRead) {
  const auto loaded = StreamFromText("gstream-v1 16\n1 2\n3 4");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->length(), 2u);
  EXPECT_EQ(loaded->updates()[1].item, 3u);
  EXPECT_EQ(loaded->updates()[1].delta, 4);
}

TEST(StreamIoCorruptionTest, SuccessReportsOk) {
  LoadStatus status = LoadStatus::Fail(LoadError::kIoError, "stale");
  EXPECT_TRUE(StreamFromText("gstream-v1 16\n1 1\n", &status).has_value());
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(status.message.empty());
}

}  // namespace
}  // namespace gstream
