// Whole-file reads shared by the loaders (text stream files, sketch blobs,
// checkpoints).  The helper reports *which* syscall failed and its errno;
// each caller renders its own diagnostic, so every loader keeps its pinned
// message shape.

#ifndef GSTREAM_UTIL_FILE_IO_H_
#define GSTREAM_UTIL_FILE_IO_H_

#include <string>

namespace gstream {

// Outcome of ReadWholeFile: the failed step (kOk when none) and its errno.
struct FileReadResult {
  enum Step { kOk, kOpen, kRead };
  Step step = kOk;
  int err = 0;

  bool ok() const { return step == kOk; }
};

// Replaces `*bytes` with the whole content of `path`.  A regular file is
// read with one read(2) into a buffer sized by fstat(2) (plus the 0-byte
// read that confirms EOF); anything else (a pipe, a file growing under
// us) falls back to doubling the buffer until EOF.  On failure `*bytes`
// is unspecified.
FileReadResult ReadWholeFile(const std::string& path, std::string* bytes);

}  // namespace gstream

#endif  // GSTREAM_UTIL_FILE_IO_H_
