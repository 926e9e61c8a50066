#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace gstream {

FileReadResult ReadWholeFile(const std::string& path, std::string* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {FileReadResult::kOpen, errno};
  struct stat st;
  const size_t expected =
      (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode))
          ? static_cast<size_t>(st.st_size)
          : 0;
  // One spare byte lets the EOF probe land in the buffer without growing
  // it (and copying the whole file) when the size was exact.
  bytes->resize(expected + 1);
  size_t used = 0;
  for (;;) {
    if (used == bytes->size()) {
      bytes->resize(std::max<size_t>(2 * bytes->size(), size_t{1} << 14));
    }
    const ssize_t got = ::read(fd, bytes->data() + used, bytes->size() - used);
    if (got < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return {FileReadResult::kRead, err};
    }
    if (got == 0) break;
    used += static_cast<size_t>(got);
  }
  ::close(fd);
  bytes->resize(used);
  return {};
}

}  // namespace gstream
