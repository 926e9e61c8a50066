// Span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a gstream module (name "<module>/<call>"), never inside the library.
// Each span has an id, a parent id (explicit, or the innermost open span of
// the recording thread), start and end on the steady clock, and the dense
// index of the recording thread.  Finished spans are kept in memory and
// written out once, when the run ends (WriteChromeTrace).
//
// A disabled Tracer records nothing and reads no clock: Scope costs one
// branch, so the untraced run measures the pipeline, not the tracer.

#ifndef E2EBENCH_TRACER_H_
#define E2EBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

uint64_t NowNs();

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;  // 0: no parent
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  // Parent argument meaning "the innermost span open on this thread".
  static constexpr int64_t kInnermost = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // RAII span.  `name` must be a string literal (it is stored, not copied).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int64_t parent = kInnermost);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // 0 when the tracer is disabled.
    int64_t id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  // Finished spans, in completion order.
  std::vector<Span> Spans() const;

  // Share of span `id`'s interval not covered by the union of its direct
  // children on the same thread: the time the trace leaves unattributed.
  double UnattributedShare(int64_t id) const;

  // Chrome trace-event JSON ("X" events; id and parent in args).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> done_;  // guarded by mu_
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACER_H_
