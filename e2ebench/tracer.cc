#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace e2ebench {
namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

// Ids of the spans open on this thread, innermost last.
thread_local std::vector<int64_t> open_spans;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, int64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  span_.name = name;
  span_.id = tracer_.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != kInnermost        ? parent
                 : open_spans.empty()        ? 0
                                             : open_spans.back();
  span_.thread = ThreadIndex();
  open_spans.push_back(span_.id);
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  span_.end_ns = NowNs();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_.mu_);
  tracer_.done_.push_back(span_);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

double Tracer::UnattributedShare(int64_t id) const {
  const std::vector<Span> spans = Spans();
  const auto self = std::find_if(spans.begin(), spans.end(),
                                 [id](const Span& s) { return s.id == id; });
  if (self == spans.end() || self->end_ns <= self->start_ns) return 1.0;
  std::vector<std::pair<uint64_t, uint64_t>> children;
  for (const Span& s : spans) {
    if (s.parent != id || s.thread != self->thread) continue;
    children.emplace_back(std::max(s.start_ns, self->start_ns),
                          std::min(s.end_ns, self->end_ns));
  }
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t reach = self->start_ns;
  for (const auto& [begin, end] : children) {
    const uint64_t from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  const double wall = static_cast<double>(self->end_ns - self->start_ns);
  return (wall - static_cast<double>(covered)) / wall;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t epoch = spans.empty() ? 0
                         : std::min_element(spans.begin(), spans.end(),
                                            [](const Span& a, const Span& b) {
                                              return a.start_ns < b.start_ns;
                                            })->start_ns;
  bool ok = std::fputs("{\"traceEvents\": [\n", f) >= 0;
  for (size_t i = 0; i < spans.size() && ok; ++i) {
    const Span& s = spans[i];
    ok = std::fprintf(
             f,
             "  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
             "\"pid\": 1, \"tid\": %u, \"args\": {\"id\": %lld, \"parent\": "
             "%lld}}%s\n",
             s.name, static_cast<double>(s.start_ns - epoch) / 1e3,
             static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
             static_cast<long long>(s.id), static_cast<long long>(s.parent),
             i + 1 < spans.size() ? "," : "") > 0;
  }
  ok = ok && std::fputs("]}\n", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

}  // namespace e2ebench
