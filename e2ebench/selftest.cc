// e2e_selftest: checks the benchmark's own machinery, not the library.
//
//   * every generator is deterministic per seed and differs across seeds;
//   * each generator's frequency vector is the stream's, by brute force;
//   * the exact g-sum reference matches a brute-force sum on tiny streams;
//   * the gstream-v1 writer round-trips through the library's LoadStream;
//   * the tracer's reconciliation arithmetic is right on a known layout.
//
// run.py --selftest runs this, then runs every workload at a small scale in
// both modes and checks each metric BENCHMARK.json names appears with its
// unit.  Exits 1 on the first failed check.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gfunc/catalog.h"
#include "inputs.h"
#include "stream/exact.h"
#include "stream/stream_io.h"
#include "tracer.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool SameUpdates(const gstream::Stream& a, const gstream::Stream& b) {
  if (a.length() != b.length() || a.domain() != b.domain()) return false;
  for (size_t i = 0; i < a.length(); ++i) {
    if (a.updates()[i].item != b.updates()[i].item ||
        a.updates()[i].delta != b.updates()[i].delta) {
      return false;
    }
  }
  return true;
}

std::map<gstream::ItemId, int64_t> BruteFrequencies(
    const gstream::Stream& s) {
  std::map<gstream::ItemId, int64_t> freq;
  for (const gstream::Update& u : s.updates()) freq[u.item] += u.delta;
  for (auto it = freq.begin(); it != freq.end();) {
    it = it->second == 0 ? freq.erase(it) : std::next(it);
  }
  return freq;
}

bool FrequenciesMatch(const e2ebench::Input& in) {
  const auto brute = BruteFrequencies(in.stream);
  if (brute.size() != in.frequencies.size()) return false;
  for (const auto& [item, f] : brute) {
    const auto it = in.frequencies.find(item);
    if (it == in.frequencies.end() || it->second != f) return false;
  }
  return true;
}

void CheckGenerator(const char* name,
                    e2ebench::Input (*make)(uint64_t seed)) {
  const e2ebench::Input a = make(7), b = make(7), c = make(8);
  Expect(SameUpdates(a.stream, b.stream), std::string(name) +
                                              ": same seed, same stream");
  Expect(!SameUpdates(a.stream, c.stream),
         std::string(name) + ": different seeds, different streams");
  Expect(FrequenciesMatch(a), std::string(name) +
                                  ": frequency vector matches the stream");
}

e2ebench::Input TinyZipf(uint64_t seed) {
  e2ebench::ZipfShape shape;
  shape.updates = 300;
  shape.domain = 1 << 10;
  shape.ranks = 64;
  shape.turnstile_share = 0.3;
  return e2ebench::MakeZipfInput(shape, seed);
}

e2ebench::Input TinyClicks(uint64_t seed) {
  e2ebench::ClickShape shape;
  shape.domain = 1 << 10;
  shape.users = 40;
  shape.enthusiasts = 3;
  shape.bots = 1;
  shape.churn_pairs = 25;
  return e2ebench::MakeClickInput(shape, seed);
}

void CheckExactReference() {
  for (const auto& g :
       {gstream::MakeX2Log(), gstream::MakeSpamClickFee(16)}) {
    for (auto make : {&TinyZipf, &TinyClicks}) {
      const e2ebench::Input in = make(11);
      double brute = 0.0;
      for (const auto& [item, f] : BruteFrequencies(in.stream)) {
        brute += g->Value(f < 0 ? -f : f);
      }
      const double reference =
          gstream::ExactGSum(in.frequencies, g->AsCallable());
      Expect(brute > 0.0 &&
                 std::abs(reference - brute) <= 1e-12 * std::abs(brute),
             "exact g-sum reference == brute force for " + g->name());
    }
  }
}

void CheckStreamFile(const std::string& dir) {
  const e2ebench::Input in = TinyClicks(3);
  const std::string path = dir + "/selftest.gstream";
  Expect(e2ebench::WriteStreamText(in.stream, path), "write gstream-v1");
  gstream::LoadStatus status;
  const auto loaded = gstream::LoadStream(path, &status);
  Expect(loaded.has_value() && SameUpdates(*loaded, in.stream),
         "gstream-v1 file round-trips through LoadStream " + status.message);
  std::filesystem::remove(path);
}

void CheckTracer() {
  e2ebench::Tracer off(false);
  {
    e2ebench::Tracer::Scope s(off, "root");
    Expect(s.id() == 0, "disabled tracer hands out no span ids");
  }
  Expect(off.Spans().empty(), "disabled tracer records nothing");

  // root = [child 30 ms][gap 30 ms][child 30 ms]; the other thread's
  // child runs during the gap and must not count as attributed.
  const auto nap = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  e2ebench::Tracer on(true);
  int64_t root_id = 0;
  {
    e2ebench::Tracer::Scope root(on, "root");
    root_id = root.id();
    {
      e2ebench::Tracer::Scope a(on, "child");
      nap();
    }
    std::thread other([&] {
      e2ebench::Tracer::Scope c(on, "other-thread", root_id);
      nap();
    });
    other.join();
    {
      e2ebench::Tracer::Scope b(on, "child");
      nap();
    }
  }
  const auto spans = on.Spans();
  int children = 0;
  for (const auto& s : spans) children += s.parent == root_id ? 1 : 0;
  Expect(spans.size() == 4 && children == 3, "parents recorded");
  const double share = on.UnattributedShare(root_id);
  Expect(share > 0.2 && share < 0.5,
         "unattributed share counts the gap, not other threads' spans");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(dir);
  CheckGenerator("zipf", &TinyZipf);
  CheckGenerator("clicks", &TinyClicks);
  CheckExactReference();
  CheckStreamFile(dir);
  CheckTracer();
  std::printf("%s: %d failed\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
