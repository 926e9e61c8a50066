// e2e_bench: one run of one workload of the end-to-end benchmark.
//
//   e2e_bench --workload <zipf_onepass|clicks_mpsc|replay_ckpt>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--scale <f>]
//
// Prints a human-readable summary on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any correctness check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "pipelines.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--scale F]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunConfig config;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      end = const_cast<char*>(value) + std::strlen(value);
      if (std::strcmp(value, "0") != 0 && !config.trace) {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--workdir") {
      config.workdir = value;
      have_workdir = true;
    } else if (flag == "--scale") {
      config.scale = std::strtod(value, &end);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_workload || !have_workdir) {
    return Usage("--workload and --workdir are required");
  }
  bool known = false;
  for (const std::string& name : e2ebench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage(("unknown workload " + config.workload).c_str());
  if (!(config.seconds > 0.0) || !(config.scale > 0.0) || config.scale > 1.0) {
    return Usage("--seconds must be > 0 and --scale in (0, 1]");
  }
  std::filesystem::create_directories(config.workdir);

  const e2ebench::RunReport report = e2ebench::RunWorkload(config);

  std::fprintf(stderr, "[%s seed=%llu trace=%d]\n", config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               config.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  for (const e2ebench::Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  }

  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const e2ebench::Metric& m : report.metrics) {
    finite = finite && std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = report.correct && finite;
  if (!finite) std::fprintf(stderr, "  FAILED: a metric is not finite\n");
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed + (finite ? 0 : 1));
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);

  std::error_code ignored;
  std::filesystem::remove_all(config.workdir, ignored);
  return correct ? 0 : 1;
}
