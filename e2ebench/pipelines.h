// The three benchmark workloads, and the measured and traced runs over them.
//
//   zipf_onepass  GSumEstimator::Process, 5 repetitions, parallel_ingest
//                 over 3 round-robin shards, g = x^2 lg(1+x), 2M Zipf-1.1
//                 updates with 5% turnstile deltas.
//   clicks_mpsc   two producer threads (one ProducerHandle each) feed a
//                 ShardedIngestor<RecursiveGSum> with 2 kHashItem shards,
//                 then merge and Estimate(spam click fee, T = 16).
//   replay_ckpt   LoadStream of a gstream-v1 click log, RunWithCheckpoints
//                 into 3 round-robin RecursiveGSum shards, merge, estimate;
//                 then LoadCheckpoint + Open + RestoreIngestor from the
//                 mid-stream checkpoint and resume to the end.
//
// Every pipeline is a closed loop in one process: producers submit under
// the default lossless kBlock policy, so a slower estimator receives less
// load.  Producers plus shard workers never exceed 4 threads.

#ifndef E2EBENCH_PIPELINES_H_
#define E2EBENCH_PIPELINES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Working directory for the run's files (stream log, checkpoints).  The
  // trace goes to the sibling directory traces/.  main() creates it and
  // removes it at exit.
  std::string workdir;
  // Multiplies every input size (the self-test runs at a small scale).
  double scale = 1.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Named reasons for every failed operation or check.
  std::vector<std::string> failures;
  // End-to-end metrics (measured run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // Human-readable lines for stderr: sample counts, tails, error rate.
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload for config.seconds and reports its metrics.  Aborts
// (GSTREAM_CHECK) only on benchmark bugs; failures of the program under
// test are counted and named in the report.
RunReport RunWorkload(const RunConfig& config);

}  // namespace e2ebench

#endif  // E2EBENCH_PIPELINES_H_
