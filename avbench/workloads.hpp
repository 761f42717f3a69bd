// Entry points of the benchmark's workloads. Each returns the JSON report
// that run.py checks and turns into the result line.
#pragma once

#include <cstdint>
#include <string>

namespace avbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes instead of the measured ones (sim workloads).
  bool tiny = false;
  /// Overrides the workload's shard count when nonzero; how the recorded
  /// churn_sharded reference (a shards = 1 run) is reproduced.
  unsigned shards = 0;
};

/// The seed each workload's recorded reference fingerprint belongs to.
inline std::uint64_t defaultSeed(const std::string& workload) {
  return workload == "stat_scale" ? 1000003 : 1;
}

/// churn_md5, churn_sharded, stat_scale. Returns the report object.
std::string runSimWorkload(const Options& opt);

/// live_loopback. Returns the report object.
std::string runLiveWorkload(const Options& opt);

}  // namespace avbench
