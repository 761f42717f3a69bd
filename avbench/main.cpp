// avbench: one workload per invocation, one JSON report on stdout.
//
//   avbench --workload NAME --seed N --seconds S --trace 0|1
//           [--size full|tiny] [--shards N]
//
// run.py builds this binary, runs it once per benchmark run (so peak RSS is
// the workload's own), and turns its report into the benchmark's result
// line. The build type is fixed at compile time: anything but Release is
// refused, because the tree's default build keeps assertions on.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.hpp"
#include "workloads.hpp"

#ifndef AVBENCH_BUILD_TYPE
#define AVBENCH_BUILD_TYPE ""
#endif

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload churn_md5|churn_sharded|stat_scale|"
               "live_loopback --seed N --seconds S --trace 0|1 [--size full|tiny]"
               " [--shards N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  avbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") return usage(argv[0]);
      opt.tiny = value == "tiny";
    } else if (key == "--shards") {
      opt.shards = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || !(opt.seconds > 0))
    return usage(argv[0]);

#ifndef NDEBUG
  std::fprintf(stderr, "avbench: assertions are compiled in; build Release\n");
  return 3;
#endif
  if (std::string(AVBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "avbench: build type '%s' refused; build Release\n",
                 AVBENCH_BUILD_TYPE);
    return 3;
  }

  try {
    const std::string report = opt.workload == "live_loopback"
                                   ? avbench::runLiveWorkload(opt)
                                   : avbench::runSimWorkload(opt);
    avbench::JsonObject host;
    host.str("build_type", AVBENCH_BUILD_TYPE).str("compiler", __VERSION__);
    std::printf("{\"host\": %s, \"report\": %s}\n", host.dump().c_str(),
                report.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
