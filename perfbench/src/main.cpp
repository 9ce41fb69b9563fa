// perfbench: runs one workload of the repository benchmark and prints its
// result line (see report.h). Normally launched by perfbench/run.py,
// which builds this binary and passes the offered rate and output
// directory:
//
//   perfbench --workload mix_trap --seed 1 --seconds 15 --trace 0
//             [--offered-rate 200] [--out-dir DIR] [--commit ID]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/report.h"
#include "perfbench/src/workloads.h"
#include "src/util/parallel.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload mix_trap|mix_nizk|mesh_wan|ingest"
               " --seed N --seconds S --trace 0|1 [--offered-rate R]"
               " [--out-dir DIR] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--offered-rate") {
      options.offered_rate = std::strtod(value, nullptr);
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0 ||
      (options.workload == "ingest" && options.offered_rate <= 0)) {
    return Usage();
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "commit=%s compiler=\"%s\" nproc=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.commit.c_str(),
              PERFBENCH_COMPILER, atom::HardwareThreads());

  perfbench::Outcome outcome;
  if (options.workload == "mix_trap") {
    outcome = perfbench::RunMix(options, perfbench::MixTrapShape());
  } else if (options.workload == "mix_nizk") {
    outcome = perfbench::RunMix(options, perfbench::MixNizkShape());
  } else if (options.workload == "mesh_wan") {
    outcome = perfbench::RunMesh(options);
  } else if (options.workload == "ingest") {
    outcome = perfbench::RunIngest(options);
  } else {
    return Usage();
  }
  return outcome.Print(options.trace ? perfbench::kPerLayer
                                     : perfbench::kEndToEnd);
}
