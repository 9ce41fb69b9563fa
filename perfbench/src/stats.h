// Order statistics for the benchmark's samples (round latencies, admission
// latencies, set-up repetitions, segment rates).
//
// Every percentile here is nearest-rank: the p-th percentile of n samples
// is the ceil(p/100 * n)-th smallest (1-based, at least the first), so a
// reported value is always one that was actually measured.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank p-th percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  size_t count = 0;
};
Quartiles QuartilesOf(const std::vector<double>& samples);

// The round-latency tail: the highest whole percentile p (99 down to 50)
// whose nearest-rank value still has at least `beyond` samples strictly
// after it in sorted order. With fewer than 2 * beyond samples no such p
// exists above the median, and the median is reported with
// `enough == false`.
struct Tail {
  int percentile = 50;
  double value = 0;
  size_t beyond = 0;  // samples ranked after the reported one
  bool enough = false;
};
Tail TailOf(const std::vector<double>& samples, size_t beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
