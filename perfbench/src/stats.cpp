#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// 1-based nearest rank of percentile p among n samples.
size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

Quartiles QuartilesOf(const std::vector<double>& samples) {
  Quartiles q;
  q.count = samples.size();
  q.q1 = Percentile(samples, 25);
  q.median = Percentile(samples, 50);
  q.q3 = Percentile(samples, 75);
  return q;
}

Tail TailOf(const std::vector<double>& samples, size_t beyond) {
  Tail tail;
  if (samples.empty()) {
    return tail;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  for (int p = 99; p >= 50; p--) {
    size_t rank = NearestRank(n, p);
    if (n - rank >= beyond) {
      tail.percentile = p;
      tail.value = sorted[rank - 1];
      tail.beyond = n - rank;
      tail.enough = true;
      return tail;
    }
  }
  size_t rank = NearestRank(n, 50);
  tail.value = sorted[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

}  // namespace perfbench
