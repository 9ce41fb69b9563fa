// Run options, the run's outcome, and the one-line JSON result.
//
// A run prints human-readable "# ..." lines (metadata, per-metric
// quartiles, per-layer attribution) and ends with exactly one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// where the metrics are every end-to-end metric (dark run) or every
// per-layer metric (traced run) — the names in kEndToEnd / kPerLayer,
// which perfbench/run.py cross-checks against BENCHMARK.json.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double offered_rate = 0;  // ingest phase B, submissions per second
  std::string out_dir = ".";
  std::string commit = "unknown";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics (dark run). What each means per workload:
//   setup_s          median of the run's set-up repetitions
//   msgs_per_s       plaintexts delivered per second (mix_*, mesh_wan);
//                    submissions admitted per second in phase A (ingest)
//   latency_p50_ms   round latency, Submit to Wait (mix_*, mesh_wan);
//                    admission latency, Submit to verdict, phase A (ingest)
//   latency_tail_ms  round latency at the highest percentile with >= 10
//                    rounds beyond it; admission p99, phase A (ingest)
//   peak_rss_mb      peak resident set of the run's process
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

class Outcome {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  // Records a failed output check (the run is then not correct).
  void Fail(const std::string& why);
  bool correct() const { return error_count_ == 0; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints one "# <label> ..." line of human-readable detail.
  void Note(const std::string& line) { notes_.push_back(line); }

  // Prints the notes, then the result line for `specs`. Returns the exit
  // code: 0 when every check passed.
  int Print(const std::vector<MetricSpec>& specs) const;

 private:
  static constexpr size_t kListedErrors = 8;
  std::map<std::string, double> values_;
  size_t error_count_ = 0;
  std::vector<std::string> errors_;  // the first kListedErrors
  std::vector<std::string> notes_;
};

// "name: median (q1..q3, n=N)" for a sample set.
std::string QuartileNote(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit);

double PeakRssMb();

// ---- obs registry arithmetic (traced runs).

// after - before for counters and histograms; gauges keep `after`.
atom::obs::MetricsSnapshot Delta(const atom::obs::MetricsSnapshot& before,
                                 const atom::obs::MetricsSnapshot& after);
// Sum of every counter whose series name starts with `prefix`.
uint64_t SumCounters(const atom::obs::MetricsSnapshot& snap,
                     std::string_view prefix);
// Merge of every histogram whose series name starts with `prefix`.
atom::obs::Pow2Hist MergeHists(const atom::obs::MetricsSnapshot& snap,
                               std::string_view prefix);
int64_t MaxGauge(const atom::obs::MetricsSnapshot& snap,
                 std::string_view prefix);

// ---- traced runs: dark/lit segment pairs.

struct SegmentResult {
  double units = 0;  // messages delivered / submissions admitted
  double seconds = 0;
};

struct TracedRun {
  std::vector<double> dark_rates;
  std::vector<double> lit_rates;
  double lit_seconds = 0;
  atom::obs::MetricsSnapshot lit;  // registry deltas summed over lit
};

// Runs `segment` as dark, lit, dark, lit, ... (`pairs` pairs). A lit
// segment runs with obs timing, obs tracing and the benchmark's spans on;
// a dark one with all three off.
TracedRun RunSegments(size_t pairs,
                      const std::function<SegmentResult(bool lit)>& segment);

// Turns obs timing, obs tracing and spans on or off together.
void SetLit(bool lit);

// Inputs to the per-layer report that only the workload knows.
struct LayerFacts {
  double verify_us_per_sub = 0;
  double turnover_ms = 0;
  double model_err_pct = 0;
  double hop_ms = 0;
};

struct ProbeResults;

// Fills every kPerLayer metric from the probes, the traced segments, the
// spans they recorded and the workload's facts; writes the Chrome trace
// to `trace_path` and fails the run if obs::ValidateTraceJson rejects it.
void ReportPerLayer(const ProbeResults& probes, const TracedRun& run,
                    const LayerFacts& facts, const std::string& trace_path,
                    Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
