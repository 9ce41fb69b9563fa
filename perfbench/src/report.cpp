#include "perfbench/src/report.h"

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "perfbench/src/probes.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/obs/trace.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"msgs_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"crypto.field_mul_ns", "ns"},
    {"crypto.var_mul_us", "us"},
    {"crypto.base_mul_us", "us"},
    {"crypto.schnorr_batch_us_per_sig", "us"},
    {"crypto.reenc_us", "us"},
    {"crypto.shuffle_prove_ms", "ms"},
    {"crypto.shuffle_verify_ms", "ms"},
    {"crypto.kem_decrypt_us", "us"},
    {"core.group_runtime.hop_ms", "ms"},
    {"core.engine.hop_busy_s", "s"},
    {"core.engine.hops", "count"},
    {"core.engine.overlap", "permille"},
    {"core.engine.wait_s", "s"},
    {"core.round.verify_us_per_sub", "us"},
    {"core.round.turnover_ms", "ms"},
    {"core.round.stream_depth_peak", "count"},
    {"util.pool.dwell_p50_us", "us"},
    {"util.pool.dwell_p99_us", "us"},
    {"util.pool.tasks", "count"},
    {"net.mesh.bytes_sent", "bytes"},
    {"net.mesh.frames_sent", "count"},
    {"net.mesh.bundle_fill", "env/bundle"},
    {"net.mesh.send_drops", "count"},
    {"net.round_driver.submit_ms", "ms"},
    {"net.round_driver.wait_s", "s"},
    {"net.session.submit_us", "us"},
    {"net.gateway.epoll_wait_p99_us", "us"},
    {"net.gateway.rejected", "count"},
    {"net.gateway.backpressure", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"model.round_err_pct", "%"},
    {"trace.self_core_s", "s"},
    {"trace.self_net_s", "s"},
    {"trace.self_crypto_s", "s"},
};

void Outcome::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Outcome::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Outcome::Fail(const std::string& why) {
  if (++error_count_ <= kListedErrors) {
    errors_.push_back(why);
  }
}

namespace {

// Shortest round-trip decimal form of a double (JSON number).
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace

int Outcome::Print(const std::vector<MetricSpec>& specs) const {
  for (const std::string& note : notes_) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& error : errors_) {
    std::printf("# CHECK FAILED: %s\n", error.c_str());
  }
  if (error_count_ > errors_.size()) {
    std::printf("# CHECK FAILED: %zu more\n", error_count_ - errors_.size());
  }
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); i++) {
    line += i == 0 ? "" : ", ";
    line += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
            JsonNumber(Get(specs[i].name)) + ", \"unit\": \"" +
            specs[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

std::string QuartileNote(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  Quartiles q = QuartilesOf(samples);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: median %.6g %s (q1 %.6g, q3 %.6g, n=%zu)",
                name.c_str(), q.median, unit.c_str(), q.q1, q.q3, q.count);
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

atom::obs::MetricsSnapshot Delta(const atom::obs::MetricsSnapshot& before,
                                 const atom::obs::MetricsSnapshot& after) {
  atom::obs::MetricsSnapshot out;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    out.counters[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  out.gauges = after.gauges;
  for (const auto& [name, hist] : after.histograms) {
    atom::obs::Pow2Hist diff = hist;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      for (size_t b = 0; b < atom::obs::kLatencyBuckets; b++) {
        diff.buckets[b] -= it->second.buckets[b];
      }
      diff.sum -= it->second.sum;
    }
    out.histograms[name] = diff;
  }
  return out;
}

uint64_t SumCounters(const atom::obs::MetricsSnapshot& snap,
                     std::string_view prefix) {
  uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) {
      total += value;
    }
  }
  return total;
}

atom::obs::Pow2Hist MergeHists(const atom::obs::MetricsSnapshot& snap,
                               std::string_view prefix) {
  atom::obs::Pow2Hist total;
  for (const auto& [name, hist] : snap.histograms) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) {
      total.Merge(hist);
    }
  }
  return total;
}

int64_t MaxGauge(const atom::obs::MetricsSnapshot& snap,
                 std::string_view prefix) {
  int64_t best = 0;
  for (const auto& [name, value] : snap.gauges) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) {
      best = std::max(best, value);
    }
  }
  return best;
}

void SetLit(bool lit) {
  atom::obs::SetTimingEnabled(lit);
  if (lit) {
    atom::obs::Trace::Enable();
  } else {
    atom::obs::Trace::Disable();
  }
  SetSpansEnabled(lit);
}

TracedRun RunSegments(size_t pairs,
                      const std::function<SegmentResult(bool lit)>& segment) {
  TracedRun run;
  atom::obs::Registry& registry = atom::obs::Registry::Global();
  for (size_t i = 0; i < 2 * pairs; i++) {
    const bool lit = i % 2 == 1;
    SetLit(lit);
    atom::obs::MetricsSnapshot before = registry.Snapshot();
    SegmentResult seg = segment(lit);
    atom::obs::MetricsSnapshot after = registry.Snapshot();
    SetLit(false);
    const double rate = seg.seconds > 0 ? seg.units / seg.seconds : 0;
    if (lit) {
      run.lit_rates.push_back(rate);
      run.lit_seconds += seg.seconds;
      run.lit.MergeFrom(Delta(before, after));
    } else {
      run.dark_rates.push_back(rate);
    }
  }
  return run;
}

void ReportPerLayer(const ProbeResults& probes, const TracedRun& run,
                    const LayerFacts& facts, const std::string& trace_path,
                    Outcome& out) {
  const atom::obs::MetricsSnapshot& lit = run.lit;
  std::vector<SpanRecord> spans = TakeSpans();

  out.Set("crypto.field_mul_ns", probes.field_mul_ns);
  out.Set("crypto.var_mul_us", probes.var_mul_us);
  out.Set("crypto.base_mul_us", probes.base_mul_us);
  out.Set("crypto.schnorr_batch_us_per_sig", probes.schnorr_batch_us_per_sig);
  out.Set("crypto.reenc_us", probes.reenc_us);
  out.Set("crypto.shuffle_prove_ms", probes.shuffle_prove_ms);
  out.Set("crypto.shuffle_verify_ms", probes.shuffle_verify_ms);
  out.Set("crypto.kem_decrypt_us", probes.kem_decrypt_us);
  if (!probes.verified) {
    out.Fail("a crypto probe's output did not verify");
  }

  out.Set("core.group_runtime.hop_ms", facts.hop_ms);
  const atom::obs::Pow2Hist hop_us =
      MergeHists(lit, "atom_engine_hop_duration_us");
  out.Set("core.engine.hop_busy_s", static_cast<double>(hop_us.sum) / 1e6);
  out.Set("core.engine.hops",
          static_cast<double>(SumCounters(lit, "atom_engine_hops_total")));
  // pipeline_overlap_permille's definition (sum of round lifetimes over
  // elapsed time), restricted to the lit segments.
  const atom::obs::Pow2Hist round_us =
      MergeHists(lit, "atom_engine_round_duration_us");
  out.Set("core.engine.overlap",
          run.lit_seconds > 0
              ? static_cast<double>(round_us.sum) / 1e3 / run.lit_seconds
              : 0);
  double wait_us = 0;
  for (double d : DurationsUs(spans, "RoundEngine::Wait")) {
    wait_us += d;
  }
  out.Set("core.engine.wait_s", wait_us / 1e6);
  out.Set("core.round.verify_us_per_sub", facts.verify_us_per_sub);
  out.Set("core.round.turnover_ms", facts.turnover_ms);
  out.Set("core.round.stream_depth_peak",
          static_cast<double>(MaxGauge(lit, "atom_intake_stream_depth_peak")));

  const atom::obs::Pow2Hist dwell =
      MergeHists(lit, "atom_pool_task_dwell_us{class=\"engine\"}");
  out.Set("util.pool.dwell_p50_us", dwell.Percentile(0.50));
  out.Set("util.pool.dwell_p99_us", dwell.Percentile(0.99));
  out.Set("util.pool.tasks",
          static_cast<double>(SumCounters(lit, "atom_pool_tasks_total")));

  out.Set("net.mesh.bytes_sent",
          static_cast<double>(SumCounters(lit, "atom_mesh_bytes_sent_total")));
  out.Set("net.mesh.frames_sent",
          static_cast<double>(SumCounters(lit, "atom_mesh_frames_sent_total")));
  const uint64_t bundles = SumCounters(lit, "atom_mesh_bundles_sent_total");
  const uint64_t bundled = SumCounters(lit, "atom_mesh_envelopes_bundled_total");
  out.Set("net.mesh.bundle_fill",
          bundles == 0 ? 0
                       : static_cast<double>(bundled) /
                             static_cast<double>(bundles));
  out.Set("net.mesh.send_drops", static_cast<double>(SumCounters(
                                     lit, "atom_mesh_send_queue_drops_total")));
  out.Set("net.round_driver.submit_ms",
          Median(DurationsUs(spans, "DistributedRoundDriver::Submit")) / 1e3);
  double driver_wait_us = 0;
  for (double d : DurationsUs(spans, "DistributedRoundDriver::Wait")) {
    driver_wait_us += d;
  }
  out.Set("net.round_driver.wait_s", driver_wait_us / 1e6);
  out.Set("net.session.submit_us",
          Median(DurationsUs(spans, "ClientSession::Submit")));
  out.Set("net.gateway.epoll_wait_p99_us",
          MergeHists(lit, "atom_gateway_epoll_wait_us").Percentile(0.99));
  out.Set("net.gateway.rejected",
          static_cast<double>(
              SumCounters(lit, "atom_gateway_verdicts_total{status=\"rejected\"}") +
              SumCounters(lit, "atom_gateway_verdicts_total{status=\"closed\"}") +
              SumCounters(lit,
                          "atom_gateway_verdicts_total{status=\"foreign_id\"}")));
  out.Set("net.gateway.backpressure",
          static_cast<double>(SumCounters(
              lit, "atom_gateway_verdicts_total{status=\"backpressure\"}")));

  const double dark = Median(run.dark_rates);
  const double lit_rate = Median(run.lit_rates);
  out.Set("obs.trace_overhead_pct",
          lit_rate > 0 ? (dark / lit_rate - 1.0) * 100.0 : 0);
  out.Note(QuartileNote("trace overhead, dark segment rate", run.dark_rates,
                        "/s"));
  out.Note(QuartileNote("trace overhead, lit segment rate", run.lit_rates,
                        "/s"));
  out.Set("model.round_err_pct", facts.model_err_pct);

  std::map<std::string, double> self = SelfSecondsByLayer(spans);
  out.Set("trace.self_core_s", self["core"]);
  out.Set("trace.self_net_s", self["net"]);
  out.Set("trace.self_crypto_s", self["crypto"]);
  out.Note("spans recorded: " + std::to_string(spans.size()) +
           ", obs trace events: " +
           std::to_string(atom::obs::Trace::EventCount()));

  const std::string json = atom::obs::Trace::ToJson();
  std::string error;
  if (!atom::obs::ValidateTraceJson(json, &error)) {
    out.Fail("Chrome trace rejected by obs::ValidateTraceJson: " + error);
  }
  std::ofstream file(trace_path, std::ios::binary);
  file << json;
  if (!file) {
    out.Fail("could not write the trace to " + trace_path);
  } else {
    out.Note("trace: " + trace_path);
  }
}

}  // namespace perfbench
