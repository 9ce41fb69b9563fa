// The benchmark's own spans around each public call it makes into the
// system (RoundEngine::Submit/Wait, DistributedRoundDriver::Submit/Wait,
// Round::TakeEngineRound, gateway OpenRound/Cutoff, ClientSession::
// Submit/WaitResult, the probes).
//
// A span records its name, layer, start, end and parent (the innermost
// span open on the same thread when it started). Records stay in memory
// for the per-layer self-time report, and — while obs tracing is on — are
// also emitted into the obs::Trace collector (args: span id, parent id)
// so they land in the same Chrome trace as the library's own spans.
// Disabled, a Span costs one relaxed load.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  const char* layer = "";  // "core", "net", "crypto"
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
};

void SetSpansEnabled(bool enabled);

// Moves every record collected so far out of the log.
std::vector<SpanRecord> TakeSpans();

class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
};

// Self time (duration minus the durations of direct children), summed per
// layer, in seconds.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans);

// Durations, in microseconds, of every span called `name`.
std::vector<double> DurationsUs(const std::vector<SpanRecord>& spans,
                                std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
