#include "perfbench/src/spans.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "src/obs/trace.h"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord> g_records;  // guarded by g_mu

// Innermost open span on this thread (0: none).
thread_local uint64_t t_open = 0;

}  // namespace

void SetSpansEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> TakeSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::move(g_records);
}

Span::Span(const char* name, const char* layer) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  active_ = true;
  record_.name = name;
  record_.layer = layer;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_open;
  t_open = record_.id;
  record_.start_us = atom::obs::Trace::NowUs();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  record_.end_us = atom::obs::Trace::NowUs();
  t_open = record_.parent;
  if (atom::obs::Trace::Enabled()) {
    atom::obs::TraceEvent event;
    event.name = record_.name;
    event.cat = record_.layer;
    event.ts_us = record_.start_us;
    event.dur_us = record_.end_us - record_.start_us;
    event.k0 = "span";
    event.v0 = record_.id;
    event.k1 = "parent";
    event.v1 = record_.parent;
    atom::obs::Trace::Emit(event);
  }
  std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(record_);
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, int64_t> child_us;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      child_us[s.parent] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    int64_t own = s.end_us - s.start_us - child_us[s.id];
    self[s.layer] += static_cast<double>(own) / 1e6;
  }
  return self;
}

std::vector<double> DurationsUs(const std::vector<SpanRecord>& spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_us - s.start_us));
    }
  }
  return out;
}

}  // namespace perfbench
