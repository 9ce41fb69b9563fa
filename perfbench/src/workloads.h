// The four workloads and the closed loop the round-based ones share.
//
//   mix_trap   in-process Round + RoundEngine, trap variant
//   mix_nizk   in-process Round + RoundEngine, NIZK variant
//   mesh_wan   DistributedRoundDriver over loopback NodeProcess servers
//              with an emulated two-region WAN
//   ingest     ReactorGateway + authenticated ClientSessions
//
// Each Run* sets up (several times in a dark run, for setup_s), builds
// its seeded inputs outside any timed window, then measures: a dark run
// reports the end-to-end metrics, a traced run the per-layer ones.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <chrono>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/report.h"
#include "perfbench/src/spans.h"

namespace perfbench {

Outcome RunMix(const Options& options, const MixShape& shape);
Outcome RunMesh(const Options& options);
Outcome RunIngest(const Options& options);

using Clock = std::chrono::steady_clock;

// Dark/lit segment pairs in a traced run.
constexpr size_t kTracedPairs = 2;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One taken intake epoch, with what running it must produce: the
// submitted messages, and (mesh_wan) the in-process engine's result for
// the same spec. The closed loop submits copies of the spec, so a fixed
// set of these serves a run of any length: the inputs, and the memory
// they take, do not depend on how fast the program is.
struct TakenRound {
  atom::EngineRound spec;
  std::vector<atom::Bytes> messages;
  bool has_reference = false;
  atom::RoundResult reference;
};

struct LoopResult {
  std::vector<double> latencies_s;  // Submit -> Wait returning, per round
  double seconds = 0;               // first Submit -> last completion
  size_t rounds = 0;
  size_t delivered = 0;  // plaintexts of rounds that passed their checks
  size_t failed = 0;
};

// Keeps `in_flight` rounds submitted to `executor` (RoundEngine or
// DistributedRoundDriver: Submit(EngineRound) / Wait(ticket)), cycling
// through copies of `rounds`, and checks each result as it is waited
// for. New rounds enter until `count` have (count > 0) or, with count 0,
// while `budget_s` has not elapsed; rounds already in flight then drain.
template <class Executor>
LoopResult ClosedLoop(Executor& executor,
                      const std::vector<TakenRound>& rounds, size_t count,
                      double budget_s, size_t in_flight,
                      atom::Variant variant, const char* submit_span,
                      const char* wait_span, const char* layer,
                      Outcome& out) {
  struct Flight {
    uint64_t ticket = 0;
    Clock::time_point start;
    const TakenRound* taken = nullptr;
  };
  LoopResult result;
  std::deque<Flight> flights;
  size_t submitted = 0;
  const auto t0 = Clock::now();
  auto admitting = [&] {
    return count > 0 ? submitted < count : SecondsSince(t0) < budget_s;
  };
  auto submit_next = [&] {
    Flight flight{0, Clock::now(), &rounds[submitted++ % rounds.size()]};
    {
      Span span(submit_span, layer);
      flight.ticket = executor.Submit(atom::EngineRound(flight.taken->spec));
    }
    flights.push_back(flight);
  };
  while (flights.size() < in_flight && admitting()) {
    submit_next();
  }
  while (!flights.empty()) {
    const Flight flight = flights.front();
    flights.pop_front();
    atom::EngineRoundResult got;
    {
      Span span(wait_span, layer);
      got = executor.Wait(flight.ticket);
    }
    result.latencies_s.push_back(SecondsSince(flight.start));
    result.rounds++;
    std::string why = CheckRound(got.round, flight.taken->messages, variant);
    if (why.empty() && flight.taken->has_reference) {
      why = CheckIdentical(got.round, flight.taken->reference);
    }
    if (why.empty()) {
      result.delivered += flight.taken->messages.size();
    } else {
      result.failed++;
      out.Fail(why);
    }
    if (admitting()) {
      submit_next();
    }
  }
  result.seconds = SecondsSince(t0);
  return result;
}

// A closed loop over the workload's executor: ClosedLoop with the
// executor, span names and shape bound.
using RoundLoop = std::function<LoopResult(
    const std::vector<TakenRound>& rounds, size_t count, double budget_s)>;

// Everything a round-based workload does after its set-up: admits and
// takes shape.distinct_rounds seeded rounds (and, with
// `reference_check`, runs each through the in-process engine for the
// byte-identity check), warms up, then either measures a dark window of
// options.seconds and reports the end-to-end metrics, or runs the probes
// and the dark/lit segment pairs and reports the per-layer metrics.
void MeasureRounds(const Options& options, const MixShape& shape,
                   atom::Round& round, const std::vector<double>& setups,
                   bool reference_check, const RoundLoop& loop,
                   Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
