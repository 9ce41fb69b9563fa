// The measurement every round-based workload shares (mix_trap, mix_nizk,
// mesh_wan): admission outside the timed window, the closed loop, the
// dark end-to-end report and the traced per-layer report.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/src/probes.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/core/engine.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

// The taken rounds plus the per-submission verification time and the
// take time of every round.
struct Prepared {
  std::vector<TakenRound> rounds;
  std::vector<double> verify_us_per_sub;
  std::vector<double> take_ms;
};

Prepared PrepareRounds(atom::Round& round, const MixShape& shape,
                       uint64_t seed, atom::Rng& take_rng, Outcome& out) {
  Prepared prepared;
  std::vector<RoundInputs> inputs = BuildRoundInputs(
      round, seed, 0, shape.distinct_rounds, shape.msgs_per_round);
  const size_t workers = atom::HardwareThreads();
  for (RoundInputs& in : inputs) {
    auto t0 = Clock::now();
    std::vector<bool> accepted =
        shape.variant == atom::Variant::kTrap
            ? round.SubmitTrapBatch(in.trap, workers)
            : round.SubmitNizkBatch(in.nizk, workers);
    prepared.verify_us_per_sub.push_back(
        SecondsSince(t0) * 1e6 / static_cast<double>(accepted.size()));
    if (std::count(accepted.begin(), accepted.end(), false) > 0) {
      out.Fail("intake rejected an honest submission");
    }
    TakenRound taken;
    t0 = Clock::now();
    {
      Span span("Round::TakeEngineRound", "core");
      taken.spec = round.TakeEngineRound({}, take_rng);
    }
    prepared.take_ms.push_back(SecondsSince(t0) * 1e3);
    taken.messages = std::move(in.messages);
    prepared.rounds.push_back(std::move(taken));
  }
  return prepared;
}

void ReportRoundLoop(const LoopResult& loop, const std::vector<double>& setups,
                     const MixShape& shape, Outcome& out) {
  std::vector<double> latencies_ms;
  for (double s : loop.latencies_s) {
    latencies_ms.push_back(s * 1e3);
  }
  const Tail tail = TailOf(latencies_ms, 10);
  out.Set("setup_s", Median(setups));
  out.Set("msgs_per_s", loop.seconds > 0
                            ? static_cast<double>(loop.delivered) / loop.seconds
                            : 0);
  out.Set("latency_p50_ms", Median(latencies_ms));
  out.Set("latency_tail_ms", tail.value);
  out.Set("peak_rss_mb", PeakRssMb());
  out.attempted = loop.rounds;
  out.failed = loop.failed;

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "closed loop, %zu rounds in flight: %zu rounds x %zu msgs in "
                "%.3f s, %zu delivered",
                shape.in_flight, loop.rounds, shape.msgs_per_round,
                loop.seconds, loop.delivered);
  out.Note(buf);
  out.Note(QuartileNote("setup_s", setups, "s"));
  out.Note(QuartileNote("round latency", latencies_ms, "ms"));
  std::snprintf(buf, sizeof(buf),
                "latency_tail_ms is p%d (%zu rounds beyond it%s)",
                tail.percentile, tail.beyond,
                tail.enough ? "" : "; fewer than 10, so the median");
  out.Note(buf);
}

// Dark/lit segment pairs of shape.traced_rounds rounds each (`drive`
// runs that many), then the model comparison and the per-layer report.
void TraceRounds(const Options& options, const MixShape& shape,
                 const ProbeResults& probes, LayerFacts facts,
                 const std::function<LoopResult(size_t count)>& drive,
                 Outcome& out) {
  std::vector<double> lit_latencies;
  TracedRun run = RunSegments(kTracedPairs, [&](bool lit) {
    LoopResult loop = drive(shape.traced_rounds);
    out.attempted += loop.rounds;
    out.failed += loop.failed;
    if (lit) {
      lit_latencies.insert(lit_latencies.end(), loop.latencies_s.begin(),
                           loop.latencies_s.end());
    }
    return SegmentResult{static_cast<double>(loop.delivered), loop.seconds};
  });

  // EstimateRound, calibrated from this run's probes, against the
  // measured (lit) round p50.
  const double predicted = PredictRoundSeconds(
      shape, probes.Calibrated(), atom::HardwareThreads());
  const double measured = Median(lit_latencies);
  const double err =
      measured > 0 ? (predicted - measured) / measured * 100 : 0;
  facts.model_err_pct = std::fabs(err);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "model: EstimateRound %.4f s vs measured round p50 %.4f s "
                "(%+.1f%%)",
                predicted, measured, err);
  out.Note(buf);
  ReportPerLayer(probes, run, facts,
                 options.out_dir + "/trace-" + options.workload + ".json",
                 out);
}

// Runs every taken round's spec through the in-process engine and
// stores the result the executor under test must reproduce byte for
// byte.
void AttachReferences(std::vector<TakenRound>& rounds) {
  atom::RoundEngine engine(&atom::ThreadPool::Shared());
  std::vector<uint64_t> tickets;
  for (TakenRound& taken : rounds) {
    tickets.push_back(engine.Submit(atom::EngineRound(taken.spec)));
  }
  for (size_t i = 0; i < rounds.size(); i++) {
    rounds[i].reference = engine.Wait(tickets[i]).round;
    rounds[i].has_reference = true;
  }
}

}  // namespace

void MeasureRounds(const Options& options, const MixShape& shape,
                   atom::Round& round, const std::vector<double>& setups,
                   bool reference_check, const RoundLoop& loop,
                   Outcome& out) {
  atom::Rng take_rng(options.seed * 0x2545f4914f6cdd1dULL + 7);
  SetLit(options.trace);  // a traced run records the takes' spans
  Prepared prepared = PrepareRounds(round, shape, options.seed, take_rng, out);
  SetLit(false);
  if (reference_check) {
    AttachReferences(prepared.rounds);
  }
  loop(prepared.rounds, shape.in_flight, 0);  // warm-up

  if (!options.trace) {
    ReportRoundLoop(loop(prepared.rounds, 0, options.seconds), setups, shape,
                    out);
    return;
  }
  SetLit(true);
  ProbeResults probes = RunProbes(options.seed);
  LayerFacts facts;
  facts.hop_ms = ProbeHopMs(round, shape, options.seed);
  SetLit(false);
  facts.verify_us_per_sub = Median(prepared.verify_us_per_sub);
  facts.turnover_ms = Median(prepared.take_ms);
  TraceRounds(options, shape, probes, facts,
              [&](size_t count) { return loop(prepared.rounds, count, 0); },
              out);
}

}  // namespace perfbench
