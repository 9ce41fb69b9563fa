// mix_trap / mix_nizk: the in-process pipelined engine (§4.7).
#include "perfbench/src/workloads.h"
#include "src/core/engine.h"
#include "src/util/parallel.h"

namespace perfbench {

Outcome RunMix(const Options& options, const MixShape& shape) {
  Outcome out;
  const atom::RoundConfig config = MixRoundConfig(shape, options.seed);

  // Set-up: group formation, one DKG per group, the trustee DKG.
  std::vector<double> setups;
  std::unique_ptr<atom::Round> round;
  for (size_t rep = 0; rep < (options.trace ? 1 : 9); rep++) {
    round.reset();
    auto t0 = Clock::now();
    round = MakeRound(config, options.seed);
    setups.push_back(SecondsSince(t0));
  }

  atom::RoundEngine engine(&atom::ThreadPool::Shared());
  MeasureRounds(options, shape, *round, setups, /*reference_check=*/false,
                [&](const std::vector<TakenRound>& rounds, size_t count,
                    double budget_s) {
                  return ClosedLoop(engine, rounds, count, budget_s,
                                    shape.in_flight, shape.variant,
                                    "RoundEngine::Submit",
                                    "RoundEngine::Wait", "core", out);
                },
                out);
  return out;
}

}  // namespace perfbench
