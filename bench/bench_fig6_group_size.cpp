// Figure 6: time per mixing iteration for a single group routing 1,024
// messages as the group size varies (k ∈ {4, 8, 16, 32, 64}).
//
// Paper shape: linear in k — every additional server adds one serial
// shuffle + reencrypt step to the group chain — with the NIZK variant a
// constant factor above the trap variant.
#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/group_runtime.h"
#include "src/sim/groupsim.h"

namespace atom {
namespace {

double RealHopSeconds(size_t k, size_t messages) {
  Rng rng(0xf196 + k);
  GroupRuntime group(0, RunDkg(DkgParams{k, k}, rng));
  GroupRuntime next(1, RunDkg(DkgParams{3, 3}, rng));
  CiphertextBatch batch(messages);
  Point m = *EmbedMessage(BytesView(ToBytes("fig6")));
  for (size_t i = 0; i < messages; i++) {
    batch[i].push_back(ElGamalEncrypt(group.pk(), m, rng));
  }
  std::vector<const FixedBaseTable*> next_tables = {&next.pk_table()};
  auto t0 = std::chrono::steady_clock::now();
  auto hop = group.RunHop(batch, next_tables, Variant::kTrap, rng);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ATOM_CHECK(!hop.aborted);
  return elapsed;
}

}  // namespace
}  // namespace atom

int main() {
  using namespace atom;
  PrintHeader("Figure 6: mixing iteration time vs. group size (1024 msgs)",
              "linear in group size for both variants (at k=64: trap ~60s, "
              "NIZK ~230s)");
  const CostModel& costs = CalibratedCosts();

  std::printf("\nmodel sweep (1024 messages, 4 cores, 40-160ms WAN):\n");
  std::printf("  group size | trap (s) | nizk (s)\n");
  std::printf("  -----------+----------+---------\n");
  for (size_t k : {4u, 8u, 16u, 32u, 64u}) {
    GroupSimConfig config;
    config.group_size = config.threshold = k;
    config.messages = 1024;
    config.cores_per_server = 4;
    config.variant = Variant::kTrap;
    double trap = EstimateGroupHop(config, costs).total_seconds;
    config.variant = Variant::kNizk;
    double nizk = EstimateGroupHop(config, costs).total_seconds;
    std::printf("  %10zu | %8.2f | %8.2f\n", k, trap, nizk);
  }

  std::printf("\nreal chain executions (trap, 96 messages, in-process):\n");
  std::printf("  group size | seconds\n");
  std::printf("  -----------+--------\n");
  for (size_t k : {4u, 8u, 16u}) {
    std::printf("  %10zu | %7.2f\n", k, RealHopSeconds(k, 96));
  }
  return 0;
}
