// Figure 5: time per mixing iteration for a single group of 32 servers as
// the number of messages varies (128..16384), NIZK vs. trap.
//
// Two data sources:
//  * "model": the calibrated cost model + WAN chain timeline (the paper's
//    own Fig.-11 methodology) across the full sweep;
//  * "real": actual GroupRuntime::RunHop executions of a 32-server chain at
//    the small end of the sweep, to validate the model's compute term.
//
// Paper shape: both curves linear in the message count; NIZK ≈ 4x trap.
#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/group_runtime.h"
#include "src/sim/groupsim.h"

namespace atom {
namespace {

double RealHopSeconds(Variant variant, size_t k, size_t messages) {
  Rng rng(0xf195 + messages + (variant == Variant::kNizk ? 1 : 0));
  DkgParams params{k, k};
  GroupRuntime group(0, RunDkg(params, rng));
  GroupRuntime next(1, RunDkg(DkgParams{3, 3}, rng));
  CiphertextBatch batch(messages);
  Point m = *EmbedMessage(BytesView(ToBytes("fig5")));
  for (size_t i = 0; i < messages; i++) {
    batch[i].push_back(ElGamalEncrypt(group.pk(), m, rng));
  }
  std::vector<const FixedBaseTable*> next_tables = {&next.pk_table()};
  auto t0 = std::chrono::steady_clock::now();
  auto hop = group.RunHop(batch, next_tables, variant, rng);
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
  PrintHeader("Figure 5: time per mixing iteration, one 32-server group",
              "linear in messages; NIZK ~4x trap (e.g. 16384 msgs: "
              "trap ~750s, NIZK ~3000s on c4.xlarge)");
  const CostModel& costs = CalibratedCosts();

  std::printf("\nmodel sweep (32 servers, 4 cores each, 40-160ms WAN):\n");
  std::printf("  messages | trap (s) | nizk (s) | nizk/trap\n");
  std::printf("  ---------+----------+----------+----------\n");
  for (size_t n : {128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
    GroupSimConfig config;
    config.group_size = config.threshold = 32;
    config.messages = n;
    config.components = 1;
    config.cores_per_server = 4;
    config.variant = Variant::kTrap;
    double trap = EstimateGroupHop(config, costs).total_seconds;
    config.variant = Variant::kNizk;
    double nizk = EstimateGroupHop(config, costs).total_seconds;
    std::printf("  %8zu | %8.2f | %8.2f | %8.2fx\n", n, trap, nizk,
                nizk / trap);
  }

  std::printf("\nreal 32-server chain executions (in-process, single "
              "worker, no WAN;\ncompare against the model's compute term "
              "x4 for the core-count difference):\n");
  std::printf("  messages | variant | seconds\n");
  std::printf("  ---------+---------+--------\n");
  for (size_t n : {64u, 128u}) {
    std::printf("  %8zu | trap    | %7.2f\n", n,
                RealHopSeconds(Variant::kTrap, 32, n));
  }
  std::printf("  %8u | nizk    | %7.2f\n", 64u,
              RealHopSeconds(Variant::kNizk, 32, 64));
  return 0;
}
