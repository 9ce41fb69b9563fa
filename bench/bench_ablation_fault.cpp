// Ablation C (§4.5): what fault tolerance costs.
//
// The paper claims many-trust groups add "less than two seconds of
// overhead" for tolerating h-1 faults, because only k-(h-1) servers handle
// messages in the common case — the extra cost is the slightly larger
// group (Appendix B) during setup, plus buddy-group escrow. This bench
// measures, with real crypto: (1) group setup time vs. h, (2) the buddy
// escrow cost per server, (3) the recovery path after a catastrophic
// failure, and (4) — the live half of the ablation — completed-round
// throughput on a pipelined loopback fleet under each injected fault
// class (FaultPlan specs, the scenario harness's injection surface)
// against the fault-free baseline on the identical deployment.
//
// --smoke shrinks the sweeps for CI. Emits BENCH_bench_ablation_fault.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/client.h"
#include "src/core/round.h"
#include "src/crypto/threshold.h"
#include "src/net/faults.h"
#include "src/net/mesh.h"
#include "src/net/node_process.h"
#include "src/net/round_driver.h"
#include "src/topology/groups.h"
#include "src/util/bytes.h"

namespace atom {
namespace {

using namespace std::chrono_literals;

double Seconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct FleetRun {
  size_t completed = 0;
  size_t aborted = 0;
  double seconds = 0;

  double RoundsPerSec() const {
    return seconds > 0 ? static_cast<double>(completed) / seconds : 0;
  }
};

// Runs `rounds` pipelined engine rounds over an in-process loopback fleet
// (one NodeProcess per topology group, real sockets + encrypted links),
// every server mesh carrying the given FaultPlan spec ("" = fault-free).
// The identical seed rebuilds the identical deployment and submissions
// for every fault class, so the only variable is the injected fault.
FleetRun RunFaultedFleet(const std::string& fault_spec, size_t rounds,
                         size_t users, uint64_t seed) {
  Rng rng(seed);
  RoundConfig config;
  config.params.variant = Variant::kTrap;
  config.params.num_servers = 4;
  config.params.num_groups = 2;
  config.params.group_size = 2;
  config.params.honest_needed = 1;
  config.params.iterations = 3;
  config.params.message_len = 32;
  config.beacon = ToBytes("bench-ablation-fault");
  config.workers = 2;
  Round round(config, rng);

  // All specs are built before the clock starts: this bench measures the
  // mixing fleet under faults, not submission crypto.
  std::vector<EngineRound> specs;
  uint64_t next_client = 1;
  for (size_t r = 0; r < rounds; r++) {
    for (size_t u = 0; u < users; u++) {
      uint32_t gid = static_cast<uint32_t>(u % round.NumGroups());
      auto sub = MakeTrapSubmission(
          round.EntryPk(gid), gid, round.TrusteePk(),
          BytesView(ToBytes("m" + std::to_string(next_client))),
          round.layout(), rng);
      sub.client_id = next_client++;
      if (!round.SubmitTrap(sub)) {
        std::fprintf(stderr, "submission rejected — bench setup broken\n");
        return {};
      }
    }
    specs.push_back(round.TakeEngineRound({}, rng));
  }

  Rng setup_rng(seed + 1);
  KemKeypair driver_key = KemKeyGen(setup_rng);
  TcpPeerMesh mesh(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  std::vector<std::unique_ptr<NodeProcess>> procs;
  std::vector<MeshPeer> roster;
  std::vector<uint32_t> hosts;
  for (uint32_t g = 0; g < round.NumGroups(); g++) {
    KemKeypair key = KemKeyGen(setup_rng);
    auto proc = std::make_unique<NodeProcess>(g + 1, Variant::kTrap, key,
                                              driver_key.pk,
                                              /*max_rounds=*/rounds + 2);
    if (!fault_spec.empty()) {
      auto plan = FaultPlan::Parse(fault_spec);
      if (plan == nullptr) {
        std::fprintf(stderr, "bad fault spec: %s\n", fault_spec.c_str());
        return {};
      }
      proc->SetFaultPlan(std::move(plan));
    }
    if (!proc->Listen(0)) {
      return {};
    }
    proc->Start();
    roster.push_back(MeshPeer{g + 1, "127.0.0.1", proc->port(), key.pk});
    hosts.push_back(g + 1);
    procs.push_back(std::move(proc));
  }
  mesh.SetRoster(roster);
  mesh.set_next_round_id(1);
  if (!mesh.ConnectAndPushRoster()) {
    return {};
  }
  std::vector<TcpPeerMesh::HostGroupPush> pushes;
  for (uint32_t g = 0; g < round.NumGroups(); g++) {
    pushes.push_back({hosts[g], g, &round.group(g).dkg()});
  }
  if (mesh.SendHostGroups(pushes).has_value()) {
    return {};
  }

  FleetRun run;
  {
    DistributedRoundDriver driver(&mesh, hosts);
    // Faulted rounds that lose a frame abort via this timeout; keep it
    // short enough that the lossy classes don't dominate wall time while
    // staying ~100x a healthy round.
    driver.set_round_timeout(15s);
    run.seconds = Seconds([&] {
      std::vector<uint64_t> tickets;
      for (EngineRound& spec : specs) {
        tickets.push_back(driver.Submit(std::move(spec)));
      }
      for (uint64_t ticket : tickets) {
        if (driver.Wait(ticket).round.aborted) {
          run.aborted++;
        } else {
          run.completed++;
        }
      }
    });
    mesh.Stop();  // join readers before the driver dies
  }
  for (auto& proc : procs) {
    proc->Stop();
  }
  return run;
}

}  // namespace
}  // namespace atom

int main(int argc, char** argv) {
  using namespace atom;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  PrintHeader("Ablation: fault-tolerance overhead (many-trust + buddies)",
              "tolerating h-1 faults adds <2s; mixing cost unchanged "
              "(threshold servers only)");
  BenchJson json("bench_ablation_fault");
  json.Bool("smoke", smoke);
  Rng rng(0xab1c);

  std::printf("\nsetup cost vs. h (f=0.2, G=1024; one dealer + one verifier "
              "measured, real DKG):\n");
  std::printf("  h | k (App. B) | deal (ms) | verify all (ms)\n");
  std::printf("  --+------------+-----------+----------------\n");
  std::vector<size_t> h_sweep = smoke ? std::vector<size_t>{1, 2}
                                      : std::vector<size_t>{1, 2, 3};
  for (size_t h : h_sweep) {
    size_t k = MinGroupSize(0.2, 1024, h);
    DkgParams params{k, k - (h - 1)};
    double deal = Seconds([&] { MakeDealing(1, params, rng); });
    std::vector<DkgDealing> dealings;
    for (uint32_t d = 1; d <= k; d++) {
      dealings.push_back(MakeDealing(d, params, rng));
    }
    double verify = Seconds([&] { VerifyDealings(1, params, dealings); });
    std::printf("  %zu | %10zu | %9.1f | %14.1f\n", h, k, deal * 1e3,
                verify * 1e3);
    size_t row = json.Row();
    json.RowStr(row, "section", "dkg_setup");
    json.RowNum(row, "h", static_cast<double>(h));
    json.RowNum(row, "k", static_cast<double>(k));
    json.RowNum(row, "deal_ms", deal * 1e3);
    json.RowNum(row, "verify_all_ms", verify * 1e3);
  }

  std::printf("\nbuddy escrow + recovery (k=33, threshold 32, 3-of-5 buddy "
              "group, real crypto):\n");
  DkgParams params{33, 32};
  auto dkg = RunDkg(params, rng);
  BuddyEscrow escrow;
  double escrow_time =
      Seconds([&] { escrow = EscrowShare(dkg.keys[7], 5, 3, rng); });
  std::optional<DkgServerKey> recovered;
  double recover_time = Seconds([&] {
    recovered = RecoverShare(dkg.pub, 8,
                             std::span(escrow.sub_shares).subspan(0, 3), 3);
  });
  std::printf("  escrow one share:   %7.1f ms\n", escrow_time * 1e3);
  std::printf("  recover + verify:   %7.1f ms (succeeded: %s)\n",
              recover_time * 1e3, recovered.has_value() ? "yes" : "NO");
  json.Num("escrow_ms", escrow_time * 1e3);
  json.Num("recover_ms", recover_time * 1e3);
  json.Bool("recover_ok", recovered.has_value());

  // ---- Live fleet: round throughput per fault class vs fault-free.
  const size_t rounds = smoke ? 3 : 10;
  const size_t users = smoke ? 4 : 8;
  const uint64_t seed = 0xfa111;
  struct FaultClass {
    const char* name;
    const char* spec;  // FaultPlan grammar (src/net/faults.h)
  };
  const FaultClass classes[] = {
      {"baseline", ""},
      {"delay", "seed=7;delay=5@0.5"},
      {"duplicate", "seed=7;dup=0.3"},
      {"stall", "seed=7;stall=3"},
      {"corrupt", "seed=7;corrupt=0.02"},
  };

  std::printf("\nround throughput per fault class (pipelined loopback "
              "fleet, %zu rounds x %zu users,\nTrap variant, faults on "
              "every server mesh). delay/stall are latency-only; "
              "duplicate\nis a nonce REPLAY and corrupt is tampering — "
              "SecureLink kills those links by\ndesign, so their rounds "
              "may abort (bounded by the driver timeout), never hang:\n",
              rounds, users);
  std::printf("  class     | completed | aborted | elapsed (s) | rounds/s "
              "| vs baseline\n");
  std::printf("  ----------+-----------+---------+-------------+----------"
              "+------------\n");
  double baseline_rps = 0;
  for (const FaultClass& fc : classes) {
    FleetRun run = RunFaultedFleet(fc.spec, rounds, users, seed);
    double rps = run.RoundsPerSec();
    if (std::strcmp(fc.name, "baseline") == 0) {
      baseline_rps = rps;
    }
    double ratio = baseline_rps > 0 ? rps / baseline_rps : 0;
    std::printf("  %-9s | %9zu | %7zu | %11.2f | %8.2f | %10.2fx\n",
                fc.name, run.completed, run.aborted, run.seconds, rps,
                ratio);
    size_t row = json.Row();
    json.RowStr(row, "section", "fault_throughput");
    json.RowStr(row, "fault_class", fc.name);
    json.RowStr(row, "fault_spec", fc.spec);
    json.RowNum(row, "rounds", static_cast<double>(rounds));
    json.RowNum(row, "users_per_round", static_cast<double>(users));
    json.RowNum(row, "completed", static_cast<double>(run.completed));
    json.RowNum(row, "aborted", static_cast<double>(run.aborted));
    json.RowNum(row, "elapsed_s", run.seconds);
    json.RowNum(row, "rounds_per_sec", rps);
    json.RowNum(row, "vs_baseline", ratio);
    // The harness exists to catch hangs: a class that completed nothing
    // AND aborted nothing wedged, which is a hard failure.
    if (run.completed + run.aborted != rounds) {
      std::fprintf(stderr, "fault class %s lost rounds (%zu + %zu != %zu)\n",
                   fc.name, run.completed, run.aborted, rounds);
      return 1;
    }
  }

  std::printf("\nShape check: all setup overheads well under the paper's "
              "2-second budget (the\nincrease from h=1 to h=3 is one or two "
              "extra servers' worth of DKG work);\ndelay/stall cost only "
              "latency, while replay/tamper classes convert into\n"
              "timeout-bounded aborts — the abort-or-complete liveness "
              "contract, priced.\n");
  return 0;
}
