// mesh_wan: the distributed round driver over in-process NodeProcess
// servers on loopback TCP. Traffic crosses loopback with emulated delay:
// a two-region WanProfile matrix (cheap intra-region links, slow
// bandwidth-capped cross-region links), two groups per hosting server.
#include <memory>

#include "perfbench/src/workloads.h"
#include "src/net/node_process.h"
#include "src/net/round_driver.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

constexpr size_t kGroupsPerHost = 2;
constexpr auto kIntraDelay = std::chrono::milliseconds(10);
constexpr auto kCrossDelay = std::chrono::milliseconds(40);
constexpr size_t kCrossBytesPerMs = 8192;  // ~8 MB/s between regions
constexpr size_t kServerThreads = 3;

// A running fleet: one NodeProcess per hosting server (each with its own
// pool, as one process per server would have), the driver's mesh, and
// the round driver. Torn down driver first, servers last.
struct Fleet {
  std::vector<std::unique_ptr<atom::ThreadPool>> pools;
  std::vector<std::unique_ptr<atom::NodeProcess>> procs;
  std::unique_ptr<atom::TcpPeerMesh> mesh;
  std::unique_ptr<atom::DistributedRoundDriver> driver;

  ~Fleet() {
    driver.reset();
    if (mesh != nullptr) {
      mesh->Stop();
    }
    for (auto& proc : procs) {
      proc->Stop();
    }
  }
};

// Region of a mesh participant: the driver and the low half of the
// servers in region 0, the high half in region 1.
int Region(uint32_t id, size_t hosts) {
  return id == atom::kMeshDriverId ? 0 : (id - 1 < hosts / 2 ? 0 : 1);
}

atom::WanProfile ProfileFor(uint32_t from, uint32_t to, size_t hosts) {
  atom::WanProfile profile;
  if (Region(from, hosts) == Region(to, hosts)) {
    profile.delay = kIntraDelay;
  } else {
    profile.delay = kCrossDelay;
    profile.bytes_per_ms = kCrossBytesPerMs;
  }
  return profile;
}

// Starts the servers, connects the driver, pushes the roster and every
// group's DKG material. False (with a failed check) on any error.
bool StartFleet(Fleet& fleet, atom::Round& round, uint64_t seed,
                Outcome& out) {
  const size_t width = round.NumGroups();
  const size_t hosts = (width + kGroupsPerHost - 1) / kGroupsPerHost;
  atom::Rng key_rng(seed ^ 0x6d657368ULL);
  atom::KemKeypair driver_key = atom::KemKeyGen(key_rng);
  std::vector<atom::MeshPeer> roster;
  for (uint32_t h = 1; h <= hosts; h++) {
    atom::KemKeypair key = atom::KemKeyGen(key_rng);
    fleet.pools.push_back(std::make_unique<atom::ThreadPool>(kServerThreads));
    auto proc = std::make_unique<atom::NodeProcess>(
        h, round.variant(), key, driver_key.pk, /*max_rounds=*/8,
        fleet.pools.back().get());
    for (uint32_t p = 1; p <= hosts; p++) {
      if (p != h) {
        proc->set_peer_profile(p, ProfileFor(h, p, hosts));
      }
    }
    proc->set_peer_profile(atom::kMeshDriverId,
                           ProfileFor(h, atom::kMeshDriverId, hosts));
    if (!proc->Listen(0)) {
      out.Fail("server listen failed");
      return false;
    }
    proc->Start();
    roster.push_back(atom::MeshPeer{h, "127.0.0.1", proc->port(), key.pk});
    fleet.procs.push_back(std::move(proc));
  }
  fleet.mesh = std::make_unique<atom::TcpPeerMesh>(
      atom::TcpPeerMesh::Role::kDriver, atom::kMeshDriverId, driver_key);
  for (uint32_t p = 1; p <= hosts; p++) {
    fleet.mesh->set_peer_profile(p,
                                 ProfileFor(atom::kMeshDriverId, p, hosts));
  }
  fleet.mesh->SetRoster(roster);
  if (!fleet.mesh->ConnectAndPushRoster()) {
    out.Fail("roster push failed");
    return false;
  }
  std::vector<uint32_t> host_of(width);
  for (uint32_t g = 0; g < width; g++) {
    host_of[g] = static_cast<uint32_t>(g / kGroupsPerHost) + 1;
    if (!fleet.mesh->SendHostGroup(host_of[g], g, round.group(g).dkg())) {
      out.Fail("host-group push failed");
      return false;
    }
  }
  fleet.driver =
      std::make_unique<atom::DistributedRoundDriver>(fleet.mesh.get(), host_of);
  fleet.driver->set_round_timeout(std::chrono::seconds(60));
  return true;
}

}  // namespace

Outcome RunMesh(const Options& options) {
  Outcome out;
  const MixShape shape = MeshShape();
  const atom::RoundConfig config = MixRoundConfig(shape, options.seed);

  // Set-up: Round + DKGs, then the fleet: servers listening, driver
  // connected, roster and host-group material pushed.
  std::vector<double> setups;
  std::unique_ptr<atom::Round> round;
  std::unique_ptr<Fleet> fleet;
  for (size_t rep = 0; rep < (options.trace ? 1 : 3); rep++) {
    fleet.reset();
    round.reset();
    auto t0 = Clock::now();
    round = MakeRound(config, options.seed);
    fleet = std::make_unique<Fleet>();
    if (!StartFleet(*fleet, *round, options.seed, out)) {
      return out;
    }
    setups.push_back(SecondsSince(t0));
  }

  MeasureRounds(options, shape, *round, setups, /*reference_check=*/true,
                [&](const std::vector<TakenRound>& rounds, size_t count,
                    double budget_s) {
                  return ClosedLoop(*fleet->driver, rounds, count, budget_s,
                                    shape.in_flight, shape.variant,
                                    "DistributedRoundDriver::Submit",
                                    "DistributedRoundDriver::Wait", "net",
                                    out);
                },
                out);
  if (!options.trace) {
    out.Note("emulated WAN: 10 ms intra-region, 40 ms and 8 MB/s "
             "cross-region, over loopback TCP");
  }
  return out;
}

}  // namespace perfbench
