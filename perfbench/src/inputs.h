// Seeded workload shapes and inputs.
//
// Everything a workload feeds the system is derived from the run's seed:
// the round's beacon and key material (the Round is built from an Rng
// seeded with it), the application messages, and every submission's
// encryption randomness (one DRBG per (seed, round, index), so the bytes
// do not depend on how many threads build them or in which order). The
// program under test only ever sees these generated inputs.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/round.h"

namespace perfbench {

// One round-based workload: a square network of `groups` groups of
// `group_size` servers, `layers` mixing layers, `msgs_per_round`
// messages of `message_len` bytes per round, `in_flight` rounds kept in
// the pipeline by the closed loop.
struct MixShape {
  const char* name = "";  // the workload; names the round's beacon
  atom::Variant variant = atom::Variant::kTrap;
  size_t groups = 4;
  size_t group_size = 3;
  size_t layers = 4;
  size_t message_len = 160;
  size_t msgs_per_round = 16;
  size_t in_flight = 3;
  // Distinct taken rounds the closed loop cycles through.
  size_t distinct_rounds = 12;
  // Rounds per segment of a traced run (fixed, so counts repeat exactly).
  size_t traced_rounds = 8;
};

MixShape MixTrapShape();  // 160-byte microblog messages, trap variant
MixShape MixNizkShape();  // 80-byte dialing messages, NIZK variant
MixShape MeshShape();     // tiny trap batches over the loopback mesh

// The ingest workload: a trap Round with `groups` entry groups fronted by
// one gateway, `sessions` authenticated clients. An epoch carries one
// submission per (session, entry group): client ids are unique per
// (group, epoch), so that is the most one epoch can admit.
struct IngestShape {
  size_t groups = 16;
  size_t group_size = 2;
  size_t message_len = 160;
  size_t sessions = 4;
  size_t distinct_epochs = 4;  // pre-built epoch sets, cycled
  size_t traced_epochs = 20;   // epochs per segment of a traced run
  size_t PerEpoch() const { return groups * sessions; }
};

IngestShape MakeIngestShape(size_t hardware_threads);

atom::RoundConfig MixRoundConfig(const MixShape& shape, uint64_t seed);
atom::RoundConfig IngestRoundConfig(const IngestShape& shape, uint64_t seed);

// Builds the Round (group formation, every DKG, the trustees) from an Rng
// seeded with `seed`: the same seed yields the same keys.
std::unique_ptr<atom::Round> MakeRound(const atom::RoundConfig& config,
                                       uint64_t seed);

// Application message `index` of round `round`: exactly `len` printable
// bytes, unique per (seed, round, index), never starting with a marker
// the exit phase treats specially.
atom::Bytes MakeMessage(uint64_t seed, uint64_t round, size_t index,
                        size_t len);

// One round's generated inputs. Message i goes to entry group
// i % groups with client id i + 1 (unique within the round).
struct RoundInputs {
  std::vector<atom::Bytes> messages;
  std::vector<atom::TrapSubmission> trap;  // trap variant
  std::vector<atom::NizkSubmission> nizk;  // NIZK variant
};

// Builds rounds [first, first + count) on the shared pool.
std::vector<RoundInputs> BuildRoundInputs(atom::Round& round, uint64_t seed,
                                          uint64_t first, size_t count,
                                          size_t msgs_per_round);

// Ingest epoch sets: sets[e][s * groups + g] is session s's submission to
// entry group g in epoch set e, stamped with client id IngestClientId(s).
std::vector<std::vector<atom::TrapSubmission>> BuildIngestEpochs(
    atom::Round& round, uint64_t seed, const IngestShape& shape);

uint64_t IngestClientId(size_t session);

// Wire encoding of every submission, concatenated: the byte image the
// determinism check compares.
atom::Bytes EncodeInputs(const std::vector<RoundInputs>& rounds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
