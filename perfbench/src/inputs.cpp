#include "perfbench/src/inputs.h"

#include <algorithm>
#include <string>

#include "src/core/wire.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

using atom::Bytes;

// A DRBG per generated item, key-separated by (purpose, seed, a, b).
atom::Rng ItemRng(char purpose, uint64_t seed, uint64_t a, uint64_t b) {
  Bytes key = atom::ToBytes("pb/");  // Rng seeds are at most 32 bytes
  key.push_back(static_cast<uint8_t>(purpose));
  for (uint64_t v : {seed, a, b}) {
    for (int i = 0; i < 8; i++) {
      key.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  return atom::Rng(atom::BytesView(key));
}

Bytes Beacon(const char* workload, uint64_t seed) {
  return atom::ToBytes(std::string("perfbench/") + workload + "/" +
                       std::to_string(seed));
}

}  // namespace

MixShape MixTrapShape() {
  MixShape shape;
  shape.name = "mix_trap";
  shape.variant = atom::Variant::kTrap;
  shape.message_len = 160;
  shape.msgs_per_round = 16;
  shape.traced_rounds = 10;
  return shape;
}

MixShape MixNizkShape() {
  MixShape shape;
  shape.name = "mix_nizk";
  shape.variant = atom::Variant::kNizk;
  shape.message_len = 80;
  shape.msgs_per_round = 8;
  shape.traced_rounds = 8;
  return shape;
}

MixShape MeshShape() {
  MixShape shape;
  shape.name = "mesh_wan";
  shape.variant = atom::Variant::kTrap;
  shape.group_size = 2;
  shape.message_len = 32;
  shape.msgs_per_round = 4;
  shape.traced_rounds = 10;
  return shape;
}

IngestShape MakeIngestShape(size_t hardware_threads) {
  IngestShape shape;
  shape.sessions = std::clamp<size_t>(hardware_threads, 1, 4);
  return shape;
}

atom::RoundConfig MixRoundConfig(const MixShape& shape, uint64_t seed) {
  atom::RoundConfig config;
  config.params.variant = shape.variant;
  config.params.num_servers = shape.groups * shape.group_size;
  config.params.num_groups = shape.groups;
  config.params.group_size = shape.group_size;
  config.params.honest_needed = 1;
  config.params.iterations = shape.layers;
  config.params.message_len = shape.message_len;
  config.beacon = Beacon(shape.name, seed);
  // Parallelism comes from the pipeline (groups x rounds in flight), not
  // from splitting one hop across threads.
  config.workers = 1;
  return config;
}

atom::RoundConfig IngestRoundConfig(const IngestShape& shape,
                                    uint64_t seed) {
  atom::RoundConfig config;
  config.params.variant = atom::Variant::kTrap;
  config.params.num_servers = shape.groups * shape.group_size;
  config.params.num_groups = shape.groups;
  config.params.group_size = shape.group_size;
  config.params.honest_needed = 1;
  config.params.iterations = 2;
  config.params.message_len = shape.message_len;
  config.beacon = Beacon("ingest", seed);
  config.workers = atom::HardwareThreads();
  return config;
}

std::unique_ptr<atom::Round> MakeRound(const atom::RoundConfig& config,
                                       uint64_t seed) {
  atom::Rng rng = ItemRng('R', seed, 0, 0);
  return std::make_unique<atom::Round>(config, rng);
}

Bytes MakeMessage(uint64_t seed, uint64_t round, size_t index, size_t len) {
  std::string text = "m" + std::to_string(round) + "." +
                     std::to_string(index) + ":";
  atom::Rng rng = ItemRng('M', seed, round, index);
  while (text.size() < len) {
    text.push_back(static_cast<char>('a' + rng.NextBelow(26)));
  }
  text.resize(len);
  return atom::ToBytes(text);
}

std::vector<RoundInputs> BuildRoundInputs(atom::Round& round, uint64_t seed,
                                          uint64_t first, size_t count,
                                          size_t msgs_per_round) {
  const size_t groups = round.NumGroups();
  const bool trap = round.variant() == atom::Variant::kTrap;
  const size_t len = round.layout().plaintext_len;
  std::vector<RoundInputs> rounds(count);
  for (size_t r = 0; r < count; r++) {
    rounds[r].messages.resize(msgs_per_round);
    if (trap) {
      rounds[r].trap.resize(msgs_per_round);
    } else {
      rounds[r].nizk.resize(msgs_per_round);
    }
  }
  const atom::FixedBaseTable* trustee = nullptr;
  std::unique_ptr<atom::FixedBaseTable> trustee_table;
  if (trap) {
    trustee_table = std::make_unique<atom::FixedBaseTable>(round.TrusteePk());
    trustee = trustee_table.get();
  }
  atom::ThreadPool::Shared().For(
      atom::HardwareThreads(), count * msgs_per_round, [&](size_t item) {
        const size_t r = item / msgs_per_round;
        const size_t i = item % msgs_per_round;
        const uint64_t round_index = first + r;
        const uint32_t gid = static_cast<uint32_t>(i % groups);
        const atom::FixedBaseTable& entry = round.group(gid).pk_table();
        Bytes message = MakeMessage(seed, round_index, i, len);
        atom::Rng rng = ItemRng('S', seed, round_index, i);
        if (trap) {
          auto sub = atom::MakeTrapSubmission(entry, gid, *trustee,
                                              atom::BytesView(message),
                                              round.layout(), rng);
          sub.client_id = i + 1;
          rounds[r].trap[i] = std::move(sub);
        } else {
          auto sub = atom::MakeNizkSubmission(entry, gid,
                                              atom::BytesView(message),
                                              round.layout(), rng);
          sub.client_id = i + 1;
          rounds[r].nizk[i] = std::move(sub);
        }
        rounds[r].messages[i] = std::move(message);
      });
  return rounds;
}

uint64_t IngestClientId(size_t session) { return 100 + session; }

std::vector<std::vector<atom::TrapSubmission>> BuildIngestEpochs(
    atom::Round& round, uint64_t seed, const IngestShape& shape) {
  const size_t per_epoch = shape.PerEpoch();
  std::vector<std::vector<atom::TrapSubmission>> sets(
      shape.distinct_epochs, std::vector<atom::TrapSubmission>(per_epoch));
  atom::FixedBaseTable trustee(round.TrusteePk());
  atom::ThreadPool::Shared().For(
      atom::HardwareThreads(), shape.distinct_epochs * per_epoch,
      [&](size_t item) {
        const size_t e = item / per_epoch;
        const size_t slot = item % per_epoch;
        const size_t session = slot / shape.groups;
        const uint32_t gid = static_cast<uint32_t>(slot % shape.groups);
        Bytes message = MakeMessage(seed, e, slot, shape.message_len);
        atom::Rng rng = ItemRng('I', seed, e, slot);
        auto sub = atom::MakeTrapSubmission(
            round.group(gid).pk_table(), gid, trustee,
            atom::BytesView(message), round.layout(), rng);
        sub.client_id = IngestClientId(session);
        sets[e][slot] = std::move(sub);
      });
  return sets;
}

Bytes EncodeInputs(const std::vector<RoundInputs>& rounds) {
  Bytes out;
  for (const RoundInputs& r : rounds) {
    for (const Bytes& m : r.messages) {
      out.insert(out.end(), m.begin(), m.end());
    }
    for (const atom::TrapSubmission& sub : r.trap) {
      Bytes enc = atom::EncodeTrapSubmission(sub);
      out.insert(out.end(), enc.begin(), enc.end());
    }
    for (const atom::NizkSubmission& sub : r.nizk) {
      Bytes enc = atom::EncodeNizkSubmission(sub);
      out.insert(out.end(), enc.begin(), enc.end());
    }
  }
  return out;
}

}  // namespace perfbench
