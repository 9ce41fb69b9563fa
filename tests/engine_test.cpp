// Tests for the dependency-scheduled RoundEngine (src/core/engine.h): the
// pipelined hop-graph executor must produce byte-identical sorted
// plaintexts to the old layer-barrier driver for every variant × topology
// combination, pipeline several rounds concurrently without mixing them
// up, and confine a mid-pipeline malicious action to the round it hits.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/round.h"
#include "src/crypto/elgamal.h"
#include "src/util/hex.h"
#include "src/util/rng.h"

namespace atom {
namespace {

// A permutation network fixture at the GroupRuntime level (no entry/exit
// phase bookkeeping): G groups, each a k-server anytrust chain.
struct Network {
  std::unique_ptr<Topology> topology;
  std::vector<std::unique_ptr<GroupRuntime>> groups;

  static Network Square(size_t width, size_t iterations, size_t k, Rng& rng) {
    Network net;
    net.topology = std::make_unique<SquareTopology>(width, iterations);
    net.MakeGroups(k, rng);
    return net;
  }

  static Network Butterfly(size_t log2_width, size_t passes, size_t k,
                           Rng& rng) {
    Network net;
    net.topology = std::make_unique<ButterflyTopology>(log2_width, passes);
    net.MakeGroups(k, rng);
    return net;
  }

  void MakeGroups(size_t k, Rng& rng) {
    for (uint32_t g = 0; g < topology->Width(); g++) {
      groups.push_back(
          std::make_unique<GroupRuntime>(g, RunDkg(DkgParams{k, k}, rng)));
    }
  }

  std::vector<const GroupRuntime*> GroupPtrs() const {
    std::vector<const GroupRuntime*> out;
    for (const auto& g : groups) {
      out.push_back(g.get());
    }
    return out;
  }

  // One single-component message per payload byte pair, encrypted to the
  // entry group.
  std::vector<CiphertextBatch> MakeEntry(size_t per_group, uint8_t tag,
                                         Rng& rng) {
    std::vector<CiphertextBatch> entry(topology->Width());
    for (uint32_t g = 0; g < topology->Width(); g++) {
      for (size_t i = 0; i < per_group; i++) {
        Bytes payload = {tag, static_cast<uint8_t>(g),
                         static_cast<uint8_t>(i)};
        entry[g].push_back({ElGamalEncrypt(
            groups[g]->pk(), *EmbedMessage(BytesView(payload)), rng)});
      }
    }
    return entry;
  }

  EngineRound Spec(std::vector<CiphertextBatch> entry, Variant variant,
                   Rng& rng) const {
    EngineRound spec;
    spec.topology = topology.get();
    spec.groups = GroupPtrs();
    spec.variant = variant;
    spec.entry = std::move(entry);
    rng.Fill(spec.seed.data(), spec.seed.size());
    return spec;
  }
};

// The old driver, verbatim: a global barrier between layers.
std::vector<CiphertextBatch> BarrierMix(const Network& net, Variant variant,
                                        std::vector<CiphertextBatch> at,
                                        Rng& rng) {
  const Topology& topo = *net.topology;
  const size_t T = topo.NumLayers();
  const size_t G = topo.Width();
  for (size_t layer = 0; layer < T; layer++) {
    const bool last = (layer + 1 == T);
    std::vector<CiphertextBatch> next(G);
    std::vector<CiphertextBatch> exits(G);
    for (uint32_t g = 0; g < G; g++) {
      if (at[g].empty()) {
        continue;
      }
      std::vector<const FixedBaseTable*> next_tables;
      std::vector<uint32_t> neighbors;
      if (!last) {
        neighbors = topo.Neighbors(layer, g);
        for (uint32_t n : neighbors) {
          next_tables.push_back(&net.groups[n]->pk_table());
        }
      }
      HopResult hop =
          net.groups[g]->RunHop(at[g], next_tables, variant, rng);
      EXPECT_FALSE(hop.aborted) << hop.abort_reason;
      if (last) {
        exits[g] = std::move(hop.batches[0]);
      } else {
        for (size_t b = 0; b < neighbors.size(); b++) {
          for (auto& vec : hop.batches[b]) {
            next[neighbors[b]].push_back(std::move(vec));
          }
        }
      }
    }
    at = last ? std::move(exits) : std::move(next);
  }
  return at;
}

// Decrypts fully-stripped exit batches and returns the sorted hex
// plaintexts — the anonymity-set view both executors must agree on byte
// for byte.
std::vector<std::string> SortedPlaintexts(
    const std::vector<CiphertextBatch>& exits) {
  std::vector<std::string> out;
  for (const auto& batch : exits) {
    auto points = ExitPlaintexts(batch);
    EXPECT_TRUE(points.has_value());
    for (const auto& vec : *points) {
      for (const Point& p : vec) {
        auto bytes = ExtractMessage(p);
        EXPECT_TRUE(bytes.has_value());
        out.push_back(HexEncode(BytesView(*bytes)));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct EquivalenceCase {
  Variant variant;
  TopologyKind topology;
  const char* name;
};

class EngineEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EngineEquivalence, MatchesBarrierDriver) {
  const EquivalenceCase& c = GetParam();
  Rng rng(0xe9417e5u + static_cast<uint64_t>(c.variant) * 31 +
          static_cast<uint64_t>(c.topology));
  Network net = c.topology == TopologyKind::kSquare
                    ? Network::Square(3, 3, 2, rng)
                    : Network::Butterfly(1, 3, 2, rng);

  auto entry = net.MakeEntry(3, 0xa0, rng);
  auto entry_copy = entry;

  auto barrier = SortedPlaintexts(BarrierMix(net, c.variant, entry, rng));

  RoundEngine engine(&ThreadPool::Shared());
  auto result = engine.RunToCompletion(
      net.Spec(std::move(entry_copy), c.variant, rng));
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  auto pipelined = SortedPlaintexts(result.exits);

  ASSERT_FALSE(barrier.empty());
  EXPECT_EQ(pipelined, barrier);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, EngineEquivalence,
    ::testing::Values(
        EquivalenceCase{Variant::kTrap, TopologyKind::kSquare, "TrapSquare"},
        EquivalenceCase{Variant::kNizk, TopologyKind::kSquare, "NizkSquare"},
        EquivalenceCase{Variant::kTrap, TopologyKind::kButterfly,
                        "TrapButterfly"},
        EquivalenceCase{Variant::kNizk, TopologyKind::kButterfly,
                        "NizkButterfly"}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

TEST(RoundEngine, HandlesEmptyAndUnbalancedEntryGroups) {
  Rng rng(0xbadbeefu);
  Network net = Network::Square(3, 3, 2, rng);
  auto entry = net.MakeEntry(2, 0xb0, rng);
  entry[1].clear();  // one silent entry group
  auto entry_copy = entry;

  auto barrier = SortedPlaintexts(BarrierMix(net, Variant::kTrap, entry, rng));
  RoundEngine engine(&ThreadPool::Shared());
  auto result = engine.RunToCompletion(
      net.Spec(std::move(entry_copy), Variant::kTrap, rng));
  ASSERT_FALSE(result.aborted);
  EXPECT_EQ(SortedPlaintexts(result.exits), barrier);
}

TEST(RoundEngine, PipelinesMultipleRoundsWithoutCrosstalk) {
  Rng rng(0x9191u);
  Network net = Network::Square(3, 3, 2, rng);

  constexpr size_t kRounds = 3;
  std::vector<std::vector<std::string>> want;
  std::vector<uint64_t> tickets;
  RoundEngine engine(&ThreadPool::Shared());
  for (size_t r = 0; r < kRounds; r++) {
    auto entry = net.MakeEntry(2, static_cast<uint8_t>(0xc0 + r), rng);
    auto entry_copy = entry;
    want.push_back(
        SortedPlaintexts(BarrierMix(net, Variant::kTrap, entry, rng)));
    tickets.push_back(engine.Submit(
        net.Spec(std::move(entry_copy), Variant::kTrap, rng)));
  }
  // All rounds are now in flight together; each must come back with
  // exactly its own plaintext set.
  for (size_t r = 0; r < kRounds; r++) {
    auto result = engine.Wait(tickets[r]);
    ASSERT_FALSE(result.aborted) << result.abort_reason;
    EXPECT_EQ(SortedPlaintexts(result.exits), want[r]) << "round " << r;
  }
}

TEST(RoundEngine, FaultMidPipelineAbortsOnlyTheAffectedRound) {
  Rng rng(0xfa017u);
  Network net = Network::Square(3, 3, 2, rng);

  RoundEngine engine(&ThreadPool::Shared());
  std::vector<uint64_t> tickets;
  for (size_t r = 0; r < 3; r++) {
    auto spec = net.Spec(net.MakeEntry(2, static_cast<uint8_t>(0xd0 + r), rng),
                         Variant::kNizk, rng);
    if (r == 1) {
      // Server 2 of group 0 tampers during the layer-1 shuffle; in the
      // NIZK variant the proof check catches it immediately.
      spec.faults.push_back(HopFault{
          1, 0, {MaliciousAction::Kind::kTamperDuringShuffle, 2, 0}});
    }
    tickets.push_back(engine.Submit(std::move(spec)));
  }

  auto r0 = engine.Wait(tickets[0]);
  auto r1 = engine.Wait(tickets[1]);
  auto r2 = engine.Wait(tickets[2]);

  EXPECT_TRUE(r1.aborted);
  EXPECT_NE(r1.abort_reason.find("group 0 layer 1"), std::string::npos)
      << r1.abort_reason;

  ASSERT_FALSE(r0.aborted) << r0.abort_reason;
  ASSERT_FALSE(r2.aborted) << r2.abort_reason;
  EXPECT_EQ(SortedPlaintexts(r0.exits).size(), 6u);
  EXPECT_EQ(SortedPlaintexts(r2.exits).size(), 6u);
}

TEST(RoundEngine, FirstFaultOnAHopWinsLikeTheOldDriver) {
  // The barrier driver scanned evils first-match; two faults pinned to the
  // same (layer, gid) must behave identically here.
  Rng rng(0x2fa017u);
  Network net = Network::Square(3, 3, 2, rng);
  auto spec = net.Spec(net.MakeEntry(2, 0xe0, rng), Variant::kNizk, rng);
  spec.faults.push_back(
      HopFault{1, 0, {MaliciousAction::Kind::kTamperDuringShuffle, 1, 0}});
  spec.faults.push_back(
      HopFault{1, 0, {MaliciousAction::Kind::kTamperDuringReEnc, 1, 0}});
  RoundEngine engine(&ThreadPool::Shared());
  auto result = engine.RunToCompletion(std::move(spec));
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("shuffle"), std::string::npos)
      << result.abort_reason;
}

// ---- Exit-phase equivalence: engine-native vs legacy ExitPhase --------
//
// Two Rounds built from identically seeded Rngs have identical keys, and
// identically seeded submission streams produce byte-identical ciphertexts;
// pinning the same engine seed on both specs then makes the mixing output
// byte-identical too. The legacy path (mixing-only spec + synchronous
// ExitPhase) and the engine-native path (TakeEngineRound, exit runs as hop
// tasks) must agree on the entire RoundResult: plaintexts in order, trap
// accounting, abort flag, abort reason.

RoundConfig ExitConfig(Variant variant) {
  RoundConfig config;
  config.params.variant = variant;
  config.params.num_servers = 6;
  config.params.num_groups = 3;
  config.params.group_size = 2;
  config.params.honest_needed = 1;
  config.params.iterations = 3;
  config.params.message_len = 32;
  config.beacon = ToBytes("exit-equivalence-beacon");
  return config;
}

// Submits kUsers submissions to `round` (deterministic given rng state) and
// mirrors them into an entry-batch vector in shard acceptance order. A
// cheating user flips their trap commitment so the exit check must fail.
std::vector<CiphertextBatch> SubmitDeterministicUsers(Round& round,
                                                      Variant variant,
                                                      bool cheating_user,
                                                      Rng& rng) {
  constexpr uint32_t kUsers = 6;
  std::vector<CiphertextBatch> entry(round.NumGroups());
  for (uint32_t u = 0; u < kUsers; u++) {
    uint32_t gid = u % round.NumGroups();
    Bytes msg = ToBytes("exit-eq #" + std::to_string(u));
    if (variant == Variant::kTrap) {
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(), BytesView(msg),
                                    round.layout(), rng);
      if (cheating_user && u == 0) {
        sub.trap_commitment[0] ^= 0xff;  // commitment matches nothing
      }
      EXPECT_TRUE(round.SubmitTrap(sub));
      entry[gid].push_back(sub.first);
      entry[gid].push_back(sub.second);
    } else {
      auto sub = MakeNizkSubmission(round.EntryPk(gid), gid, BytesView(msg),
                                    round.layout(), rng);
      EXPECT_TRUE(round.SubmitNizk(sub));
      entry[gid].push_back(sub.ciphertext);
    }
  }
  return entry;
}

struct ExitEquivalenceCase {
  Variant variant;
  bool server_evil;    // one malicious server mid-network
  bool cheating_user;  // one bogus trap commitment (trap variant only)
  const char* name;
};

class ExitEquivalence
    : public ::testing::TestWithParam<ExitEquivalenceCase> {};

TEST_P(ExitEquivalence, EngineNativeExitMatchesLegacyExitPhase) {
  const ExitEquivalenceCase& c = GetParam();
  const uint64_t round_seed = 0x5eedc0de;

  std::vector<Round::Evil> evils;
  if (c.server_evil) {
    if (c.variant == Variant::kNizk) {
      evils.push_back(Round::Evil{
          1, 0, {MaliciousAction::Kind::kTamperDuringShuffle, 2, 0}});
    } else {
      evils.push_back(Round::Evil{
          0, 1, {MaliciousAction::Kind::kDuplicateDuringShuffle, 1, 1}});
    }
  }
  std::array<uint8_t, 32> engine_seed;
  Rng(0x91c0ffee).Fill(engine_seed.data(), engine_seed.size());

  // Legacy: mixing-only spec, exit phase synchronous on this thread.
  Rng rng_a(round_seed);
  Round round_a(ExitConfig(c.variant), rng_a);
  auto entry_a =
      SubmitDeterministicUsers(round_a, c.variant, c.cheating_user, rng_a);
  RoundEngine engine(&ThreadPool::Shared());
  auto spec_a = round_a.MakeEngineRound(std::move(entry_a), evils, rng_a);
  spec_a.seed = engine_seed;
  auto mixed = engine.RunToCompletion(std::move(spec_a));
  RoundResult legacy;
  if (mixed.aborted) {
    legacy.aborted = true;
    legacy.abort_reason = std::move(mixed.abort_reason);
    round_a.AbandonIntakeEpoch();  // the legacy driver's abort contract
  } else {
    legacy = round_a.ExitPhase(std::move(mixed.exits));
  }

  // Engine-native: identical Round (same seeds), exit runs as hop tasks.
  Rng rng_b(round_seed);
  Round round_b(ExitConfig(c.variant), rng_b);
  SubmitDeterministicUsers(round_b, c.variant, c.cheating_user, rng_b);
  auto spec_b = round_b.TakeEngineRound(evils, rng_b);
  spec_b.seed = engine_seed;
  RoundResult native = engine.RunToCompletion(std::move(spec_b)).round;

  EXPECT_EQ(native.aborted, legacy.aborted);
  EXPECT_EQ(native.abort_reason, legacy.abort_reason);
  EXPECT_EQ(native.traps_seen, legacy.traps_seen);
  EXPECT_EQ(native.inner_seen, legacy.inner_seen);
  ASSERT_EQ(native.plaintexts.size(), legacy.plaintexts.size());
  // Same engine seed => byte-identical mixing => identical exit input, so
  // even the plaintext ORDER must match between the two executors.
  EXPECT_EQ(native.plaintexts, legacy.plaintexts);
  if (!c.server_evil && !c.cheating_user) {
    EXPECT_FALSE(native.aborted) << native.abort_reason;
    EXPECT_EQ(native.plaintexts.size(), 6u);
  } else {
    EXPECT_TRUE(native.aborted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ExitEquivalence,
    ::testing::Values(
        ExitEquivalenceCase{Variant::kTrap, false, false, "TrapHonest"},
        ExitEquivalenceCase{Variant::kNizk, false, false, "NizkHonest"},
        ExitEquivalenceCase{Variant::kTrap, true, false, "TrapEvilServer"},
        ExitEquivalenceCase{Variant::kNizk, true, false, "NizkEvilServer"},
        ExitEquivalenceCase{Variant::kTrap, false, true, "TrapCheatingUser"}),
    [](const ::testing::TestParamInfo<ExitEquivalenceCase>& info) {
      return info.param.name;
    });

// ---- Per-engine-round trap bookkeeping isolation ----------------------

TEST(EngineNativeExit, TrapMismatchInOneRoundDoesNotCorruptTheNext) {
  // Each TakeEngineRound packages its own commitment set; a cheating user
  // in pipelined round i must abort round i alone, and rounds i+1, i+2
  // (same Round, same key epoch, in flight concurrently) must complete
  // with exactly their own messages and trap accounting.
  Rng rng(0xab5e11u);
  Round round(ExitConfig(Variant::kTrap), rng);
  RoundEngine engine(&ThreadPool::Shared());

  auto submit_users = [&](uint32_t count, const std::string& tag,
                          bool cheat) {
    std::set<std::string> sent;
    for (uint32_t u = 0; u < count; u++) {
      uint32_t gid = u % round.NumGroups();
      Bytes msg = ToBytes(tag + std::to_string(u));
      sent.insert(HexEncode(BytesView(PadTo(BytesView(msg), 32))));
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(), BytesView(msg),
                                    round.layout(), rng);
      if (cheat && u == 0) {
        sub.trap_commitment[0] ^= 0xff;
      }
      EXPECT_TRUE(round.SubmitTrap(sub));
    }
    return sent;
  };

  submit_users(3, "poisoned ", /*cheat=*/true);
  auto spec1 = round.TakeEngineRound({}, rng);
  uint64_t epoch1 = spec1.intake_epoch;
  auto sent2 = submit_users(4, "clean-a ", false);
  auto spec2 = round.TakeEngineRound({}, rng);
  auto sent3 = submit_users(3, "clean-b ", false);
  auto spec3 = round.TakeEngineRound({}, rng);

  uint64_t t1 = engine.Submit(std::move(spec1));
  uint64_t t2 = engine.Submit(std::move(spec2));
  uint64_t t3 = engine.Submit(std::move(spec3));

  auto r1 = engine.Wait(t1).round;
  auto r2 = engine.Wait(t2).round;
  auto r3 = engine.Wait(t3).round;

  EXPECT_TRUE(r1.aborted);
  EXPECT_NE(r1.abort_reason.find("trustees refused"), std::string::npos)
      << r1.abort_reason;
  // §4.6 blame still reaches the aborted round's batch even though two
  // later epochs were taken: the cheater was user 0 of entry group 0
  // (the cheating submission is that group's first accepted one).
  auto blame = round.BlameEntryGroup(0, epoch1);
  ASSERT_EQ(blame.bad_users.size(), 1u);
  EXPECT_EQ(blame.bad_users[0], 0u);
  // The newest epoch (round 3, all honest) blames nobody.
  EXPECT_TRUE(round.BlameEntryGroup(0).bad_users.empty());

  auto hex_set = [](const std::vector<Bytes>& plaintexts) {
    std::set<std::string> out;
    for (const auto& p : plaintexts) {
      out.insert(HexEncode(BytesView(p)));
    }
    return out;
  };
  ASSERT_FALSE(r2.aborted) << r2.abort_reason;
  EXPECT_EQ(hex_set(r2.plaintexts), sent2);
  EXPECT_EQ(r2.traps_seen, 4u);
  EXPECT_EQ(r2.inner_seen, 4u);
  ASSERT_FALSE(r3.aborted) << r3.abort_reason;
  EXPECT_EQ(hex_set(r3.plaintexts), sent3);
  EXPECT_EQ(r3.traps_seen, 3u);
}

TEST(EngineNativeExit, OneKeyEpochServesAPipelineOfFullRounds) {
  // intake -> mix -> exit entirely inside the engine, several rounds in
  // flight at once, all under one Round's keys (§4.7 deployments re-key
  // far less often than they batch).
  Rng rng(0x1b1d5u);
  Round round(ExitConfig(Variant::kTrap), rng);
  RoundEngine engine(&ThreadPool::Shared());

  constexpr size_t kRounds = 3;
  std::vector<std::set<std::string>> sent(kRounds);
  std::vector<uint64_t> tickets;
  for (size_t r = 0; r < kRounds; r++) {
    for (uint32_t u = 0; u < 4; u++) {
      uint32_t gid = u % round.NumGroups();
      Bytes msg = ToBytes("epoch" + std::to_string(r) + " user" +
                          std::to_string(u));
      sent[r].insert(HexEncode(BytesView(PadTo(BytesView(msg), 32))));
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(), BytesView(msg),
                                    round.layout(), rng);
      ASSERT_TRUE(round.SubmitTrap(sub));
    }
    tickets.push_back(engine.Submit(round.TakeEngineRound({}, rng)));
  }
  for (size_t r = 0; r < kRounds; r++) {
    auto result = engine.Wait(tickets[r]).round;
    ASSERT_FALSE(result.aborted) << "round " << r << ": "
                                 << result.abort_reason;
    std::set<std::string> got;
    for (const auto& p : result.plaintexts) {
      got.insert(HexEncode(BytesView(p)));
    }
    EXPECT_EQ(got, sent[r]) << "round " << r;
    EXPECT_EQ(result.traps_seen, 4u) << "round " << r;
    EXPECT_EQ(result.inner_seen, 4u) << "round " << r;
  }
}

TEST(RoundEngine, AbandonedEpochDoesNotPoisonTheNextLegacyRound) {
  // Legacy MakeEngineRound + ExitPhase drivers: when mixing aborts,
  // ExitPhase never runs, so the driver abandons the epoch. Without the
  // abandon, the aborted batch's trap commitments would merge into the
  // next round's check and spuriously abort an all-honest round.
  Rng rng(0xaba4d04u);
  Round round(ExitConfig(Variant::kTrap), rng);
  RoundEngine engine(&ThreadPool::Shared());

  auto submit_batch = [&](const std::string& tag) {
    std::vector<CiphertextBatch> entry(round.NumGroups());
    for (uint32_t u = 0; u < 4; u++) {
      uint32_t gid = u % round.NumGroups();
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(),
                                    BytesView(ToBytes(tag)), round.layout(),
                                    rng);
      EXPECT_TRUE(round.SubmitTrap(sub));
      entry[gid].push_back(sub.first);
      entry[gid].push_back(sub.second);
    }
    return entry;
  };

  // Round 1: group 1 drops below threshold, so its first hop aborts the
  // mix. The driver abandons the epoch and repairs the group.
  auto entry1 = submit_batch("doomed");
  round.group(1).MarkFailed(1);
  auto mixed1 =
      engine.RunToCompletion(round.MakeEngineRound(std::move(entry1), {},
                                                   rng));
  EXPECT_TRUE(mixed1.aborted);
  round.AbandonIntakeEpoch();
  round.group(1).Restore(round.group(1).dkg().keys[0]);

  // Round 2: all honest; must pass the trap check with only its own
  // commitments.
  auto entry2 = submit_batch("fresh");
  auto mixed2 =
      engine.RunToCompletion(round.MakeEngineRound(std::move(entry2), {},
                                                   rng));
  ASSERT_FALSE(mixed2.aborted) << mixed2.abort_reason;
  auto result = round.ExitPhase(std::move(mixed2.exits));
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), 4u);
  EXPECT_EQ(result.traps_seen, 4u);
}

TEST(RoundEngine, RoundLevelPipelineBuildingBlocks) {
  // Round::MakeEngineRound + ExitPhase compose into exactly what
  // RunWithEvils does — the pieces a pipelined driver schedules itself.
  Rng rng(0x70707u);
  RoundConfig config;
  config.params.variant = Variant::kNizk;
  config.params.num_servers = 6;
  config.params.num_groups = 3;
  config.params.group_size = 2;
  config.params.honest_needed = 1;
  config.params.iterations = 3;
  config.params.message_len = 32;
  config.beacon = ToBytes("engine-test-beacon");
  Round round(config, rng);

  std::vector<CiphertextBatch> entry(round.NumGroups());
  std::set<std::string> sent;
  for (uint32_t u = 0; u < 6; u++) {
    uint32_t gid = u % round.NumGroups();
    Bytes msg = ToBytes("pipelined #" + std::to_string(u));
    sent.insert(HexEncode(BytesView(PadTo(BytesView(msg), 32))));
    auto sub = MakeNizkSubmission(round.EntryPk(gid), gid, BytesView(msg),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitNizk(sub));
    entry[gid].push_back(sub.ciphertext);
  }

  RoundEngine engine(&ThreadPool::Shared());
  auto mixed = engine.RunToCompletion(
      round.MakeEngineRound(std::move(entry), {}, rng));
  ASSERT_FALSE(mixed.aborted) << mixed.abort_reason;
  auto result = round.ExitPhase(std::move(mixed.exits));
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  std::set<std::string> got;
  for (const auto& p : result.plaintexts) {
    got.insert(HexEncode(BytesView(p)));
  }
  EXPECT_EQ(got, sent);
}

}  // namespace
}  // namespace atom
