// The benchmark's own checks: the percentile helper against ground
// truth, seeded input generation, and the output checker's rejections.
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/stats.h"
#include "src/core/engine.h"
#include "src/util/parallel.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    g_failures++;
  }
}

// Samples 1..n in a scrambled order.
std::vector<double> OneToN(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  for (size_t i = 0; i < n; i++) {
    std::swap(v[i], v[(i * 7919 + 13) % n]);
  }
  return v;
}

void PercentilesMatchGroundTruth() {
  using perfbench::Percentile;
  const std::vector<double> hundred = OneToN(100);
  // Nearest rank over 1..100: the p-th percentile is p itself.
  for (int p = 1; p <= 100; p++) {
    Expect(Percentile(hundred, p) == p,
           "p" + std::to_string(p) + " of 1..100");
  }
  Expect(Percentile(hundred, 0) == 1, "p0 is the minimum");
  Expect(perfbench::Median(OneToN(5)) == 3, "median of 1..5");
  Expect(perfbench::Median(OneToN(4)) == 2, "median of 1..4 (lower middle)");
  Expect(Percentile({}, 50) == 0, "empty sample set");
  // 1..10: p25 -> rank ceil(2.5) = 3, p75 -> rank ceil(7.5) = 8.
  perfbench::Quartiles q = perfbench::QuartilesOf(OneToN(10));
  Expect(q.q1 == 3 && q.median == 5 && q.q3 == 8 && q.count == 10,
         "quartiles of 1..10");

  // Tail: highest percentile with at least 10 samples ranked after it.
  perfbench::Tail t = perfbench::TailOf(hundred, 10);
  Expect(t.enough && t.percentile == 90 && t.value == 90 && t.beyond == 10,
         "tail of 1..100 is p90 = 90");
  // 45 samples: p77 -> rank ceil(34.65) = 35 leaves 10; p78 -> 36 leaves 9.
  t = perfbench::TailOf(OneToN(45), 10);
  Expect(t.enough && t.percentile == 77 && t.value == 35 && t.beyond == 10,
         "tail of 1..45 is p77 = 35");
  t = perfbench::TailOf(OneToN(15), 10);
  Expect(!t.enough && t.percentile == 50 && t.value == 8,
         "too few samples: the median, flagged");
}

void SameSeedSameInputs() {
  const perfbench::MixShape shape = perfbench::MixTrapShape();
  auto build = [&](uint64_t seed) {
    auto round =
        perfbench::MakeRound(perfbench::MixRoundConfig(shape, seed), seed);
    atom::Bytes bytes = perfbench::EncodeInputs(
        perfbench::BuildRoundInputs(*round, seed, 0, 2, 6));
    for (uint32_t g = 0; g < round->NumGroups(); g++) {
      atom::Bytes pk = round->EntryPk(g).Encode();
      bytes.insert(bytes.end(), pk.begin(), pk.end());
    }
    return bytes;
  };
  const atom::Bytes a = build(7);
  Expect(!a.empty() && a == build(7), "seed 7 twice gives identical bytes");
  Expect(a != build(8), "seeds 7 and 8 give different bytes");

  const perfbench::MixShape nizk = perfbench::MixNizkShape();
  auto nizk_round =
      perfbench::MakeRound(perfbench::MixRoundConfig(nizk, 3), 3);
  Expect(perfbench::EncodeInputs(
             perfbench::BuildRoundInputs(*nizk_round, 3, 5, 1, 4)) ==
             perfbench::EncodeInputs(
                 perfbench::BuildRoundInputs(*nizk_round, 3, 5, 1, 4)),
         "NIZK submissions are seeded too");
}

void CheckerRejectsBadOutput() {
  perfbench::MixShape shape = perfbench::MixTrapShape();
  const uint64_t seed = 11;
  auto round =
      perfbench::MakeRound(perfbench::MixRoundConfig(shape, seed), seed);
  const size_t msgs = 8;
  atom::Rng take_rng(seed);
  atom::RoundEngine engine(&atom::ThreadPool::Shared());

  auto inputs = perfbench::BuildRoundInputs(*round, seed, 0, 2, msgs);
  std::vector<bool> accepted = round->SubmitTrapBatch(inputs[0].trap, 2);
  Expect(std::count(accepted.begin(), accepted.end(), true) ==
             static_cast<long>(msgs),
         "honest submissions accepted");
  atom::EngineRound spec = round->TakeEngineRound({}, take_rng);
  std::vector<size_t> per_group(shape.groups, msgs / shape.groups);
  Expect(perfbench::CheckDrainedEpoch(spec, per_group).empty(),
         "drained epoch matches the admitted counts");
  per_group[1]++;
  Expect(!perfbench::CheckDrainedEpoch(spec, per_group).empty(),
         "drained epoch with a miscount is rejected");

  const atom::RoundResult good = engine.RunToCompletion(std::move(spec)).round;
  const std::vector<atom::Bytes>& messages = inputs[0].messages;
  Expect(perfbench::CheckRound(good, messages, atom::Variant::kTrap).empty(),
         "a clean round passes");
  Expect(perfbench::CheckIdentical(good, good).empty(),
         "a round is identical to itself");

  atom::RoundResult flipped = good;
  flipped.plaintexts[flipped.plaintexts.size() / 2][3] ^= 0x01;
  Expect(!perfbench::CheckRound(flipped, messages, atom::Variant::kTrap)
              .empty(),
         "one flipped plaintext byte fails the multiset check");
  Expect(!perfbench::CheckIdentical(flipped, good).empty(),
         "one flipped plaintext byte fails the byte-identity check");

  atom::RoundResult marked = good;
  marked.aborted = true;
  marked.abort_reason = "group 0 layer 0: test";
  Expect(!perfbench::CheckRound(marked, messages, atom::Variant::kTrap)
              .empty(),
         "a round marked aborted fails even with every plaintext present");

  atom::RoundResult miscounted = good;
  miscounted.traps_seen--;
  Expect(!perfbench::CheckRound(miscounted, messages, atom::Variant::kTrap)
              .empty(),
         "trap accounting mismatch fails");

  // A round a malicious mixer disrupts aborts at the trap check.
  round->SubmitTrapBatch(inputs[1].trap, 2);
  atom::EngineRound evil_spec = round->TakeEngineRound({}, take_rng);
  atom::HopFault fault;
  fault.layer = 1;
  fault.gid = 2;
  fault.action.kind = atom::MaliciousAction::Kind::kTamperDuringShuffle;
  fault.action.server_index = 1;
  evil_spec.faults.push_back(fault);
  const atom::RoundResult aborted =
      engine.RunToCompletion(std::move(evil_spec)).round;
  Expect(aborted.aborted, "a tampered round aborts");
  Expect(!perfbench::CheckRound(aborted, inputs[1].messages,
                                atom::Variant::kTrap)
              .empty(),
         "an aborted round fails the check");
}

}  // namespace

int main() {
  PercentilesMatchGroundTruth();
  SameSeedSameInputs();
  CheckerRejectsBadOutput();
  if (g_failures != 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
