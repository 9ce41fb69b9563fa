#include "perfbench/src/probes.h"

#include <chrono>
#include <functional>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/kem.h"
#include "src/crypto/mont.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/sim/netsim.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Median over `reps` repetitions of (time for ops calls of fn) / ops, in
// seconds per operation. fn(i) performs operation i of a repetition.
double PerOp(size_t reps, size_t ops, const std::function<void(size_t)>& fn) {
  std::vector<double> samples;
  for (size_t r = 0; r < reps; r++) {
    auto t0 = Clock::now();
    for (size_t i = 0; i < ops; i++) {
      fn(i);
    }
    samples.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                      static_cast<double>(ops));
  }
  return Median(samples);
}

atom::Point Embedded(const char* text) {
  return *atom::EmbedMessage(atom::BytesView(atom::ToBytes(text)));
}

}  // namespace

atom::CostModel ProbeResults::Calibrated() const {
  atom::CostModel cm;
  cm.enc = enc_us * 1e-6;
  cm.reenc = reenc_us * 1e-6;
  cm.shuffle_per_msg = shuffle_per_msg_us * 1e-6;
  cm.enc_prove = enc_prove_us * 1e-6;
  cm.enc_verify = enc_verify_us * 1e-6;
  cm.reenc_prove = reenc_prove_us * 1e-6;
  cm.reenc_verify = reenc_verify_us * 1e-6;
  const MixShape nizk = MixNizkShape();
  const double batch =
      static_cast<double>(nizk.msgs_per_round / nizk.groups) *
      static_cast<double>(
          atom::LayoutFor(nizk.variant, nizk.message_len).num_points);
  cm.shuf_prove_per_msg =
      shuffle_prove_ms * 1e-3 / batch - cm.shuffle_per_msg;
  cm.shuf_verify_per_msg = shuffle_verify_ms * 1e-3 / batch;
  cm.kem_decrypt = kem_decrypt_us * 1e-6;
  return cm;
}

ProbeResults RunProbes(uint64_t seed) {
  Span span("probes", "crypto");
  atom::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ProbeResults out;
  const size_t kReps = 5;

  {
    Span s("probe.field_mul", "crypto");
    const atom::Mont& field = atom::FieldP();
    atom::U256 x = field.ToMont(atom::U256::FromU64(rng.NextU64() | 1));
    const atom::U256 y = field.ToMont(atom::U256::FromU64(rng.NextU64() | 1));
    out.field_mul_ns = PerOp(kReps, 200000, [&](size_t) {
                         x = field.Mul(x, y);
                       }) * 1e9;
    volatile bool sink = x.IsZero();
    (void)sink;
  }

  std::vector<atom::Scalar> scalars(64);
  for (auto& k : scalars) {
    k = atom::Scalar::Random(rng);
  }
  {
    Span s("probe.var_mul", "crypto");
    atom::Point base = atom::Point::BaseMul(atom::Scalar::Random(rng));
    atom::Point acc;
    out.var_mul_us = PerOp(kReps, 32, [&](size_t i) {
                       acc = acc + base.Mul(scalars[i]);
                     }) * 1e6;
  }
  {
    Span s("probe.base_mul", "crypto");
    atom::Point acc;
    out.base_mul_us = PerOp(kReps, 64, [&](size_t i) {
                        acc = acc + atom::Point::BaseMul(scalars[i]);
                      }) * 1e6;
  }
  {
    // One gateway pump span's worth of signed submissions.
    Span s("probe.schnorr_batch", "crypto");
    const size_t n = 64;
    std::vector<atom::Point> pks;
    std::vector<atom::Bytes> msgs;
    std::vector<atom::SchnorrSignature> sigs;
    for (size_t i = 0; i < n; i++) {
      atom::SchnorrKeypair kp = atom::SchnorrKeyGen(rng);
      msgs.push_back(rng.NextBytes(600));
      sigs.push_back(atom::SchnorrSign(kp.sk, kp.pk,
                                       atom::BytesView(msgs.back()), rng));
      pks.push_back(kp.pk);
    }
    std::vector<atom::BytesView> views(msgs.begin(), msgs.end());
    out.schnorr_batch_us_per_sig =
        PerOp(kReps, 1, [&](size_t) {
          out.verified &= atom::SchnorrVerifyBatch(pks, views, sigs);
        }) * 1e6 / static_cast<double>(n);
  }

  // ElGamal rungs on one component (CostModel's unit).
  const size_t kBatch = 16;
  auto group = atom::ElGamalKeyGen(rng);
  auto next = atom::ElGamalKeyGen(rng);
  const atom::Point m = Embedded("perfbench probe");
  std::vector<atom::ElGamalCiphertext> cts(kBatch), outs(kBatch);
  std::vector<atom::Scalar> rands(kBatch), rewraps(kBatch);
  std::vector<atom::EncProof> eproofs(kBatch);
  std::vector<atom::ReEncProof> rproofs(kBatch);
  {
    Span s("probe.elgamal", "crypto");
    out.enc_us = PerOp(kReps, kBatch, [&](size_t i) {
                   cts[i] = atom::ElGamalEncrypt(group.pk, m, rng, &rands[i]);
                 }) * 1e6;
    out.enc_prove_us = PerOp(3, kBatch, [&](size_t i) {
                         eproofs[i] = atom::MakeEncProof(group.pk, 0, cts[i],
                                                         rands[i], rng);
                       }) * 1e6;
    out.enc_verify_us = PerOp(3, kBatch, [&](size_t i) {
                          atom::VerifyEncProof(group.pk, 0, cts[i],
                                               eproofs[i]);
                        }) * 1e6;
    out.reenc_us = PerOp(kReps, kBatch, [&](size_t i) {
                     outs[i] = atom::ElGamalReEnc(group.sk, &next.pk, cts[i],
                                                  rng, &rewraps[i]);
                   }) * 1e6;
    out.reenc_prove_us =
        PerOp(3, kBatch, [&](size_t i) {
          rproofs[i] = atom::MakeReEncProof(group.sk, group.pk, &next.pk,
                                            cts[i], outs[i], rewraps[i], rng);
        }) * 1e6;
    out.reenc_verify_us =
        PerOp(3, kBatch, [&](size_t i) {
          atom::VerifyReEncProof(group.pk, &next.pk, cts[i], outs[i],
                                 rproofs[i]);
        }) * 1e6;
    atom::CiphertextBatch single(kBatch);
    for (size_t i = 0; i < kBatch; i++) {
      single[i].push_back(cts[i]);
    }
    out.shuffle_per_msg_us =
        PerOp(3, 1, [&](size_t) { atom::ShuffleBatch(group.pk, single, rng); }) *
        1e6 / static_cast<double>(kBatch);
  }
  {
    // mix_nizk's per-group batch: its messages per group, each a vector
    // of the NIZK layout's points.
    Span s("probe.shuffle_proof", "crypto");
    const MixShape nizk = MixNizkShape();
    const size_t msgs = nizk.msgs_per_round / nizk.groups;
    const size_t points =
        atom::LayoutFor(nizk.variant, nizk.message_len).num_points;
    atom::CiphertextBatch batch(msgs);
    for (auto& vec : batch) {
      for (size_t p = 0; p < points; p++) {
        vec.push_back(atom::ElGamalEncrypt(group.pk, m, rng));
      }
    }
    atom::ShuffleResult proved;
    out.shuffle_prove_ms = PerOp(kReps, 1, [&](size_t) {
                             proved = atom::ShuffleAndProve(group.pk, batch,
                                                            rng);
                           }) * 1e3;
    out.shuffle_verify_ms =
        PerOp(kReps, 1, [&](size_t) {
          out.verified &= atom::VerifyShuffle(group.pk, batch, proved.output,
                                              proved.proof);
        }) * 1e3;
  }
  {
    Span s("probe.kem_decrypt", "crypto");
    auto kem = atom::KemKeyGen(rng);
    atom::Bytes msg(160, 0xab);
    atom::Bytes kct = atom::KemEncrypt(kem.pk, atom::BytesView(msg), rng);
    out.kem_decrypt_us = PerOp(kReps, kBatch, [&](size_t) {
                           out.verified &=
                               atom::KemDecrypt(kem.sk, atom::BytesView(kct))
                                   .has_value();
                         }) * 1e6;
  }
  return out;
}

double ProbeHopMs(atom::Round& round, const MixShape& shape, uint64_t seed) {
  Span span("probe.group_hop", "core");
  atom::Rng rng(seed ^ 0x0ddba11ULL);
  const atom::GroupRuntime& group = round.group(0);
  const size_t points = round.layout().num_points;
  const size_t vectors = shape.msgs_per_round / shape.groups *
                         (shape.variant == atom::Variant::kTrap ? 2 : 1);
  const atom::Point m = Embedded("perfbench hop");
  atom::CiphertextBatch batch(std::max<size_t>(vectors, 1));
  for (auto& vec : batch) {
    for (size_t p = 0; p < points; p++) {
      vec.push_back(atom::ElGamalEncrypt(group.pk_table(), m, rng));
    }
  }
  std::vector<atom::Point> next_pks;
  for (uint32_t g = 0; g < round.NumGroups(); g++) {
    next_pks.push_back(round.EntryPk(g));
  }
  return PerOp(5, 1, [&](size_t) {
           group.RunHop(batch, next_pks, shape.variant, rng);
         }) * 1e3;
}

double PredictRoundSeconds(const MixShape& shape,
                           const atom::CostModel& costs, size_t cores) {
  atom::NetSimConfig config;
  config.params = MixRoundConfig(shape, 0).params;
  config.total_messages = shape.msgs_per_round;
  config.components =
      atom::LayoutFor(shape.variant, shape.message_len).num_points;
  atom::NetworkModel net = atom::NetworkModel::Uniform(
      shape.groups * shape.group_size, static_cast<uint32_t>(cores), 1e9);
  return atom::EstimateRound(config, net, costs).total_seconds;
}

double PredictVerifyUsPerSub(size_t message_len,
                             const atom::CostModel& costs) {
  const double points = static_cast<double>(
      atom::LayoutFor(atom::Variant::kTrap, message_len).num_points);
  return 2 * points * costs.enc_verify * 1e6;
}

}  // namespace perfbench
