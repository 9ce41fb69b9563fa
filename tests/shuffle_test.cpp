// Tests for the verifiable shuffle: completeness over batch shapes and
// worker counts, zero-knowledge-ish sanity (proofs differ run to run),
// soundness against tampering (drop / duplicate / replace / reorder attacks
// a malicious Atom server could attempt), and serialization.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/shuffle.h"
#include "src/util/rng.h"

namespace atom {
namespace {

CiphertextBatch MakeBatch(const Point& pk, size_t n, size_t l, Rng& rng) {
  CiphertextBatch batch(n);
  for (size_t i = 0; i < n; i++) {
    for (size_t c = 0; c < l; c++) {
      Bytes payload = rng.NextBytes(kEmbedCapacity);
      payload[0] = static_cast<uint8_t>(i);  // tag messages by index
      auto m = EmbedMessage(BytesView(payload));
      batch[i].push_back(ElGamalEncrypt(pk, *m, rng));
    }
  }
  return batch;
}

std::vector<Bytes> DecryptAll(const Scalar& sk, const CiphertextBatch& batch) {
  std::vector<Bytes> out;
  for (const auto& vec : batch) {
    Bytes joined;
    for (const auto& ct : vec) {
      auto m = ElGamalDecrypt(sk, ct);
      EXPECT_TRUE(m.has_value());
      auto data = ExtractMessage(*m);
      EXPECT_TRUE(data.has_value());
      joined.insert(joined.end(), data->begin(), data->end());
    }
    out.push_back(joined);
  }
  return out;
}

TEST(PlainShuffle, PermutesAndPreservesPlaintexts) {
  Rng rng(200u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 16, 2, rng);
  auto before = DecryptAll(kp.sk, batch);

  std::vector<uint32_t> perm;
  auto shuffled = ShuffleBatch(kp.pk, batch, rng, &perm);
  auto after = DecryptAll(kp.sk, shuffled);

  // Same multiset of plaintexts.
  auto sorted_before = before, sorted_after = after;
  std::sort(sorted_before.begin(), sorted_before.end());
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(sorted_before, sorted_after);
  // And the reported permutation is the true one.
  for (size_t i = 0; i < perm.size(); i++) {
    EXPECT_EQ(after[i], before[perm[i]]);
  }
}

TEST(PlainShuffle, CiphertextsAreRerandomized) {
  Rng rng(201u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto shuffled = ShuffleBatch(kp.pk, batch, rng);
  // No output ciphertext may textually equal any input ciphertext.
  for (const auto& out : shuffled) {
    for (const auto& in : batch) {
      EXPECT_FALSE(out[0] == in[0]);
    }
  }
}

TEST(RandomPermutationTest, IsPermutationAndVaries) {
  Rng rng(202u);
  auto p1 = RandomPermutation(64, rng);
  auto p2 = RandomPermutation(64, rng);
  auto sorted = p1;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); i++) {
    EXPECT_EQ(sorted[i], i);
  }
  EXPECT_NE(p1, p2);
}

struct ShuffleShape {
  size_t n;
  size_t l;
  size_t workers;
};

class ShuffleProofTest : public ::testing::TestWithParam<ShuffleShape> {};

TEST_P(ShuffleProofTest, CompletenessAcrossShapes) {
  auto [n, l, workers] = GetParam();
  Rng rng(300u + n * 10 + l);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, n, l, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng, workers);
  EXPECT_TRUE(
      VerifyShuffle(kp.pk, batch, result.output, result.proof, workers));
  // Plaintext multiset preserved.
  auto before = DecryptAll(kp.sk, batch);
  auto after = DecryptAll(kp.sk, result.output);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShuffleProofTest,
    ::testing::Values(ShuffleShape{1, 1, 1}, ShuffleShape{2, 1, 1},
                      ShuffleShape{8, 1, 1}, ShuffleShape{8, 3, 1},
                      ShuffleShape{33, 2, 1}, ShuffleShape{64, 1, 2},
                      ShuffleShape{128, 2, 4}));

TEST(ShuffleProofSoundness, RejectsDroppedMessage) {
  Rng rng(400u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  // Malicious server drops one output and substitutes a fresh encryption.
  auto evil = result.output;
  auto junk = EmbedMessage(BytesView(ToBytes("junk")));
  evil[3][0] = ElGamalEncrypt(kp.pk, *junk, rng);
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, evil, result.proof));
}

TEST(ShuffleProofSoundness, RejectsDuplicatedMessage) {
  Rng rng(401u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  auto evil = result.output;
  evil[5] = evil[2];  // duplicate one message, dropping another
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, evil, result.proof));
}

TEST(ShuffleProofSoundness, RejectsTamperedComponent) {
  Rng rng(402u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 2, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  auto evil = result.output;
  evil[0][1].c = evil[0][1].c + Point::Generator();
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, evil, result.proof));
}

TEST(ShuffleProofSoundness, RejectsProofForDifferentInput) {
  Rng rng(403u);
  auto kp = ElGamalKeyGen(rng);
  auto batch1 = MakeBatch(kp.pk, 8, 1, rng);
  auto batch2 = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch1, rng);
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch2, result.output, result.proof));
}

TEST(ShuffleProofSoundness, RejectsWrongPublicKey) {
  Rng rng(404u);
  auto kp = ElGamalKeyGen(rng);
  auto other = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  EXPECT_FALSE(VerifyShuffle(other.pk, batch, result.output, result.proof));
}

TEST(ShuffleProofSoundness, RejectsMutatedResponses) {
  Rng rng(405u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 4, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  {
    auto evil = result.proof;
    evil.s1 = evil.s1 + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
  {
    auto evil = result.proof;
    evil.s_prime[2] = evil.s_prime[2] + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
  {
    auto evil = result.proof;
    evil.s_hat[1] = evil.s_hat[1] + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
  {
    auto evil = result.proof;
    evil.s4[0] = evil.s4[0] + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
}

// Every group element / response of a proof, in a fixed order.
std::vector<Point*> ProofPoints(ShuffleProof& p) {
  std::vector<Point*> out = {&p.t1, &p.t2, &p.t3};
  for (auto* v : {&p.perm_commit, &p.chain_commit, &p.t4a, &p.t4b,
                  &p.t_hat}) {
    for (Point& q : *v) {
      out.push_back(&q);
    }
  }
  return out;
}

std::vector<Scalar*> ProofScalars(ShuffleProof& p) {
  std::vector<Scalar*> out = {&p.s1, &p.s2, &p.s3};
  for (auto* v : {&p.s4, &p.s_hat, &p.s_prime}) {
    for (Scalar& k : *v) {
      out.push_back(&k);
    }
  }
  return out;
}

TEST(ShuffleProofSoundness, RejectsEverySingleFieldTamper) {
  // One verification combines every relation into one weighted sum; a
  // change to any single proof element or statement point must still
  // break it.
  Rng rng(410u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 3, 2, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  ASSERT_TRUE(VerifyShuffle(kp.pk, batch, result.output, result.proof));
  const Point g = Point::Generator();
  const size_t num_points = ProofPoints(result.proof).size();
  for (size_t k = 0; k < num_points; k++) {
    ShuffleProof evil = result.proof;
    *ProofPoints(evil)[k] = *ProofPoints(evil)[k] + g;
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil))
        << "proof point " << k;
  }
  const size_t num_scalars = ProofScalars(result.proof).size();
  for (size_t k = 0; k < num_scalars; k++) {
    ShuffleProof evil = result.proof;
    *ProofScalars(evil)[k] = *ProofScalars(evil)[k] + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil))
        << "proof scalar " << k;
  }
  for (size_t i = 0; i < 3; i++) {
    for (size_t c = 0; c < 2; c++) {
      for (bool in_output : {false, true}) {
        for (bool r_part : {false, true}) {
          CiphertextBatch in = batch, out = result.output;
          ElGamalCiphertext& ct = in_output ? out[i][c] : in[i][c];
          Point& part = r_part ? ct.r : ct.c;
          part = part + g;
          EXPECT_FALSE(VerifyShuffle(kp.pk, in, out, result.proof))
              << (in_output ? "output[" : "input[") << i << "][" << c
              << (r_part ? "].r" : "].c");
        }
      }
    }
  }
  EXPECT_FALSE(VerifyShuffle(kp.pk + g, batch, result.output, result.proof));
  // Reordering any per-message vector breaks its binding too.
  for (auto v : {&ShuffleProof::perm_commit, &ShuffleProof::chain_commit,
                 &ShuffleProof::t_hat}) {
    ShuffleProof evil = result.proof;
    std::swap((evil.*v)[0], (evil.*v)[1]);
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
  for (auto v : {&ShuffleProof::s_hat, &ShuffleProof::s_prime}) {
    ShuffleProof evil = result.proof;
    std::swap((evil.*v)[0], (evil.*v)[1]);
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
}

TEST(ShuffleProofSoundness, RejectsEqualAndOppositeErrors) {
  // Each pair below leaves the unweighted sum of the relations intact
  // (±δ·G, or ±δ·G and ±δ·pk for s4), so only independent per-relation
  // weights reject it.
  Rng rng(411u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 3, 2, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  const Scalar delta = Scalar::Random(rng);
  std::vector<std::pair<Scalar*, Scalar*>> pairs;
  ShuffleProof evil[3] = {result.proof, result.proof, result.proof};
  pairs.push_back({&evil[0].s1, &evil[0].s2});              // REL1 vs REL2
  pairs.push_back({&evil[1].s_hat[0], &evil[1].s_hat[1]});  // chain steps
  pairs.push_back({&evil[2].s4[0], &evil[2].s4[1]});        // REL4 components
  for (size_t k = 0; k < pairs.size(); k++) {
    *pairs[k].first = *pairs[k].first + delta;
    *pairs[k].second = *pairs[k].second - delta;
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil[k]))
        << "pair " << k;
  }
}

TEST(ShuffleProofSoundness, RejectsShapeMismatch) {
  Rng rng(406u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 4, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  auto shorter = result.output;
  shorter.pop_back();
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, shorter, result.proof));
}

TEST(ShuffleProof, ProofsAreRandomized) {
  // Two proofs over the same input differ (fresh permutation + randomness):
  // a basic zero-knowledge sanity check.
  Rng rng(407u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 4, 1, rng);
  auto r1 = ShuffleAndProve(kp.pk, batch, rng);
  auto r2 = ShuffleAndProve(kp.pk, batch, rng);
  EXPECT_FALSE(r1.proof.Encode() == r2.proof.Encode());
}

TEST(ShuffleProof, EncodeDecodeRoundTrip) {
  Rng rng(408u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 2, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  Bytes enc = result.proof.Encode();
  auto back = ShuffleProof::Decode(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(VerifyShuffle(kp.pk, batch, result.output, *back));
  // Truncation and bit flips must fail to decode or verify.
  Bytes truncated(enc.begin(), enc.end() - 5);
  EXPECT_FALSE(ShuffleProof::Decode(BytesView(truncated)).has_value());
}

TEST(ShuffleProof, ParallelAndSerialAgree) {
  Rng rng(409u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 32, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng, /*workers=*/4);
  EXPECT_TRUE(VerifyShuffle(kp.pk, batch, result.output, result.proof, 1));
  EXPECT_TRUE(VerifyShuffle(kp.pk, batch, result.output, result.proof, 4));
}

}  // namespace
}  // namespace atom
