// Tests for EncProof and ReEncProof: completeness, binding (gid / statement),
// serialization, and rejection of forged or mismatched statements.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/sigma.h"
#include "src/crypto/transcript.h"
#include "src/util/rng.h"

namespace atom {
namespace {

struct ProofFixture {
  Rng rng{uint64_t{42}};
  ElGamalKeypair group = ElGamalKeyGen(rng);
  ElGamalKeypair next_group = ElGamalKeyGen(rng);
  Point m = *EmbedMessage(BytesView(ToBytes("proof me")));
};

TEST(EncProof, CompletesAndVerifies) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, /*gid=*/7, ct, r, s.rng);
  EXPECT_TRUE(VerifyEncProof(s.group.pk, 7, ct, proof));
}

TEST(EncProof, RejectsWrongGid) {
  // The gid binding prevents replaying a (ciphertext, proof) pair at a
  // different entry group (§3).
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 8, ct, proof));
}

TEST(EncProof, RejectsRerandomizedCopy) {
  // A malicious user rerandomizes an honest ciphertext; without knowledge of
  // the total randomness they cannot produce a fresh valid proof, and the
  // old proof fails against the new ciphertext.
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  auto copy = ElGamalRerandomize(s.group.pk, ct, s.rng);
  ASSERT_TRUE(copy.has_value());
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 7, *copy, proof));
}

TEST(EncProof, RejectsWrongWitness) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  Scalar wrong = Scalar::Random(s.rng);
  auto proof = MakeEncProof(s.group.pk, 7, ct, wrong, s.rng);
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 7, ct, proof));
}

TEST(EncProof, RejectsTamperedProof) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  proof.u = proof.u + Scalar::One();
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 7, ct, proof));
}

TEST(EncProof, EncodeDecodeRoundTrip) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  Bytes enc = proof.Encode();
  EXPECT_EQ(enc.size(), EncProof::kEncodedSize);
  auto back = EncProof::Decode(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(VerifyEncProof(s.group.pk, 7, ct, *back));
}

TEST(EncProof, VectorProofs) {
  ProofFixture s;
  std::vector<Point> ms = {*EmbedMessage(BytesView(ToBytes("a"))),
                           *EmbedMessage(BytesView(ToBytes("b"))),
                           *EmbedMessage(BytesView(ToBytes("c")))};
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 3, cts, rs, s.rng);
  EXPECT_TRUE(VerifyEncProofVec(s.group.pk, 3, cts, proofs));
  // Swapping two components must fail (each proof binds its component).
  std::swap(cts[0], cts[1]);
  EXPECT_FALSE(VerifyEncProofVec(s.group.pk, 3, cts, proofs));
}

TEST(EncProof, BatchVerifyAcceptsValidBatch) {
  ProofFixture s;
  std::vector<Point> ms;
  for (int i = 0; i < 16; i++) {
    ms.push_back(*EmbedMessage(BytesView(Bytes{static_cast<uint8_t>(i)})));
  }
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 9, cts, rs, s.rng);
  EXPECT_TRUE(VerifyEncProofBatch(s.group.pk, 9, cts, proofs));
  // The vector entry point is the same batch check.
  EXPECT_TRUE(VerifyEncProofVec(s.group.pk, 9, cts, proofs));
}

TEST(EncProof, BatchVerifyCatchesAnySingleBadProof) {
  ProofFixture s;
  std::vector<Point> ms;
  for (int i = 0; i < 12; i++) {
    ms.push_back(*EmbedMessage(BytesView(Bytes{static_cast<uint8_t>(i)})));
  }
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 9, cts, rs, s.rng);
  for (size_t bad = 0; bad < proofs.size(); bad += 3) {
    auto tampered = proofs;
    tampered[bad].u = tampered[bad].u + Scalar::One();
    EXPECT_FALSE(VerifyEncProofBatch(s.group.pk, 9, cts, tampered))
        << "bad proof at " << bad << " slipped through the batch";
  }
}

TEST(EncProof, BatchVerifyRejectsEqualAndOppositeErrors) {
  // u0 + δ and u1 - δ leave the unweighted sum of the two equations
  // intact; only independent per-proof weights catch the pair.
  ProofFixture s;
  std::vector<Point> ms = {*EmbedMessage(BytesView(ToBytes("a"))),
                           *EmbedMessage(BytesView(ToBytes("b")))};
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 4, cts, rs, s.rng);
  const Scalar delta = Scalar::Random(s.rng);
  proofs[0].u = proofs[0].u + delta;
  proofs[1].u = proofs[1].u - delta;
  EXPECT_FALSE(VerifyEncProofBatch(s.group.pk, 4, cts, proofs));
}

TEST(EncProof, BatchVerifyBindsGidAndKey) {
  ProofFixture s;
  std::vector<Point> ms = {*EmbedMessage(BytesView(ToBytes("a"))),
                           *EmbedMessage(BytesView(ToBytes("b")))};
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 1, cts, rs, s.rng);
  EXPECT_TRUE(VerifyEncProofBatch(s.group.pk, 1, cts, proofs));
  EXPECT_FALSE(VerifyEncProofBatch(s.group.pk, 2, cts, proofs));
  EXPECT_FALSE(VerifyEncProofBatch(s.next_group.pk, 1, cts, proofs));
}

TEST(EncProof, BatchVerifyRejectsSizeMismatch) {
  ProofFixture s;
  std::vector<Point> ms = {*EmbedMessage(BytesView(ToBytes("a")))};
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 0, cts, rs, s.rng);
  proofs.push_back(proofs[0]);
  EXPECT_FALSE(VerifyEncProofBatch(s.group.pk, 0, cts, proofs));
}

// -------------------------------------------------------------- ReEncProof

TEST(ReEncProof, FirstHopCompletesAndVerifies) {
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  EXPECT_TRUE(VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, out, proof));
}

TEST(ReEncProof, MidChainCompletesAndVerifies) {
  // Second server in a group: input already has Y != ⊥.
  ProofFixture s;
  auto s2 = ElGamalKeyGen(s.rng);
  Point combined_pk = s.group.pk + s2.pk;
  auto ct = ElGamalEncrypt(combined_pk, s.m, s.rng);
  auto mid = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s2.sk, &s.next_group.pk, mid, s.rng, &rewrap);
  auto proof = MakeReEncProof(s2.sk, s2.pk, &s.next_group.pk, mid, out,
                              rewrap, s.rng);
  EXPECT_TRUE(VerifyReEncProof(s2.pk, &s.next_group.pk, mid, out, proof));
}

TEST(ReEncProof, FinalHopPureDecryption) {
  // Last layer of the network: next_pk = nullptr (paper: pk_i = ⊥).
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, nullptr, ct, s.rng, &rewrap);
  EXPECT_TRUE(rewrap.IsZero());
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, nullptr, ct, out,
                              rewrap, s.rng);
  EXPECT_TRUE(VerifyReEncProof(s.group.pk, nullptr, ct, out, proof));
  // The stripped ciphertext holds the plaintext.
  auto fin = ElGamalFinalizeHop(out);
  auto dec = ElGamalDecrypt(Scalar::Zero(), fin);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, s.m);
}

TEST(ReEncProof, DetectsPlaintextTampering) {
  // A malicious server swaps in a different message during ReEnc; the honest
  // server's verification must catch it (this is the §4.3 guarantee).
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  // Tamper: add a point to the payload component.
  auto evil = out;
  evil.c = evil.c + *EmbedMessage(BytesView(ToBytes("evil")));
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              evil, rewrap, s.rng);
  EXPECT_FALSE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, evil, proof));
}

TEST(ReEncProof, DetectsWrongServerKey) {
  ProofFixture s;
  auto other = ElGamalKeyGen(s.rng);
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  // Server strips with a different key than it committed to.
  auto out = ElGamalReEnc(other.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(other.sk, other.pk, &s.next_group.pk, ct, out,
                              rewrap, s.rng);
  EXPECT_FALSE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, out, proof));
}

TEST(ReEncProof, DetectsYTampering) {
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  auto evil = out;
  evil.y = evil.y + Point::Generator();
  EXPECT_FALSE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, evil, proof));
}

TEST(ReEncProof, DetectsNextKeySubstitution) {
  // Proof made for next group A must not verify against next group B.
  ProofFixture s;
  auto groupB = ElGamalKeyGen(s.rng);
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  EXPECT_FALSE(VerifyReEncProof(s.group.pk, &groupB.pk, ct, out, proof));
}

TEST(ReEncProof, EncodeDecodeRoundTrip) {
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  Bytes enc = proof.Encode();
  EXPECT_EQ(enc.size(), ReEncProof::kEncodedSize);
  auto back = ReEncProof::Decode(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, out, *back));
}

// ------------------------------------------------------- ReEnc batching

// The relation checked the direct way, one Point::Mul per term and the
// challenge rebuilt point by point: the reference the batched verifier
// must agree with.
bool ReferenceVerifyReEnc(const Point& server_pk, const Point* next_pk,
                          const ElGamalCiphertext& input,
                          const ElGamalCiphertext& output,
                          const ReEncProof& proof) {
  ElGamalCiphertext in = input;
  if (in.YIsNull()) {
    in.y = in.r;
    in.r = Point::Infinity();
  }
  if (!(output.y == in.y)) {
    return false;
  }
  Transcript t("atom/reenc-proof/v1");
  t.AppendPoint("server_pk", server_pk);
  t.AppendPoint("next_pk", next_pk != nullptr ? *next_pk : Point::Infinity());
  t.AppendU64("has_next", next_pk != nullptr ? 1 : 0);
  t.AppendPoint("in.r", in.r);
  t.AppendPoint("in.c", in.c);
  t.AppendPoint("in.y", in.y);
  t.AppendPoint("out.r", output.r);
  t.AppendPoint("out.c", output.c);
  t.AppendPoint("out.y", output.y);
  t.AppendPoint("a1", proof.a1);
  t.AppendPoint("a2", proof.a2);
  t.AppendPoint("a3", proof.a3);
  const Scalar e = t.ChallengeScalar("e");
  if (!(Point::BaseMul(proof.zx) == proof.a1 + server_pk.Mul(e)) ||
      !(Point::BaseMul(proof.zr) ==
        proof.a2 + (output.r - in.r).Mul(e))) {
    return false;
  }
  Point lhs = in.y.Mul(proof.zx).Neg();
  if (next_pk != nullptr) {
    lhs = lhs + next_pk->Mul(proof.zr);
  }
  return lhs == proof.a3 + (output.c - in.c).Mul(e);
}

// One server's sub-batch: `n` proofs under one key toward one neighbour
// (or the exit when `exit` is set). Even slots are first-hop inputs
// (Y = ⊥), odd slots mid-chain inputs (Y set by an earlier server).
struct ReEncBatch {
  ElGamalKeypair server;
  Point next_pk;
  bool exit = false;
  std::vector<ElGamalCiphertext> ins, outs;
  std::vector<ReEncProof> proofs;

  const Point* next() const { return exit ? nullptr : &next_pk; }
  bool Verify() const {
    return VerifyReEncProofBatch(server.pk, next(), ins, outs, proofs);
  }
};

ReEncBatch MakeReEncBatch(Rng& rng, size_t n, bool exit) {
  ReEncBatch b;
  b.server = ElGamalKeyGen(rng);
  b.next_pk = ElGamalKeyGen(rng).pk;
  b.exit = exit;
  const ElGamalKeypair earlier = ElGamalKeyGen(rng);
  for (size_t i = 0; i < n; i++) {
    Point m = Point::BaseMul(Scalar::Random(rng));
    ElGamalCiphertext in;
    if (i % 2 == 0) {
      in = ElGamalEncrypt(b.server.pk, m, rng);
    } else {
      in = ElGamalReEnc(earlier.sk, b.next(),
                        ElGamalEncrypt(b.server.pk + earlier.pk, m, rng),
                        rng);
    }
    Scalar rewrap;
    ElGamalCiphertext out = ElGamalReEnc(b.server.sk, b.next(), in, rng,
                                         &rewrap);
    b.proofs.push_back(MakeReEncProof(b.server.sk, b.server.pk, b.next(), in,
                                      out, rewrap, rng));
    b.ins.push_back(in);
    b.outs.push_back(out);
  }
  return b;
}

// Every field a sub-batch check depends on, for Tamper().
const char* const kReEncFields[] = {
    "a1",    "a2",    "a3",        "zx",      "zr",
    "in.r",  "in.c",  "in.y",      "out.r",   "out.c",
    "out.y", "server_pk", "next_pk", "swapped proof"};

// Changes one field of slot i (or a key shared by the batch).
void Tamper(ReEncBatch& b, std::string_view field, size_t i) {
  const Point g = Point::Generator();
  ReEncProof& p = b.proofs[i];
  if (field == "a1") p.a1 = p.a1 + g;
  else if (field == "a2") p.a2 = p.a2 + g;
  else if (field == "a3") p.a3 = p.a3 + g;
  else if (field == "zx") p.zx = p.zx + Scalar::One();
  else if (field == "zr") p.zr = p.zr + Scalar::One();
  else if (field == "in.r") b.ins[i].r = b.ins[i].r + g;
  else if (field == "in.c") b.ins[i].c = b.ins[i].c + g;
  else if (field == "in.y") b.ins[i].y = b.ins[i].y + g;
  else if (field == "out.r") b.outs[i].r = b.outs[i].r + g;
  else if (field == "out.c") b.outs[i].c = b.outs[i].c + g;
  else if (field == "out.y") b.outs[i].y = b.outs[i].y + g;
  else if (field == "server_pk") b.server.pk = b.server.pk + g;
  else if (field == "next_pk") {
    // At the exit there is no neighbour key: claiming one is the tamper.
    b.exit = false;
    b.next_pk = b.next_pk + g;
  } else {
    std::swap(p, b.proofs[(i + 1) % b.proofs.size()]);
  }
}

TEST(ReEncProofBatch, RejectsEverySingleFieldTamper) {
  Rng rng(0x5e1u);
  for (bool exit : {false, true}) {
    const ReEncBatch valid = MakeReEncBatch(rng, 3, exit);
    ASSERT_TRUE(valid.Verify());
    for (const char* field : kReEncFields) {
      for (size_t i = 0; i < valid.proofs.size(); i++) {
        ReEncBatch evil = valid;
        Tamper(evil, field, i);
        EXPECT_FALSE(evil.Verify()) << field << " of proof " << i
                                    << (exit ? " (exit layer)" : "");
      }
    }
  }
}

TEST(ReEncProofBatch, RejectsEqualAndOppositeErrors) {
  // Each pair of errors cancels in the unweighted sum of the batch's
  // equations, so only independent per-proof weights reject it.
  Rng rng(0x5e2u);
  const Scalar delta = Scalar::Random(rng);
  {
    // zr0 + δ, zr1 - δ: ±δ·G in R2 and ±δ·next_pk in R3.
    ReEncBatch b = MakeReEncBatch(rng, 2, false);
    b.proofs[0].zr = b.proofs[0].zr + delta;
    b.proofs[1].zr = b.proofs[1].zr - delta;
    EXPECT_FALSE(b.Verify());
  }
  {
    // zx0 + δ, zx1 - δ over two reencryptions of one input (same Y):
    // ±δ·G in R1 and ∓δ·Y in R3.
    ReEncBatch b = MakeReEncBatch(rng, 1, true);
    Scalar rewrap;
    b.ins.push_back(b.ins[0]);
    b.outs.push_back(
        ElGamalReEnc(b.server.sk, nullptr, b.ins[0], rng, &rewrap));
    b.proofs.push_back(MakeReEncProof(b.server.sk, b.server.pk, nullptr,
                                      b.ins[1], b.outs[1], rewrap, rng));
    ASSERT_TRUE(b.Verify());
    b.proofs[0].zx = b.proofs[0].zx + delta;
    b.proofs[1].zx = b.proofs[1].zx - delta;
    EXPECT_FALSE(b.Verify());
  }
}

TEST(ReEncProofBatch, AgreesWithPerProofReferenceOnSeededCorpus) {
  // Random sub-batches of a corpus in which about one proof in four is
  // corrupted in a random field; the batch verdict must be the AND of the
  // direct per-proof verdicts, and every per-proof wrapper call must
  // match the reference.
  Rng rng(0x5e3u);
  for (bool exit : {false, true}) {
    ReEncBatch corpus = MakeReEncBatch(rng, 12, exit);
    for (size_t i = 0; i < corpus.proofs.size(); i++) {
      if (rng.NextBelow(4) == 0) {
        // Any per-slot field (not the shared keys or a swap).
        Tamper(corpus, kReEncFields[rng.NextBelow(11)], i);
      }
    }
    std::vector<bool> reference;
    for (size_t i = 0; i < corpus.proofs.size(); i++) {
      reference.push_back(ReferenceVerifyReEnc(
          corpus.server.pk, corpus.next(), corpus.ins[i], corpus.outs[i],
          corpus.proofs[i]));
      EXPECT_EQ(VerifyReEncProof(corpus.server.pk, corpus.next(),
                                 corpus.ins[i], corpus.outs[i],
                                 corpus.proofs[i]),
                reference.back())
          << "proof " << i;
    }
    size_t accepted = 0, rejected = 0;
    for (int trial = 0; trial < 20; trial++) {
      const size_t lo = rng.NextBelow(corpus.proofs.size());
      const size_t len =
          1 + rng.NextBelow(std::min<size_t>(4, corpus.proofs.size() - lo));
      bool expect = true;
      for (size_t i = lo; i < lo + len; i++) {
        expect = expect && reference[i];
      }
      (expect ? accepted : rejected)++;
      EXPECT_EQ(VerifyReEncProofBatch(
                    corpus.server.pk, corpus.next(),
                    std::span(corpus.ins).subspan(lo, len),
                    std::span(corpus.outs).subspan(lo, len),
                    std::span(corpus.proofs).subspan(lo, len)),
                expect)
          << "sub-batch [" << lo << ", " << lo + len << ")"
          << (exit ? " at the exit layer" : "");
    }
    // The corpus exercises both verdicts.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

TEST(ReEncProofBatch, EmptyAndMismatchedBatches) {
  Rng rng(0x5e4u);
  ReEncBatch b = MakeReEncBatch(rng, 2, false);
  EXPECT_TRUE(VerifyReEncProofBatch(b.server.pk, b.next(), {}, {}, {}));
  b.outs.pop_back();
  EXPECT_FALSE(b.Verify());
}

}  // namespace
}  // namespace atom
