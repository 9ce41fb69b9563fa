#include "src/crypto/sigma.h"

#include "src/crypto/transcript.h"
#include "src/util/serde.h"

namespace atom {
namespace {

// The 33-byte encoding of point `slot` in an EncodePoints buffer.
BytesView EncodedSlot(BytesView encoded, size_t slot) {
  return encoded.subspan(slot * Point::kEncodedSize, Point::kEncodedSize);
}

// An EncProof challenge hashes the key, the gid and then these four points
// of its proof, in this order (labels below). Callers encode [pk, then four
// points per proof] with ONE EncodePoints call and each challenge reads its
// slice, as ReEncChallenge does; the transcript bytes equal per-point
// AppendPoint.
constexpr size_t kEncPoints = 4;
constexpr const char* kEncLabels[kEncPoints] = {"ct.r", "ct.c", "ct.y",
                                                "commit"};

void AppendEncPoints(const ElGamalCiphertext& ct, const Point& commit,
                     std::vector<Point>* points) {
  points->insert(points->end(), {ct.r, ct.c, ct.y, commit});
}

// `encoded` is the EncodePoints output described above; `index` picks the
// proof.
Scalar EncChallenge(BytesView encoded, uint32_t gid, size_t index) {
  Transcript t("atom/enc-proof/v1");
  t.AppendBytes("pk", EncodedSlot(encoded, 0));
  t.AppendU64("gid", gid);
  for (size_t j = 0; j < kEncPoints; j++) {
    t.AppendBytes(kEncLabels[j],
                  EncodedSlot(encoded, 1 + index * kEncPoints + j));
  }
  return t.ChallengeScalar("t");
}

// Applies the ReEnc Y-normalization so prover and verifier agree on the
// effective input.
ElGamalCiphertext NormalizeInput(const ElGamalCiphertext& input) {
  ElGamalCiphertext in = input;
  if (in.YIsNull()) {
    in.y = in.r;
    in.r = Point::Infinity();
  }
  return in;
}

// A ReEnc challenge hashes the two keys and then, per proof, these nine
// points in this order (labels below). Callers encode [server_pk,
// next_pk-or-identity, then nine points per proof] with ONE EncodePoints
// call — one field inversion for the whole sub-batch — and each challenge
// reads its slice; the transcript bytes equal per-point AppendPoint.
constexpr size_t kReEncPoints = 9;

void AppendReEncPoints(const ElGamalCiphertext& in,
                       const ElGamalCiphertext& out, const ReEncProof& proof,
                       std::vector<Point>* points) {
  points->insert(points->end(), {in.r, in.c, in.y, out.r, out.c, out.y,
                                 proof.a1, proof.a2, proof.a3});
}

// `encoded` is the EncodePoints output described above; `index` picks the
// proof.
Scalar ReEncChallenge(BytesView encoded, bool has_next, size_t index) {
  static constexpr const char* kLabels[kReEncPoints] = {
      "in.r", "in.c", "in.y", "out.r", "out.c", "out.y", "a1", "a2", "a3"};
  Transcript t("atom/reenc-proof/v1");
  t.AppendBytes("server_pk", EncodedSlot(encoded, 0));
  t.AppendBytes("next_pk", EncodedSlot(encoded, 1));
  t.AppendU64("has_next", has_next ? 1 : 0);
  for (size_t j = 0; j < kReEncPoints; j++) {
    t.AppendBytes(kLabels[j],
                  EncodedSlot(encoded, 2 + index * kReEncPoints + j));
  }
  return t.ChallengeScalar("e");
}

}  // namespace

// ---------------------------------------------------------------- EncProof

Bytes EncProof::Encode() const {
  Bytes out = commit.Encode();
  auto ub = u.ToBytes();
  out.insert(out.end(), ub.begin(), ub.end());
  return out;
}

std::optional<EncProof> EncProof::Decode(BytesView bytes) {
  if (bytes.size() != kEncodedSize) {
    return std::nullopt;
  }
  auto commit = Point::Decode(bytes.subspan(0, Point::kEncodedSize));
  auto u = Scalar::FromBytes(bytes.subspan(Point::kEncodedSize));
  if (!commit.has_value() || !u.has_value()) {
    return std::nullopt;
  }
  return EncProof{*commit, *u};
}

EncProof MakeEncProof(const Point& pk, uint32_t gid,
                      const ElGamalCiphertext& ct, const Scalar& randomness,
                      Rng& rng) {
  return MakeEncProofVec(pk, gid, ElGamalCiphertextVec{ct},
                         std::span<const Scalar>(&randomness, 1), rng)[0];
}

bool VerifyEncProof(const Point& pk, uint32_t gid,
                    const ElGamalCiphertext& ct, const EncProof& proof) {
  return VerifyEncProofBatch(pk, gid, ElGamalCiphertextVec{ct},
                             std::span<const EncProof>(&proof, 1));
}

std::vector<EncProof> MakeEncProofVec(const Point& pk, uint32_t gid,
                                      const ElGamalCiphertextVec& cts,
                                      std::span<const Scalar> randomness,
                                      Rng& rng) {
  ATOM_CHECK(cts.size() == randomness.size());
  // One nonce per proof, drawn in proof order; then every commitment goes
  // through one EncodePoints with the statement before any challenge.
  std::vector<Scalar> nonces;
  nonces.reserve(cts.size());
  std::vector<EncProof> out(cts.size());
  std::vector<Point> transcript = {pk};
  transcript.reserve(1 + cts.size() * kEncPoints);
  for (size_t i = 0; i < cts.size(); i++) {
    nonces.push_back(Scalar::Random(rng));
    out[i].commit = Point::BaseMul(nonces[i]);
    AppendEncPoints(cts[i], out[i].commit, &transcript);
  }
  const Bytes encoded = EncodePoints(transcript);
  for (size_t i = 0; i < cts.size(); i++) {
    const Scalar t = EncChallenge(BytesView(encoded), gid, i);
    out[i].u = nonces[i] + t * randomness[i];
  }
  return out;
}

bool VerifyEncProofVec(const Point& pk, uint32_t gid,
                       const ElGamalCiphertextVec& cts,
                       std::span<const EncProof> proofs) {
  if (cts.size() != proofs.size()) {
    return false;
  }
  return cts.empty() || VerifyEncProofBatch(pk, gid, cts, proofs);
}

bool VerifyEncProofBatch(const Point& pk, uint32_t gid,
                         const ElGamalCiphertextVec& cts,
                         std::span<const EncProof> proofs) {
  if (cts.size() != proofs.size() || cts.empty()) {
    return false;
  }
  const size_t n = cts.size();
  std::vector<Point> transcript = {pk};
  transcript.reserve(1 + n * kEncPoints);
  for (size_t i = 0; i < n; i++) {
    AppendEncPoints(cts[i], proofs[i].commit, &transcript);
  }
  const Bytes encoded = EncodePoints(transcript);

  Transcript t("atom/enc-proof-batch/v1");
  t.AppendBytes("pk", EncodedSlot(BytesView(encoded), 0));
  t.AppendU64("gid", gid);
  for (size_t i = 0; i < n; i++) {
    for (size_t j = 0; j < kEncPoints; j++) {
      t.AppendBytes(kEncLabels[j],
                    EncodedSlot(BytesView(encoded), 1 + i * kEncPoints + j));
    }
    t.AppendScalar("u", proofs[i].u);
  }
  std::vector<Scalar> gamma = t.ChallengeWeights("gamma", n);

  // Per-proof equation: u_i·G - commit_i - t_i·R_i == identity. Weighted:
  //   (Σ γ_i·u_i)·G - Σ γ_i·commit_i - Σ (γ_i·t_i)·R_i == identity.
  Scalar g_scalar = Scalar::Zero();
  std::vector<Point> points = {Point::Generator()};
  std::vector<Scalar> scalars = {Scalar::Zero()};
  points.reserve(2 * n + 1);
  scalars.reserve(2 * n + 1);
  for (size_t i = 0; i < n; i++) {
    Scalar challenge = EncChallenge(BytesView(encoded), gid, i);
    g_scalar = g_scalar + gamma[i] * proofs[i].u;
    points.push_back(proofs[i].commit);
    scalars.push_back(gamma[i].Neg());
    points.push_back(cts[i].r);
    scalars.push_back((gamma[i] * challenge).Neg());
  }
  scalars[0] = g_scalar;
  return MultiScalarMul(points, scalars).IsInfinity();
}

// -------------------------------------------------------------- ReEncProof

Bytes ReEncProof::Encode() const {
  Bytes out;
  out.reserve(kEncodedSize);
  for (const Point* p : {&a1, &a2, &a3}) {
    Bytes enc = p->Encode();
    out.insert(out.end(), enc.begin(), enc.end());
  }
  for (const Scalar* s : {&zx, &zr}) {
    auto sb = s->ToBytes();
    out.insert(out.end(), sb.begin(), sb.end());
  }
  return out;
}

std::optional<ReEncProof> ReEncProof::Decode(BytesView bytes) {
  if (bytes.size() != kEncodedSize) {
    return std::nullopt;
  }
  ReEncProof proof;
  Point* points[3] = {&proof.a1, &proof.a2, &proof.a3};
  size_t off = 0;
  for (auto* p : points) {
    auto dec = Point::Decode(bytes.subspan(off, Point::kEncodedSize));
    if (!dec.has_value()) {
      return std::nullopt;
    }
    *p = *dec;
    off += Point::kEncodedSize;
  }
  Scalar* scalars[2] = {&proof.zx, &proof.zr};
  for (auto* s : scalars) {
    auto dec = Scalar::FromBytes(bytes.subspan(off, 32));
    if (!dec.has_value()) {
      return std::nullopt;
    }
    *s = *dec;
    off += 32;
  }
  return proof;
}

ReEncProof MakeReEncProof(const Scalar& server_sk, const Point& server_pk,
                          const Point* next_pk, const ElGamalCiphertext& input,
                          const ElGamalCiphertext& output,
                          const Scalar& rewrap_randomness, Rng& rng) {
  ElGamalCiphertext in = NormalizeInput(input);

  Scalar kx = Scalar::Random(rng);
  Scalar kr = Scalar::Random(rng);

  ReEncProof proof;
  proof.a1 = Point::BaseMul(kx);
  proof.a2 = Point::BaseMul(kr);
  // a3 commits to the c-relation: -kx*Y (+ kr*next_pk), one shared chain.
  std::vector<Point> a3_points = {in.y};
  std::vector<Scalar> a3_scalars = {kx.Neg()};
  if (next_pk != nullptr) {
    a3_points.push_back(*next_pk);
    a3_scalars.push_back(kr);
  }
  proof.a3 = MultiScalarMul(a3_points, a3_scalars);

  std::vector<Point> transcript = {
      server_pk, next_pk != nullptr ? *next_pk : Point::Infinity()};
  AppendReEncPoints(in, output, proof, &transcript);
  Scalar e = ReEncChallenge(BytesView(EncodePoints(transcript)),
                            next_pk != nullptr, 0);
  proof.zx = kx + e * server_sk;
  proof.zr = kr + e * rewrap_randomness;
  return proof;
}

bool VerifyReEncProofBatch(const Point& server_pk, const Point* next_pk,
                           std::span<const ElGamalCiphertext> inputs,
                           std::span<const ElGamalCiphertext> outputs,
                           std::span<const ReEncProof> proofs) {
  if (inputs.size() != proofs.size() || outputs.size() != proofs.size()) {
    return false;
  }
  const size_t n = proofs.size();
  if (n == 0) {
    return true;
  }
  std::vector<ElGamalCiphertext> ins(n);
  std::vector<Point> transcript = {
      server_pk, next_pk != nullptr ? *next_pk : Point::Infinity()};
  transcript.reserve(2 + n * kReEncPoints);
  for (size_t i = 0; i < n; i++) {
    ins[i] = NormalizeInput(inputs[i]);
    // The hop's Y must carry through unchanged.
    if (!(outputs[i].y == ins[i].y)) {
      return false;
    }
    AppendReEncPoints(ins[i], outputs[i], proofs[i], &transcript);
  }
  const Bytes encoded = EncodePoints(transcript);

  Transcript t("atom/reenc-proof-batch/v1");
  t.AppendBytes("points", BytesView(encoded));
  t.AppendU64("has_next", next_pk != nullptr ? 1 : 0);
  for (const ReEncProof& proof : proofs) {
    t.AppendScalar("zx", proof.zx);
    t.AppendScalar("zr", proof.zr);
  }
  std::vector<Scalar> rho = t.ChallengeWeights("rho", 3 * n);

  // Per proof, with challenge e, dr = out.r - in.r, dc = out.c - in.c:
  //   R1: zx·G - a1 - e·server_pk                  == identity
  //   R2: zr·G - a2 - e·dr                         == identity
  //   R3: -zx·Y (+ zr·next_pk) - a3 - e·dc         == identity
  // weighted by ρ1, ρ2, ρ3 and summed over the batch; G, server_pk and
  // next_pk are shared terms.
  Scalar g_scalar = Scalar::Zero(), pk_scalar = Scalar::Zero(),
         next_scalar = Scalar::Zero();
  std::vector<Point> points = {Point::Generator(), server_pk};
  points.reserve(3 + 6 * n);
  std::vector<Scalar> scalars;
  scalars.reserve(3 + 6 * n);
  scalars.resize(2);
  for (size_t i = 0; i < n; i++) {
    const ReEncProof& proof = proofs[i];
    const Scalar e = ReEncChallenge(BytesView(encoded), next_pk != nullptr, i);
    const Scalar& r1 = rho[3 * i];
    const Scalar& r2 = rho[3 * i + 1];
    const Scalar& r3 = rho[3 * i + 2];
    g_scalar = g_scalar + r1 * proof.zx + r2 * proof.zr;
    pk_scalar = pk_scalar - r1 * e;
    next_scalar = next_scalar + r3 * proof.zr;
    points.insert(points.end(),
                  {proof.a1, proof.a2, proof.a3, outputs[i].r - ins[i].r,
                   ins[i].y, outputs[i].c - ins[i].c});
    scalars.insert(scalars.end(), {r1.Neg(), r2.Neg(), r3.Neg(),
                                   (r2 * e).Neg(), (r3 * proof.zx).Neg(),
                                   (r3 * e).Neg()});
  }
  scalars[0] = g_scalar;
  scalars[1] = pk_scalar;
  if (next_pk != nullptr) {
    points.push_back(*next_pk);
    scalars.push_back(next_scalar);
  }
  return MultiScalarMul(points, scalars).IsInfinity();
}

bool VerifyReEncProof(const Point& server_pk, const Point* next_pk,
                      const ElGamalCiphertext& input,
                      const ElGamalCiphertext& output,
                      const ReEncProof& proof) {
  return VerifyReEncProofBatch(server_pk, next_pk, {&input, 1}, {&output, 1},
                               {&proof, 1});
}

}  // namespace atom
