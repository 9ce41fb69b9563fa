#include "src/crypto/schnorr.h"

#include "src/crypto/transcript.h"

namespace atom {
namespace {

Scalar Challenge(const Point& commit, const Point& pk, BytesView message) {
  Transcript t("atom/schnorr/v1");
  t.AppendPoint("commit", commit);
  t.AppendPoint("pk", pk);
  t.AppendBytes("msg", message);
  return t.ChallengeScalar("e");
}

}  // namespace

SchnorrKeypair SchnorrKeyGen(Rng& rng) {
  SchnorrKeypair kp;
  kp.sk = Scalar::Random(rng);
  kp.pk = Point::BaseMul(kp.sk);
  // Affine at rest: every signature and registration re-encodes the key.
  Point::NormalizeBatch(std::span<Point>(&kp.pk, 1));
  return kp;
}

Bytes SchnorrSignature::Encode() const {
  Bytes out = commit.Encode();
  auto rb = response.ToBytes();
  out.insert(out.end(), rb.begin(), rb.end());
  return out;
}

std::optional<SchnorrSignature> SchnorrSignature::Decode(BytesView bytes) {
  if (bytes.size() != kEncodedSize) {
    return std::nullopt;
  }
  auto commit = Point::Decode(bytes.subspan(0, Point::kEncodedSize));
  auto response = Scalar::FromBytes(bytes.subspan(Point::kEncodedSize));
  if (!commit.has_value() || !response.has_value()) {
    return std::nullopt;
  }
  return SchnorrSignature{*commit, *response};
}

SchnorrSignature SchnorrSign(const Scalar& sk, const Point& pk,
                             BytesView message, Rng& rng) {
  Scalar k = Scalar::Random(rng);
  SchnorrSignature sig;
  sig.commit = Point::BaseMul(k);
  // One inversion here makes the challenge's and Encode's encodings free.
  Point::NormalizeBatch(std::span<Point>(&sig.commit, 1));
  Scalar e = Challenge(sig.commit, pk, message);
  sig.response = k + e * sk;
  return sig;
}

bool SchnorrVerify(const Point& pk, BytesView message,
                   const SchnorrSignature& sig) {
  Scalar e = Challenge(sig.commit, pk, message);
  return Point::BaseMul(sig.response) == sig.commit + pk.Mul(e);
}

bool SchnorrVerifyBatch(std::span<const Point> pks,
                        std::span<const BytesView> messages,
                        std::span<const SchnorrSignature> sigs) {
  if (pks.size() != messages.size() || pks.size() != sigs.size()) {
    return false;
  }
  const size_t n = pks.size();
  if (n == 0) {
    return true;
  }
  if (n == 1) {
    return SchnorrVerify(pks[0], messages[0], sigs[0]);
  }

  // Derandomized batch coefficients γ_i from a hash of the whole statement
  // (every key, message, and signature), mirroring VerifyEncProofBatch.
  Transcript t("atom/schnorr-batch/v1");
  t.AppendU64("n", n);
  for (size_t i = 0; i < n; i++) {
    t.AppendPoint("pk", pks[i]);
    t.AppendBytes("msg", messages[i]);
    t.AppendPoint("commit", sigs[i].commit);
    t.AppendScalar("s", sigs[i].response);
  }
  std::vector<Scalar> gamma = t.ChallengeWeights("gamma", n);

  // Per-signature equation: s_i·G - R_i - e_i·pk_i == identity. Weighted:
  //   (Σ γ_i·s_i)·G - Σ γ_i·R_i - Σ (γ_i·e_i)·pk_i == identity.
  Scalar g_scalar = Scalar::Zero();
  std::vector<Point> points = {Point::Generator()};
  std::vector<Scalar> scalars = {Scalar::Zero()};
  points.reserve(2 * n + 1);
  scalars.reserve(2 * n + 1);
  for (size_t i = 0; i < n; i++) {
    Scalar e = Challenge(sigs[i].commit, pks[i], messages[i]);
    g_scalar = g_scalar + gamma[i] * sigs[i].response;
    points.push_back(sigs[i].commit);
    scalars.push_back(gamma[i].Neg());
    points.push_back(pks[i]);
    scalars.push_back((gamma[i] * e).Neg());
  }
  scalars[0] = g_scalar;
  return MultiScalarMul(points, scalars).IsInfinity();
}

}  // namespace atom
