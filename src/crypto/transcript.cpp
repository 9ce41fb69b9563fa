#include "src/crypto/transcript.h"

#include "src/crypto/sha256.h"

namespace atom {

Transcript::Transcript(std::string_view label) {
  buf_.Var(BytesView(reinterpret_cast<const uint8_t*>(label.data()),
                     label.size()));
}

void Transcript::AppendBytes(std::string_view label, BytesView data) {
  buf_.Var(BytesView(reinterpret_cast<const uint8_t*>(label.data()),
                     label.size()));
  buf_.Var(data);
}

void Transcript::AppendU64(std::string_view label, uint64_t v) {
  ByteWriter w;
  w.U64(v);
  AppendBytes(label, BytesView(w.bytes()));
}

void Transcript::AppendPoint(std::string_view label, const Point& p) {
  AppendBytes(label, BytesView(p.Encode()));
}

void Transcript::AppendScalar(std::string_view label, const Scalar& s) {
  auto bytes = s.ToBytes();
  AppendBytes(label, BytesView(bytes.data(), bytes.size()));
}

Scalar Transcript::ChallengeScalar(std::string_view label) {
  auto digest = ChallengeBytes(label);
  return Scalar::FromBytesReduced(BytesView(digest.data(), digest.size()));
}

std::array<uint8_t, 32> Transcript::ChallengeBytes(std::string_view label) {
  ByteWriter domain;
  domain.Var(BytesView(reinterpret_cast<const uint8_t*>(label.data()),
                       label.size()));
  auto digest = Sha256()
                    .Update(BytesView(buf_.bytes()))
                    .Update(BytesView(domain.bytes()))
                    .Finish();
  // Fold the challenge back in so later challenges depend on earlier ones.
  AppendBytes("challenge", BytesView(digest.data(), digest.size()));
  return digest;
}

std::vector<Scalar> Transcript::ChallengeWeights(std::string_view label,
                                                size_t count) {
  auto seed = ChallengeBytes(label);
  Rng stream{BytesView(seed.data(), seed.size())};
  std::vector<Scalar> weights;
  weights.reserve(count);
  std::array<uint8_t, 32> raw{};  // top 16 bytes stay zero: 128-bit values
  for (size_t i = 0; i < count; i++) {
    stream.Fill(raw.data() + 16, 16);
    weights.push_back(
        Scalar::FromBytesReduced(BytesView(raw.data(), raw.size())));
  }
  return weights;
}

}  // namespace atom
