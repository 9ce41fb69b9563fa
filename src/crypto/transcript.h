// Fiat-Shamir transcript: a canonical, label-separated accumulator of
// protocol messages from which non-interactive challenges are derived.
// All NIZKs in src/crypto derive their challenges through this class, which
// makes domain separation and statement binding uniform and auditable.
#ifndef SRC_CRYPTO_TRANSCRIPT_H_
#define SRC_CRYPTO_TRANSCRIPT_H_

#include <string_view>
#include <vector>

#include "src/crypto/p256.h"
#include "src/util/serde.h"

namespace atom {

class Transcript {
 public:
  // `label` domain-separates protocols (e.g. "atom/enc-proof/v1").
  explicit Transcript(std::string_view label);

  void AppendBytes(std::string_view label, BytesView data);
  void AppendU64(std::string_view label, uint64_t v);
  void AppendPoint(std::string_view label, const Point& p);
  void AppendScalar(std::string_view label, const Scalar& s);

  // Derives a challenge scalar and folds it back into the transcript, so
  // successive challenges are independent.
  Scalar ChallengeScalar(std::string_view label);

  // Derives 32 challenge bytes (for seeding per-element challenge vectors).
  std::array<uint8_t, 32> ChallengeBytes(std::string_view label);

  // Derives `count` independent 128-bit weights for a random-linear-
  // combination batch check. Hashed from everything appended so far (the
  // full statement and every proof), never drawn from a caller's Rng, so
  // verification consumes no protocol randomness. If any combined equation
  // fails, the weighted sum vanishes with probability <= 2^-128: fixing
  // every other weight, at most one value of the failing equation's weight
  // cancels it.
  std::vector<Scalar> ChallengeWeights(std::string_view label, size_t count);

 private:
  ByteWriter buf_;
};

}  // namespace atom

#endif  // SRC_CRYPTO_TRANSCRIPT_H_
