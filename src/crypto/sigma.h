// Sigma-protocol NIZKs (Fiat-Shamir in the random-oracle model):
//
//  * EncProof  — proof of knowledge of the encryption randomness of an
//    ElGamal ciphertext, bound to the entry group id (paper Appendix A).
//    Stops a malicious user from submitting a rerandomized copy of an honest
//    user's ciphertext (duplicate plaintexts at the exit would deanonymize
//    the honest sender, §3), and the gid binding stops replaying the same
//    (ciphertext, proof) pair at a different group.
//
//  * ReEncProof — proof that a server's decrypt-and-reencrypt step (Appendix
//    A ReEnc) was performed correctly w.r.t. its public key, extending the
//    Chaum-Pedersen proof of discrete-log equality with the rewrap witness.
//
// Proofs are non-malleable in the usual Fiat-Shamir sense: the full
// statement (keys, ciphertexts, context) is hashed into the challenge.
//
// Verification has one path per proof type: a batch verifier folds every
// proof's equations into one random linear combination (weights hashed
// from the statement and proofs, see Transcript::ChallengeWeights) checked
// by a single MultiScalarMul, and the per-proof verifiers are batches of
// one. A batch is accepted iff every proof in it is valid, except with
// probability <= 2^-128.
#ifndef SRC_CRYPTO_SIGMA_H_
#define SRC_CRYPTO_SIGMA_H_

#include <optional>
#include <span>

#include "src/crypto/elgamal.h"
#include "src/crypto/p256.h"
#include "src/util/rng.h"

namespace atom {

// ---------------------------------------------------------------- EncProof

struct EncProof {
  Point commit;  // g^s
  Scalar u;      // s + t*r

  static constexpr size_t kEncodedSize = Point::kEncodedSize + 32;
  Bytes Encode() const;
  static std::optional<EncProof> Decode(BytesView bytes);
};

// Proves knowledge of r with ct.r = r*G, binding (pk, gid, ct). A vector
// of one (MakeEncProofVec).
EncProof MakeEncProof(const Point& pk, uint32_t gid,
                      const ElGamalCiphertext& ct, const Scalar& randomness,
                      Rng& rng);

// Batch of one (VerifyEncProofBatch).
bool VerifyEncProof(const Point& pk, uint32_t gid,
                    const ElGamalCiphertext& ct, const EncProof& proof);

// Per-component proofs for a vector ciphertext: one nonce drawn from `rng`
// per proof, in order, and every challenge read from one EncodePoints of
// [pk, then ct.r, ct.c, ct.y, commit per proof].
std::vector<EncProof> MakeEncProofVec(const Point& pk, uint32_t gid,
                                      const ElGamalCiphertextVec& cts,
                                      std::span<const Scalar> randomness,
                                      Rng& rng);
// True iff the counts match and every proof verifies (an empty vector is
// trivially valid); one VerifyEncProofBatch call.
bool VerifyEncProofVec(const Point& pk, uint32_t gid,
                       const ElGamalCiphertextVec& cts,
                       std::span<const EncProof> proofs);

// Batch verification with the small-exponent random-linear-combination
// test: one MultiScalarMul of 2N + 1 terms instead of 2N scalar
// multiplications, and one EncodePoints for the batch transcript and every
// per-proof challenge (no inversion at all when every point is affine, as
// decoded submissions and normalized keys are). Rejects an empty batch or
// mismatched counts.
bool VerifyEncProofBatch(const Point& pk, uint32_t gid,
                         const ElGamalCiphertextVec& cts,
                         std::span<const EncProof> proofs);

// -------------------------------------------------------------- ReEncProof

// Proof for the relation (witnesses x = server secret, r' = rewrap
// randomness; all other values public):
//   server_pk = x*G
//   out.r     = in.r + r'*G          (after the Y normalization)
//   out.c     = in.c - x*Y + r'*next_pk
// With next_pk = nullptr the rewrap terms vanish and this reduces to a
// Chaum-Pedersen equality proof for the staged decryption.
struct ReEncProof {
  Point a1, a2, a3;  // commitments for the three relations
  Scalar zx, zr;     // responses for the two witnesses

  static constexpr size_t kEncodedSize = 3 * Point::kEncodedSize + 2 * 32;
  Bytes Encode() const;
  static std::optional<ReEncProof> Decode(BytesView bytes);
};

// `input` is the ciphertext as received (Y possibly ⊥); the Y normalization
// (Y ← R, R ← identity) is recomputed by both prover and verifier.
ReEncProof MakeReEncProof(const Scalar& server_sk, const Point& server_pk,
                          const Point* next_pk, const ElGamalCiphertext& input,
                          const ElGamalCiphertext& output,
                          const Scalar& rewrap_randomness, Rng& rng);

// Checks every proof[i] for (inputs[i], outputs[i]) under one server key
// and one neighbour key, as one MultiScalarMul of 6N + 3 terms; accepts iff
// all proofs verify (vacuously for N = 0). Rejects mismatched counts.
bool VerifyReEncProofBatch(const Point& server_pk, const Point* next_pk,
                           std::span<const ElGamalCiphertext> inputs,
                           std::span<const ElGamalCiphertext> outputs,
                           std::span<const ReEncProof> proofs);

// Batch of one (VerifyReEncProofBatch).
bool VerifyReEncProof(const Point& server_pk, const Point* next_pk,
                      const ElGamalCiphertext& input,
                      const ElGamalCiphertext& output,
                      const ReEncProof& proof);

}  // namespace atom

#endif  // SRC_CRYPTO_SIGMA_H_
