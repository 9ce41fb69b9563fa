// NIST P-256 group operations: scalars mod the group order, Jacobian points,
// windowed scalar multiplication, multi-scalar multiplication (shared-doubling
// Straus for small batches, Pippenger for large ones), hash-to-point, and
// reversible message-to-point embedding.
//
// This is the DDH group G from the paper (§5 uses NIST P-256 [6]); every
// cryptosystem in src/crypto builds on these two types.
//
// Hot-path tooling (see docs/architecture.md, "Crypto hot path"):
//   - FixedBaseTable: precomputed signed-window (Booth) table for ANY fixed
//     base (group pk, entry pk, trustee pk; the generator's is wider).
//     Entries are normalized to affine once at build time so every lookup
//     uses the mixed Jacobian+affine addition (~8 field muls vs ~16 for the
//     full Jacobian add), and Mul needs no doublings at all. Point::Mul
//     rebuilds a 15-entry table per call — build a FixedBaseTable whenever
//     the same base is multiplied more than ~10 times.
//   - Affine at rest: a point with z == 1 (decoded from the wire, built
//     from affine coordinates, or passed through Point::NormalizeBatch)
//     encodes with no inversion at all.
//   - Point::BatchToAffine / EncodePoints: batch affine normalization and
//     SEC1 encoding with ONE field inversion per batch (Montgomery's
//     trick) instead of one ~256-bit exponentiation per point; affine
//     points in the batch cost nothing.
//   - MultiScalarMul: one doubling chain shared by every term, so a
//     k-term linear combination costs ~one Mul plus k short add streams
//     instead of k Muls. The NIZK verifiers fold each proof's equations
//     into one such combination.
#ifndef SRC_CRYPTO_P256_H_
#define SRC_CRYPTO_P256_H_

#include <optional>
#include <span>
#include <vector>

#include "src/crypto/mont.h"
#include "src/crypto/u256.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace atom {

// Scalar mod the P-256 group order n. Stored in Montgomery form; use the
// named constructors, never the raw field.
class Scalar {
 public:
  Scalar() = default;  // zero

  static Scalar Zero() { return Scalar(); }
  static Scalar One();
  static Scalar FromU64(uint64_t v);
  // Uniform scalar via rejection sampling (no modulo bias).
  static Scalar Random(Rng& rng);
  // Interprets 32 big-endian bytes, reduced mod n. Used for Fiat-Shamir
  // challenges (reduction bias is ~2^-224, negligible).
  static Scalar FromBytesReduced(BytesView bytes32);
  // Strict parse: rejects values >= n. Inverse of ToBytes.
  static std::optional<Scalar> FromBytes(BytesView bytes32);

  // 32-byte big-endian canonical encoding.
  std::array<uint8_t, 32> ToBytes() const;

  bool IsZero() const { return m_.IsZero(); }
  bool operator==(const Scalar& o) const { return m_ == o.m_; }

  Scalar operator+(const Scalar& o) const;
  Scalar operator-(const Scalar& o) const;
  Scalar operator*(const Scalar& o) const;
  Scalar Neg() const;
  // Multiplicative inverse; must be nonzero.
  Scalar Inv() const;

  // Plain (non-Montgomery) integer value, for bit extraction in scalar mult.
  U256 PlainValue() const;

 private:
  U256 m_;  // Montgomery form mod n
};

class FixedBaseTable;

// P-256 point in Jacobian coordinates (coordinates in Montgomery form).
// z == 0 encodes the identity.
class Point {
 public:
  Point() : x_(FieldP().one()), y_(FieldP().one()), z_() {}  // identity

  static Point Infinity() { return Point(); }
  static const Point& Generator();

  bool IsInfinity() const { return z_.IsZero(); }

  // Group operations.
  friend Point operator+(const Point& a, const Point& b);
  Point Double() const;
  Point Neg() const;
  // Mixed-coordinate addition: `affine` must be the identity or have z == 1
  // (IsAffine()), which saves ~5 field multiplications over operator+.
  // FixedBaseTable entries and MultiScalarMul's window tables satisfy this
  // by construction (NormalizeBatch).
  static Point AddMixed(const Point& jacobian, const Point& affine);
  friend Point operator-(const Point& a, const Point& b) { return a + b.Neg(); }

  // Variable-base scalar multiplication (4-bit window, rebuilds its window
  // table on every call). If the base repeats, use a FixedBaseTable.
  Point Mul(const Scalar& k) const;
  // Fixed-base multiplication by the generator (precomputed affine table).
  static Point BaseMul(const Scalar& k);
  // The precomputed table backing BaseMul, for APIs that take a table.
  static const FixedBaseTable& GeneratorTable();

  bool operator==(const Point& o) const;

  // True when z == 1 (Montgomery one): the stored x, y are the affine
  // coordinates. Decode, FromAffine, the generator, FixedBaseTable entries
  // and NormalizeBatch outputs are affine; arithmetic results generally are
  // not. A property of the representation only, never of a secret.
  bool IsAffine() const;

  // Affine coordinates in plain form; must not be the identity. Free for an
  // affine point, one field inversion otherwise.
  void ToAffine(U256* out_x, U256* out_y) const;

  // Rescales every non-identity point to z == 1 in place, sharing one field
  // inversion across the batch (Montgomery's trick); points that are
  // already affine are left out of it. Use it on long-lived points that are
  // encoded or extracted repeatedly (group keys, signature commitments,
  // exit plaintexts) so every later Encode/ToAffine is free.
  static void NormalizeBatch(std::span<Point> points);

  // Batch affine normalization via Montgomery's trick: one field inversion
  // for the whole batch, bitwise identical results to per-point ToAffine.
  // Identity points come back flagged instead of with coordinates.
  struct AffineCoords {
    U256 x, y;
    bool infinity = false;
  };
  static std::vector<AffineCoords> BatchToAffine(
      std::span<const Point> points);

  // 33-byte encoding: SEC1 compressed (0x02/0x03 || x), or 33 zero bytes for
  // the identity.
  static constexpr size_t kEncodedSize = 33;
  Bytes Encode() const;
  // Validates the point is on the curve.
  static std::optional<Point> Decode(BytesView bytes33);

  bool IsOnCurve() const;

  // Constructs from affine coordinates in plain form (checked on-curve).
  static std::optional<Point> FromAffine(const U256& x, const U256& y);

 private:
  friend class FixedBaseTable;

  friend Point MultiScalarMul(std::span<const Point> points,
                              std::span<const Scalar> scalars);

  U256 x_, y_, z_;
};

// Precomputed signed-window (Booth) table for one fixed base. The scalar is
// recoded into w-bit digits d_i in [-2^(w-1), 2^(w-1)] (k = sum d_i 2^(w i));
// row i holds j * 2^(w i) * base for j = 1..2^(w-1), normalized to affine
// with a single batched inversion at build time, and a negative digit adds
// the negated entry. Mul then needs one mixed addition per nonzero digit and
// zero doublings — available for any base that repeats (group/entry/trustee
// public keys, rerandomization bases).
//
// Every table built through the public constructor uses w = 5: 52 rows of
// 16 entries (832 points, ~80KB), built with ~830 point additions plus one
// inversion — about five generic Point::Mul calls, so it amortizes after
// about six uses; hot callers cache one per round/epoch key rather than
// building per batch. The
// process-wide generator table behind Point::BaseMul uses w = 7: 37 rows of
// 64 entries (2368 points, ~227KB, built once), so BaseMul costs ~37 mixed
// additions where a w = 5 table costs ~52.
class FixedBaseTable {
 public:
  explicit FixedBaseTable(const Point& base);

  const Point& base() const { return base_; }

  // base * k. Identity base or zero scalar yields the identity, matching
  // Point::Mul exactly on every input.
  Point Mul(const Scalar& k) const;

 private:
  friend class Point;  // builds the generator table
  FixedBaseTable(const Point& base, int window_bits);

  Point base_;
  int window_bits_;
  // Row-major: entry j - 1 of row i is j * 2^(window_bits_ * i) * base.
  std::vector<Point> table_;
};

// Concatenated 33-byte encodings of `points` — byte-identical to calling
// Encode() per point, but pays one field inversion for the whole batch
// instead of one per non-affine point (none if every point is affine).
Bytes EncodePoints(std::span<const Point> points);

// Sum of scalars[i] * points[i]. Below kPippengerMinTerms terms this is an
// interleaved width-5 NAF (Straus) evaluation: every term shares one
// doubling chain, whose length is that of the longest scalar once each
// scalar k is replaced by min(k, n - k) (negating the point to match). At
// or above it, the Pippenger bucket method; the crossover was measured on
// this implementation (Straus ahead at 768 terms, Pippenger at 896).
// Identity points and zero scalars are skipped; the result equals the
// naive sum of Point::Mul on every input.
inline constexpr size_t kPippengerMinTerms = 896;
Point MultiScalarMul(std::span<const Point> points,
                     std::span<const Scalar> scalars);

// Deterministic nothing-up-my-sleeve point: try-and-increment over
// SHA-256(label || counter). Nobody knows its discrete log w.r.t. any other
// generator produced with a different label.
Point HashToPoint(BytesView label);

// Reversible message embedding. Up to kEmbedCapacity bytes per point; the
// x-coordinate layout is [length | data | padding | try-counter].
inline constexpr size_t kEmbedCapacity = 30;
std::optional<Point> EmbedMessage(BytesView data);
std::optional<Bytes> ExtractMessage(const Point& p);

}  // namespace atom

#endif  // SRC_CRYPTO_P256_H_
