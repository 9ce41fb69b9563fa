// Montgomery-form modular arithmetic over an odd 256-bit modulus.
//
// A generic CIOS implementation serves any odd modulus, including the P-256
// scalar field F_n (curve order). The coordinate field F_p returned by
// FieldP() additionally routes Mul, Inv and Sqrt to p-specific code: a
// Montgomery reduction that exploits p's sparse limbs, and fixed addition
// chains for p - 2 and (p + 1) / 4. Both produce exactly the generic path's
// fully reduced residues, so no output depends on which path ran. All
// derived constants (n0inv, R², R) are computed in the constructor rather
// than hard-coded, so a transcription error in a modulus constant is caught
// by the known-answer tests instead of silently corrupting arithmetic.
//
// Every carry in this layer runs through AddCarry64/SubBorrow64 and
// U256Add/U256Sub (src/crypto/u256.h): adc/sbb chains on x86-64. Both
// multiplications accumulate each row's partial products as two such
// chains (low halves, then high halves one limb up). Add, Sub and Neg
// compute both candidate results and keep one through a mask, so they take
// no branch that depends on their operands; Mul's final conditional
// subtraction and Inv/Sqrt/Pow are not constant-time.
#ifndef SRC_CRYPTO_MONT_H_
#define SRC_CRYPTO_MONT_H_

#include <optional>
#include <span>

#include "src/crypto/u256.h"

namespace atom {

class Mont {
 public:
  // `modulus` must be odd and > 2^192 (true for both P-256 moduli). Always
  // the generic implementation, even over p: FieldP() is the only instance
  // with the p-specific paths, so a Mont(P256Prime()) is their reference.
  explicit Mont(const U256& modulus);

  const U256& modulus() const { return m_; }
  // 1 in Montgomery form (R mod m).
  const U256& one() const { return r_; }

  // Conversions between plain and Montgomery representation.
  U256 ToMont(const U256& a) const { return Mul(a, r2_); }
  U256 FromMont(const U256& a) const { return Mul(a, U256::FromU64(1)); }

  // Montgomery product: a * b * R^-1 mod m. Inputs/outputs in Montgomery form.
  U256 Mul(const U256& a, const U256& b) const {
    return p256_ ? MulP256(a, b) : MulGeneric(a, b);
  }

  // Modular add/sub/negate (representation-agnostic: work for both forms).
  // Branch-free: the result is chosen by a mask from the carry and borrow
  // bits, and equals the compare-and-subtract result for every input.
  U256 Add(const U256& a, const U256& b) const;
  U256 Sub(const U256& a, const U256& b) const;
  U256 Neg(const U256& a) const;

  // base^exp mod m. `base` in Montgomery form, `exp` a plain integer.
  U256 Pow(const U256& base, const U256& exp) const;

  // Multiplicative inverse via Fermat's little theorem, a^(m-2) (modulus
  // must be prime, which holds for both P-256 moduli): a fixed addition
  // chain of 255 squarings and 12 multiplications for FieldP(), Pow
  // otherwise. a must be nonzero.
  U256 Inv(const U256& a) const;

  // A square root of `a` (Montgomery form) if one exists, as a^((m+1)/4);
  // the modulus must be prime and ≡ 3 mod 4 (true for p, not for n).
  // FieldP() uses a fixed addition chain of 253 squarings and 7
  // multiplications, other instances Pow.
  std::optional<U256> Sqrt(const U256& a) const;

  // Montgomery's batch-inversion trick: inverts every element in place
  // using one field inversion plus 3(n-1) multiplications, versus one
  // ~256-square-and-multiply inversion per element. Every element must be
  // nonzero (checked). Works in either representation, like Inv.
  void BatchInv(std::span<U256> values) const;

  // Reduces a plain 256-bit value mod m (at most one subtraction is needed
  // because both moduli exceed 2^255).
  U256 Reduce(const U256& a) const;

 private:
  friend const Mont& FieldP();
  struct P256Tag {};
  // The FieldP() instance: `modulus` must be p.
  Mont(const U256& modulus, P256Tag);

  U256 MulGeneric(const U256& a, const U256& b) const;
  static U256 MulP256(const U256& a, const U256& b);

  U256 m_;
  U256 r_;       // R mod m
  U256 r2_;      // R^2 mod m
  uint64_t n0inv_;  // -m^-1 mod 2^64
  bool p256_ = false;  // route to the p-specific paths
};

// The two field contexts used by P-256. Initialized on first use.
const Mont& FieldP();  // coordinate field, p = 2^256 - 2^224 + 2^192 + 2^96 - 1
const Mont& FieldN();  // scalar field, the group order n

// P-256 curve constants (plain form).
const U256& P256Prime();
const U256& P256Order();
const U256& P256B();
const U256& P256Gx();
const U256& P256Gy();

}  // namespace atom

#endif  // SRC_CRYPTO_MONT_H_
