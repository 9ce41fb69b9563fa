#include "src/crypto/mont.h"

#include <vector>

namespace atom {
namespace {

// NIST P-256 domain parameters (SEC 2 / FIPS 186-4), little-endian limbs.
const U256 kPrime = U256::FromLimbs(0xffffffffffffffffULL, 0x00000000ffffffffULL,
                                    0x0000000000000000ULL, 0xffffffff00000001ULL);
const U256 kOrder = U256::FromLimbs(0xf3b9cac2fc632551ULL, 0xbce6faada7179e84ULL,
                                    0xffffffffffffffffULL, 0xffffffff00000000ULL);
const U256 kB = U256::FromLimbs(0x3bce3c3e27d2604bULL, 0x651d06b0cc53b0f6ULL,
                                0xb3ebbd55769886bcULL, 0x5ac635d8aa3a93e7ULL);
const U256 kGx = U256::FromLimbs(0xf4a13945d898c296ULL, 0x77037d812deb33a0ULL,
                                 0xf8bce6e563a440f2ULL, 0x6b17d1f2e12c4247ULL);
const U256 kGy = U256::FromLimbs(0xcbb6406837bf51f5ULL, 0x2bce33576b315eceULL,
                                 0x8ee7eb4a7c0f9e16ULL, 0x4fe342e2fe1a7f9bULL);

// -m^-1 mod 2^64 by Newton iteration (doubles correct bits each step).
uint64_t NegInv64(uint64_t m) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; i++) {
    inv *= 2 - m * inv;
  }
  return ~inv + 1;  // -inv
}

// if_set where mask is all ones, if_clear where it is zero; no branch.
U256 Select(uint64_t mask, const U256& if_set, const U256& if_clear) {
  U256 out;
  for (int i = 0; i < 4; i++) {
    out.v[i] = (if_set.v[i] & mask) | (if_clear.v[i] & ~mask);
  }
  return out;
}

// (t0..t4) += x * y; returns the carry out of t4. The four partial
// products' low halves go in as one carry chain and their high halves, one
// limb up, as a second, so no 128-bit sum is carried between limbs.
inline uint64_t MulAddRow(uint64_t x, const U256& y, uint64_t& t0,
                          uint64_t& t1, uint64_t& t2, uint64_t& t3,
                          uint64_t& t4) {
  using U128 = unsigned __int128;
  const U128 p0 = static_cast<U128>(x) * y.v[0];
  const U128 p1 = static_cast<U128>(x) * y.v[1];
  const U128 p2 = static_cast<U128>(x) * y.v[2];
  const U128 p3 = static_cast<U128>(x) * y.v[3];
  uint8_t c = AddCarry64(0, t0, static_cast<uint64_t>(p0), &t0);
  c = AddCarry64(c, t1, static_cast<uint64_t>(p1), &t1);
  c = AddCarry64(c, t2, static_cast<uint64_t>(p2), &t2);
  c = AddCarry64(c, t3, static_cast<uint64_t>(p3), &t3);
  c = AddCarry64(c, t4, 0, &t4);
  const uint64_t top = c;
  c = AddCarry64(0, t1, static_cast<uint64_t>(p0 >> 64), &t1);
  c = AddCarry64(c, t2, static_cast<uint64_t>(p1 >> 64), &t2);
  c = AddCarry64(c, t3, static_cast<uint64_t>(p2 >> 64), &t3);
  c = AddCarry64(c, t4, static_cast<uint64_t>(p3 >> 64), &t4);
  return top + c;
}

// Montgomery product mod p = 2^256 - 2^224 + 2^192 + 2^96 - 1: the generic
// CIOS loop below with the reduction unrolled for p's limbs. p[0] = 2^64 - 1
// makes -p^-1 mod 2^64 = 1, so the round's multiplier u is t[0] itself and
// t[0] + u * p[0] = u * 2^64; p[1] = 2^32 - 1 then folds with that carry
// into u * 2^32, and p[2] = 0. Only u * p[3] needs a real multiply, one per
// round instead of four. Every intermediate equals the generic loop's, so
// the output is the same fully reduced residue.
U256 MulP(const U256& a, const U256& b) {
  constexpr uint64_t kP3 = 0xffffffff00000001ULL;
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  for (int i = 0; i < 4; i++) {
    const uint64_t t5 = MulAddRow(a.v[i], b, t0, t1, t2, t3, t4);
    // Reduce: t = (t + u*p) / 2^64 with u = t0.
    const uint64_t u = t0;
    const unsigned __int128 up3 = static_cast<unsigned __int128>(u) * kP3;
    uint8_t c = AddCarry64(0, t1, u << 32, &t0);
    c = AddCarry64(c, t2, u >> 32, &t1);
    c = AddCarry64(c, t3, static_cast<uint64_t>(up3), &t2);
    c = AddCarry64(c, t4, static_cast<uint64_t>(up3 >> 64), &t3);
    t4 = t5 + c;
  }

  U256 out = U256::FromLimbs(t0, t1, t2, t3);
  if (t4 != 0 || !U256Less(out, kPrime)) {
    U256Sub(&out, out, kPrime);
  }
  return out;
}

// a^(2^n) mod p, Montgomery form.
U256 SqrP(U256 a, int n) {
  for (int i = 0; i < n; i++) {
    a = MulP(a, a);
  }
  return a;
}

// a^(p-2) mod p. In binary p - 2 is 32 ones, 31 zeros, a one, 96 zeros, 94
// ones, a zero and a one; the chain builds runs of ones (x_k = a^(2^k - 1))
// and shifts them into place: 255 squarings, 12 multiplications.
U256 InvP(const U256& a) {
  const U256 x2 = MulP(SqrP(a, 1), a);
  const U256 x3 = MulP(SqrP(x2, 1), a);
  const U256 x6 = MulP(SqrP(x3, 3), x3);
  const U256 x12 = MulP(SqrP(x6, 6), x6);
  const U256 x15 = MulP(SqrP(x12, 3), x3);
  const U256 x30 = MulP(SqrP(x15, 15), x15);
  const U256 x32 = MulP(SqrP(x30, 2), x2);
  U256 t = MulP(SqrP(x32, 32), a);
  t = MulP(SqrP(t, 128), x32);
  t = MulP(SqrP(t, 32), x32);
  t = MulP(SqrP(t, 30), x30);
  return MulP(SqrP(t, 2), a);
}

// a^((p+1)/4) mod p. In binary (p + 1) / 4 is 32 ones, 31 zeros, a one, 95
// zeros, a one and 94 zeros: 253 squarings, 7 multiplications.
U256 SqrtCandidateP(const U256& a) {
  const U256 x2 = MulP(SqrP(a, 1), a);
  const U256 x4 = MulP(SqrP(x2, 2), x2);
  const U256 x8 = MulP(SqrP(x4, 4), x4);
  const U256 x16 = MulP(SqrP(x8, 8), x8);
  const U256 x32 = MulP(SqrP(x16, 16), x16);
  U256 t = MulP(SqrP(x32, 32), a);
  t = MulP(SqrP(t, 96), a);
  return SqrP(t, 94);
}

}  // namespace

Mont::Mont(const U256& modulus, P256Tag) : Mont(modulus) {
  ATOM_CHECK(modulus == kPrime);
  p256_ = true;
}

Mont::Mont(const U256& modulus) : m_(modulus) {
  ATOM_CHECK((modulus.v[0] & 1) == 1);
  n0inv_ = NegInv64(modulus.v[0]);

  // R mod m via 256 modular doublings of 1; R^2 mod m via 256 more.
  U256 acc = U256::FromU64(1);
  for (int i = 0; i < 512; i++) {
    uint64_t carry = U256Add(&acc, acc, acc);
    if (carry != 0 || !U256Less(acc, m_)) {
      U256Sub(&acc, acc, m_);
    }
    if (i == 255) {
      r_ = acc;
    }
  }
  r2_ = acc;
}

U256 Mont::MulP256(const U256& a, const U256& b) { return MulP(a, b); }

U256 Mont::MulGeneric(const U256& a, const U256& b) const {
  // CIOS Montgomery multiplication; t has 4 + 2 limbs of headroom.
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  for (int i = 0; i < 4; i++) {
    uint64_t t5 = MulAddRow(a.v[i], b, t0, t1, t2, t3, t4);
    // Reduce: t = (t + u*m) / 2^64 with u chosen so the low limb cancels.
    const uint64_t u = t0 * n0inv_;
    t5 += MulAddRow(u, m_, t0, t1, t2, t3, t4);
    t0 = t1;
    t1 = t2;
    t2 = t3;
    t3 = t4;
    t4 = t5;
  }

  U256 out = U256::FromLimbs(t0, t1, t2, t3);
  if (t4 != 0 || !U256Less(out, m_)) {
    U256Sub(&out, out, m_);
  }
  return out;
}

// Add, Sub and Neg compute both candidates and keep one through an
// all-ones/all-zeros mask, so none of them branches on its operands. Each
// returns exactly what the compare-and-correct form returns, for every
// input (in range or not).
U256 Mont::Add(const U256& a, const U256& b) const {
  U256 sum, reduced;
  const uint64_t carry = U256Add(&sum, a, b);
  const uint64_t borrow = U256Sub(&reduced, sum, m_);
  // Keep the raw sum only when it did not carry out and is below m.
  return Select(0 - (borrow & (carry ^ 1)), sum, reduced);
}

U256 Mont::Sub(const U256& a, const U256& b) const {
  U256 diff;
  const uint64_t mask = 0 - U256Sub(&diff, a, b);
  // Add back m when the subtraction wrapped, 0 otherwise.
  const U256 fix = U256::FromLimbs(m_.v[0] & mask, m_.v[1] & mask,
                                   m_.v[2] & mask, m_.v[3] & mask);
  U256Add(&diff, diff, fix);
  return diff;
}

U256 Mont::Neg(const U256& a) const {
  U256 out;
  U256Sub(&out, m_, a);
  const uint64_t nonzero = (a.v[0] | a.v[1] | a.v[2] | a.v[3]) != 0;
  const uint64_t mask = 0 - nonzero;  // -0 = 0 stays 0, not m
  for (int i = 0; i < 4; i++) {
    out.v[i] &= mask;
  }
  return out;
}

U256 Mont::Pow(const U256& base, const U256& exp) const {
  U256 result = r_;  // 1 in Montgomery form
  U256 acc = base;
  for (int i = 0; i < 256; i++) {
    if (exp.Bit(i) != 0) {
      result = Mul(result, acc);
    }
    acc = Mul(acc, acc);
  }
  return result;
}

U256 Mont::Inv(const U256& a) const {
  ATOM_CHECK(!a.IsZero());
  if (p256_) {
    return InvP(a);
  }
  U256 exp;
  U256Sub(&exp, m_, U256::FromU64(2));
  return Pow(a, exp);
}

std::optional<U256> Mont::Sqrt(const U256& a) const {
  U256 s;
  if (p256_) {
    s = SqrtCandidateP(a);
  } else {
    ATOM_CHECK((m_.v[0] & 3) == 3);
    U256 exp;
    U256Add(&exp, m_, U256::FromU64(1));  // no carry: m < 2^256 - 1
    for (int i = 0; i < 4; i++) {
      exp.v[i] = (exp.v[i] >> 2) | (i < 3 ? (exp.v[i + 1] << 62) : 0);
    }
    s = Pow(a, exp);
  }
  if (Mul(s, s) == a) {
    return s;
  }
  return std::nullopt;
}

void Mont::BatchInv(std::span<U256> values) const {
  if (values.empty()) {
    return;
  }
  // Forward pass: prefix[i] = values[0] * ... * values[i].
  std::vector<U256> prefix(values.size());
  prefix[0] = values[0];
  ATOM_CHECK(!values[0].IsZero());
  for (size_t i = 1; i < values.size(); i++) {
    ATOM_CHECK(!values[i].IsZero());
    prefix[i] = Mul(prefix[i - 1], values[i]);
  }
  // One inversion of the total product, then peel elements off the back:
  // inv(prefix[i]) * prefix[i-1] = inv(values[i]).
  U256 inv = Inv(prefix.back());
  for (size_t i = values.size() - 1; i > 0; i--) {
    U256 original = values[i];
    values[i] = Mul(inv, prefix[i - 1]);
    inv = Mul(inv, original);
  }
  values[0] = inv;
}

U256 Mont::Reduce(const U256& a) const {
  U256 out = a;
  while (!U256Less(out, m_)) {
    U256Sub(&out, out, m_);
  }
  return out;
}

const Mont& FieldP() {
  static const Mont ctx(kPrime, Mont::P256Tag{});
  return ctx;
}

const Mont& FieldN() {
  static const Mont ctx(kOrder);
  return ctx;
}

const U256& P256Prime() { return kPrime; }
const U256& P256Order() { return kOrder; }
const U256& P256B() { return kB; }
const U256& P256Gx() { return kGx; }
const U256& P256Gy() { return kGy; }

}  // namespace atom
