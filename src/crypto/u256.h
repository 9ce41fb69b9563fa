// Fixed-width 256-bit unsigned integers: 4 little-endian 64-bit limbs.
// This is the raw-integer layer under the Montgomery fields (src/crypto/mont.h)
// and the P-256 implementation. Header-only; all operations are branch-light
// and allocation-free.
//
// U256Add/U256Sub are the carry chains under every field add, sub and
// negation: four AddCarry64/SubBorrow64 steps on every platform. Those two
// helpers hold the only platform switch: on x86-64 they are
// _addcarry_u64/_subborrow_u64, which compile to plain adc/sbb from the
// baseline ISA (no -march flag, no CPU dispatch); elsewhere they are one
// unsigned __int128 step each. The old whole-number __int128 loops, which gcc
// turns into doubled carry chains with register spills, stay as
// U256AddPortable/U256SubPortable: the tests' reference, bit-identical.
#ifndef SRC_CRYPTO_U256_H_
#define SRC_CRYPTO_U256_H_

#include <array>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "src/util/bytes.h"
#include "src/util/check.h"

namespace atom {

struct U256 {
  // v[0] is the least significant limb.
  uint64_t v[4] = {0, 0, 0, 0};

  static constexpr U256 Zero() { return U256{}; }

  static constexpr U256 FromU64(uint64_t x) { return U256{{x, 0, 0, 0}}; }

  static constexpr U256 FromLimbs(uint64_t l0, uint64_t l1, uint64_t l2,
                                  uint64_t l3) {
    return U256{{l0, l1, l2, l3}};
  }

  constexpr bool IsZero() const {
    return (v[0] | v[1] | v[2] | v[3]) == 0;
  }

  constexpr bool operator==(const U256& o) const {
    return v[0] == o.v[0] && v[1] == o.v[1] && v[2] == o.v[2] && v[3] == o.v[3];
  }

  // Returns bit i (0 = least significant).
  constexpr int Bit(int i) const {
    return static_cast<int>((v[i / 64] >> (i % 64)) & 1);
  }

  // Big-endian 32-byte encoding (standard for EC coordinates and scalars).
  std::array<uint8_t, 32> ToBytesBe() const {
    std::array<uint8_t, 32> out;
    for (int limb = 0; limb < 4; limb++) {
      for (int b = 0; b < 8; b++) {
        out[static_cast<size_t>(31 - 8 * limb - b)] =
            static_cast<uint8_t>(v[limb] >> (8 * b));
      }
    }
    return out;
  }

  static U256 FromBytesBe(BytesView bytes) {
    ATOM_CHECK(bytes.size() == 32);
    U256 out;
    for (int limb = 0; limb < 4; limb++) {
      uint64_t acc = 0;
      for (int b = 7; b >= 0; b--) {
        acc = (acc << 8) |
              bytes[static_cast<size_t>(31 - 8 * limb - b)];
      }
      out.v[limb] = acc;
    }
    return out;
  }
};

// a < b as 256-bit unsigned integers.
inline bool U256Less(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; i--) {
    if (a.v[i] != b.v[i]) {
      return a.v[i] < b.v[i];
    }
  }
  return false;
}

// out = a + b; returns the carry bit. Portable form (see the header
// comment); `out` may alias `a` or `b`.
inline uint64_t U256AddPortable(U256* out, const U256& a, const U256& b) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; i++) {
    carry += static_cast<unsigned __int128>(a.v[i]) + b.v[i];
    out->v[i] = static_cast<uint64_t>(carry);
    carry >>= 64;
  }
  return static_cast<uint64_t>(carry);
}

// out = a - b; returns the borrow bit. Portable form; `out` may alias.
inline uint64_t U256SubPortable(U256* out, const U256& a, const U256& b) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; i++) {
    unsigned __int128 d = static_cast<unsigned __int128>(a.v[i]) -
                          b.v[i] - static_cast<uint64_t>(borrow);
    out->v[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) & 1;  // 1 when the subtraction wrapped
  }
  return static_cast<uint64_t>(borrow);
}

// *out = a + b + carry (carry is 0 or 1); returns the carry out. One adc on
// x86-64; the building block of every carry chain below and in mont.cpp.
inline uint8_t AddCarry64(uint8_t carry, uint64_t a, uint64_t b,
                          uint64_t* out) {
#if defined(__x86_64__)
  unsigned long long r;
  carry = _addcarry_u64(carry, a, b, &r);
  *out = r;
  return carry;
#else
  const unsigned __int128 s = static_cast<unsigned __int128>(a) + b + carry;
  *out = static_cast<uint64_t>(s);
  return static_cast<uint8_t>(s >> 64);
#endif
}

// *out = a - b - borrow (borrow is 0 or 1); returns the borrow out.
inline uint8_t SubBorrow64(uint8_t borrow, uint64_t a, uint64_t b,
                           uint64_t* out) {
#if defined(__x86_64__)
  unsigned long long r;
  borrow = _subborrow_u64(borrow, a, b, &r);
  *out = r;
  return borrow;
#else
  const unsigned __int128 d =
      static_cast<unsigned __int128>(a) - b - borrow;
  *out = static_cast<uint64_t>(d);
  return static_cast<uint8_t>((d >> 64) & 1);
#endif
}

// out = a + b; returns the carry bit. `out` may alias `a` or `b`.
inline uint64_t U256Add(U256* out, const U256& a, const U256& b) {
  uint64_t r0, r1, r2, r3;
  uint8_t c = AddCarry64(0, a.v[0], b.v[0], &r0);
  c = AddCarry64(c, a.v[1], b.v[1], &r1);
  c = AddCarry64(c, a.v[2], b.v[2], &r2);
  c = AddCarry64(c, a.v[3], b.v[3], &r3);
  *out = U256{{r0, r1, r2, r3}};
  return c;
}

// out = a - b; returns the borrow bit. `out` may alias `a` or `b`.
inline uint64_t U256Sub(U256* out, const U256& a, const U256& b) {
  uint64_t r0, r1, r2, r3;
  uint8_t c = SubBorrow64(0, a.v[0], b.v[0], &r0);
  c = SubBorrow64(c, a.v[1], b.v[1], &r1);
  c = SubBorrow64(c, a.v[2], b.v[2], &r2);
  c = SubBorrow64(c, a.v[3], b.v[3], &r3);
  *out = U256{{r0, r1, r2, r3}};
  return c;
}

// 512-bit product of two 256-bit values, little-endian 8 limbs.
inline void U256MulWide(uint64_t out[8], const U256& a, const U256& b) {
  for (int i = 0; i < 8; i++) {
    out[i] = 0;
  }
  for (int i = 0; i < 4; i++) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; j++) {
      unsigned __int128 cur = static_cast<unsigned __int128>(a.v[i]) * b.v[j] +
                              out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + 4] = carry;
  }
}

}  // namespace atom

#endif  // SRC_CRYPTO_U256_H_
