#include "src/crypto/p256.h"

#include <algorithm>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/util/serde.h"

namespace atom {
namespace {

// Curve coefficient a = -3 in Montgomery form.
const U256& MontA() {
  static const U256 a = [] {
    U256 three = U256::FromU64(3);
    U256 neg3;
    U256Sub(&neg3, P256Prime(), three);
    return FieldP().ToMont(neg3);
  }();
  return a;
}

// Curve coefficient b in Montgomery form.
const U256& MontB() {
  static const U256 b = FieldP().ToMont(P256B());
  return b;
}

// Computes x^3 + ax + b in Montgomery form.
U256 CurveRhs(const U256& mx) {
  const Mont& fp = FieldP();
  U256 x2 = fp.Mul(mx, mx);
  U256 x3 = fp.Mul(x2, mx);
  U256 ax = fp.Mul(MontA(), mx);
  return fp.Add(fp.Add(x3, ax), MontB());
}

// Parity (least significant bit) of a Montgomery-form field element.
int MontParity(const U256& ma) {
  return FieldP().FromMont(ma).Bit(0);
}

}  // namespace

// ---------------------------------------------------------------- Scalar --

Scalar Scalar::One() {
  Scalar s;
  s.m_ = FieldN().one();
  return s;
}

Scalar Scalar::FromU64(uint64_t v) {
  Scalar s;
  s.m_ = FieldN().ToMont(U256::FromU64(v));
  return s;
}

Scalar Scalar::Random(Rng& rng) {
  for (;;) {
    Bytes raw = rng.NextBytes(32);
    U256 candidate = U256::FromBytesBe(BytesView(raw));
    if (U256Less(candidate, P256Order()) && !candidate.IsZero()) {
      Scalar s;
      s.m_ = FieldN().ToMont(candidate);
      return s;
    }
  }
}

Scalar Scalar::FromBytesReduced(BytesView bytes32) {
  ATOM_CHECK(bytes32.size() == 32);
  U256 v = FieldN().Reduce(U256::FromBytesBe(bytes32));
  Scalar s;
  s.m_ = FieldN().ToMont(v);
  return s;
}

std::optional<Scalar> Scalar::FromBytes(BytesView bytes32) {
  if (bytes32.size() != 32) {
    return std::nullopt;
  }
  U256 v = U256::FromBytesBe(bytes32);
  if (!U256Less(v, P256Order())) {
    return std::nullopt;
  }
  Scalar s;
  s.m_ = FieldN().ToMont(v);
  return s;
}

std::array<uint8_t, 32> Scalar::ToBytes() const {
  return FieldN().FromMont(m_).ToBytesBe();
}

Scalar Scalar::operator+(const Scalar& o) const {
  Scalar s;
  s.m_ = FieldN().Add(m_, o.m_);
  return s;
}

Scalar Scalar::operator-(const Scalar& o) const {
  Scalar s;
  s.m_ = FieldN().Sub(m_, o.m_);
  return s;
}

Scalar Scalar::operator*(const Scalar& o) const {
  Scalar s;
  s.m_ = FieldN().Mul(m_, o.m_);
  return s;
}

Scalar Scalar::Neg() const {
  Scalar s;
  s.m_ = FieldN().Neg(m_);
  return s;
}

Scalar Scalar::Inv() const {
  Scalar s;
  s.m_ = FieldN().Inv(m_);
  return s;
}

U256 Scalar::PlainValue() const { return FieldN().FromMont(m_); }

// ----------------------------------------------------------------- Point --

const Point& Point::Generator() {
  static const Point g = [] {
    auto p = Point::FromAffine(P256Gx(), P256Gy());
    ATOM_CHECK(p.has_value());
    return *p;
  }();
  return g;
}

std::optional<Point> Point::FromAffine(const U256& x, const U256& y) {
  const Mont& fp = FieldP();
  if (!U256Less(x, P256Prime()) || !U256Less(y, P256Prime())) {
    return std::nullopt;
  }
  Point p;
  p.x_ = fp.ToMont(x);
  p.y_ = fp.ToMont(y);
  p.z_ = fp.one();
  if (!p.IsOnCurve()) {
    return std::nullopt;
  }
  return p;
}

bool Point::IsOnCurve() const {
  if (IsInfinity()) {
    return true;
  }
  // y^2 == x^3 + a x z^4 + b z^6 in Jacobian form.
  const Mont& fp = FieldP();
  U256 y2 = fp.Mul(y_, y_);
  U256 z2 = fp.Mul(z_, z_);
  U256 z4 = fp.Mul(z2, z2);
  U256 z6 = fp.Mul(z4, z2);
  U256 x3 = fp.Mul(fp.Mul(x_, x_), x_);
  U256 rhs = fp.Add(fp.Add(x3, fp.Mul(fp.Mul(MontA(), x_), z4)),
                    fp.Mul(MontB(), z6));
  return y2 == rhs;
}

Point Point::Double() const {
  if (IsInfinity() || y_.IsZero()) {
    return Infinity();
  }
  const Mont& fp = FieldP();
  // dbl-2001-b for a = -3.
  U256 delta = fp.Mul(z_, z_);
  U256 gamma = fp.Mul(y_, y_);
  U256 beta = fp.Mul(x_, gamma);
  U256 t0 = fp.Sub(x_, delta);
  U256 t1 = fp.Add(x_, delta);
  U256 alpha = fp.Mul(t0, t1);
  alpha = fp.Add(fp.Add(alpha, alpha), alpha);  // 3 * (x-delta)(x+delta)

  Point out;
  U256 beta4 = fp.Add(fp.Add(beta, beta), fp.Add(beta, beta));
  U256 beta8 = fp.Add(beta4, beta4);
  out.x_ = fp.Sub(fp.Mul(alpha, alpha), beta8);
  U256 yz = fp.Add(y_, z_);
  out.z_ = fp.Sub(fp.Sub(fp.Mul(yz, yz), gamma), delta);
  U256 gamma2 = fp.Mul(gamma, gamma);
  U256 gamma2_8 = fp.Add(gamma2, gamma2);
  gamma2_8 = fp.Add(gamma2_8, gamma2_8);
  gamma2_8 = fp.Add(gamma2_8, gamma2_8);
  out.y_ = fp.Sub(fp.Mul(alpha, fp.Sub(beta4, out.x_)), gamma2_8);
  return out;
}

Point operator+(const Point& a, const Point& b) {
  if (a.IsInfinity()) {
    return b;
  }
  if (b.IsInfinity()) {
    return a;
  }
  const Mont& fp = FieldP();
  U256 z1z1 = fp.Mul(a.z_, a.z_);
  U256 z2z2 = fp.Mul(b.z_, b.z_);
  U256 u1 = fp.Mul(a.x_, z2z2);
  U256 u2 = fp.Mul(b.x_, z1z1);
  U256 s1 = fp.Mul(fp.Mul(a.y_, b.z_), z2z2);
  U256 s2 = fp.Mul(fp.Mul(b.y_, a.z_), z1z1);

  if (u1 == u2) {
    if (s1 == s2) {
      return a.Double();
    }
    return Point::Infinity();
  }

  U256 h = fp.Sub(u2, u1);
  U256 r = fp.Sub(s2, s1);
  U256 hh = fp.Mul(h, h);
  U256 hhh = fp.Mul(hh, h);
  U256 v = fp.Mul(u1, hh);

  Point out;
  U256 v2 = fp.Add(v, v);
  out.x_ = fp.Sub(fp.Sub(fp.Mul(r, r), hhh), v2);
  out.y_ = fp.Sub(fp.Mul(r, fp.Sub(v, out.x_)), fp.Mul(s1, hhh));
  out.z_ = fp.Mul(fp.Mul(a.z_, b.z_), h);
  return out;
}

Point Point::Neg() const {
  if (IsInfinity()) {
    return *this;
  }
  Point out = *this;
  out.y_ = FieldP().Neg(y_);
  return out;
}

bool Point::operator==(const Point& o) const {
  if (IsInfinity() || o.IsInfinity()) {
    return IsInfinity() == o.IsInfinity();
  }
  // Compare cross-multiplied Jacobian coordinates.
  const Mont& fp = FieldP();
  U256 z1z1 = fp.Mul(z_, z_);
  U256 z2z2 = fp.Mul(o.z_, o.z_);
  if (!(fp.Mul(x_, z2z2) == fp.Mul(o.x_, z1z1))) {
    return false;
  }
  U256 z1z1z1 = fp.Mul(z1z1, z_);
  U256 z2z2z2 = fp.Mul(z2z2, o.z_);
  return fp.Mul(y_, z2z2z2) == fp.Mul(o.y_, z1z1z1);
}

Point Point::Mul(const Scalar& k) const {
  if (IsInfinity() || k.IsZero()) {
    return Infinity();
  }
  // 4-bit fixed window: table[i] = i * P for i in [1, 15].
  Point table[15];
  table[0] = *this;
  for (int i = 1; i < 15; i++) {
    table[i] = table[i - 1] + *this;
  }

  U256 e = k.PlainValue();
  Point acc = Infinity();
  for (int window = 63; window >= 0; window--) {
    for (int i = 0; i < 4; i++) {
      acc = acc.Double();
    }
    uint64_t digit = (e.v[window / 16] >> (4 * (window % 16))) & 0xf;
    if (digit != 0) {
      acc = acc + table[digit - 1];
    }
  }
  return acc;
}

Point Point::AddMixed(const Point& jacobian, const Point& affine) {
  if (jacobian.IsInfinity()) {
    return affine;
  }
  if (affine.IsInfinity()) {
    return jacobian;
  }
  // madd-2008-g: with Z2 == 1, u1/s1 need no scaling and Z3 drops one mul.
  const Mont& fp = FieldP();
  U256 z1z1 = fp.Mul(jacobian.z_, jacobian.z_);
  U256 u2 = fp.Mul(affine.x_, z1z1);
  U256 s2 = fp.Mul(fp.Mul(affine.y_, jacobian.z_), z1z1);

  if (u2 == jacobian.x_) {
    if (s2 == jacobian.y_) {
      return jacobian.Double();
    }
    return Infinity();
  }

  U256 h = fp.Sub(u2, jacobian.x_);
  U256 r = fp.Sub(s2, jacobian.y_);
  U256 hh = fp.Mul(h, h);
  U256 hhh = fp.Mul(hh, h);
  U256 v = fp.Mul(jacobian.x_, hh);

  Point out;
  U256 v2 = fp.Add(v, v);
  out.x_ = fp.Sub(fp.Sub(fp.Mul(r, r), hhh), v2);
  out.y_ = fp.Sub(fp.Mul(r, fp.Sub(v, out.x_)), fp.Mul(jacobian.y_, hhh));
  out.z_ = fp.Mul(jacobian.z_, h);
  return out;
}

bool Point::IsAffine() const { return z_ == FieldP().one(); }

void Point::NormalizeBatch(std::span<Point> points) {
  const Mont& fp = FieldP();
  std::vector<U256> zs;
  zs.reserve(points.size());
  for (const Point& p : points) {
    if (!p.IsInfinity() && !p.IsAffine()) {
      zs.push_back(p.z_);
    }
  }
  fp.BatchInv(zs);
  size_t j = 0;
  for (Point& p : points) {
    if (p.IsInfinity() || p.IsAffine()) {
      continue;
    }
    const U256& zinv = zs[j++];
    U256 zinv2 = fp.Mul(zinv, zinv);
    p.x_ = fp.Mul(p.x_, zinv2);
    p.y_ = fp.Mul(p.y_, fp.Mul(zinv2, zinv));
    p.z_ = fp.one();
  }
}

namespace {

// Window widths of the signed-digit fixed-base tables (see p256.h).
constexpr int kTableWindowBits = 5;
constexpr int kGeneratorWindowBits = 7;

// `width` (< 64) bits of `e` starting at bit `pos` (< 256); bits past 255
// read as zero.
uint64_t WindowBits(const U256& e, int pos, int width) {
  const int limb = pos / 64, off = pos % 64;
  uint64_t bits = e.v[limb] >> off;
  if (off + width > 64 && limb < 3) {
    bits |= e.v[limb + 1] << (64 - off);
  }
  return bits & ((uint64_t{1} << width) - 1);
}

}  // namespace

FixedBaseTable::FixedBaseTable(const Point& base)
    : FixedBaseTable(base, kTableWindowBits) {}

FixedBaseTable::FixedBaseTable(const Point& base, int window_bits)
    : base_(base), window_bits_(window_bits) {
  if (base.IsInfinity()) {
    return;  // Mul short-circuits; the table is never consulted.
  }
  // ceil(257 / w) rows: the recoding's final carry needs one bit past 255.
  const size_t rows = static_cast<size_t>((256 + window_bits) / window_bits);
  const size_t row_len = size_t{1} << (window_bits - 1);
  table_.resize(rows * row_len);
  Point cur = base;  // 2^(w i) * base
  for (size_t i = 0; i < rows; i++) {
    Point* row = &table_[i * row_len];
    row[0] = cur;
    row[1] = cur.Double();
    for (size_t j = 2; j < row_len; j++) {
      row[j] = row[j - 1] + cur;
    }
    cur = row[row_len - 1].Double();
  }
  // Normalize every entry to affine (z == 1) with ONE shared inversion so
  // Mul can use the mixed add. Every entry is j * 2^(w i) * base with
  // 1 <= j <= 2^(w-1); that multiplier is never a multiple of the odd
  // prime n, so no entry is the identity (the curve has cofactor 1).
  Point::NormalizeBatch(table_);
}

Point FixedBaseTable::Mul(const Scalar& k) const {
  if (base_.IsInfinity() || k.IsZero()) {
    return Point::Infinity();
  }
  // Booth recoding, least significant window first: a window value v (its
  // w bits plus the carry in) above 2^(w-1) becomes the digit v - 2^w and
  // carries one into the next window. A scalar below 2^256 leaves no carry
  // out of the top row, whose window holds at most 4 bits (w = 5: 1).
  const U256 e = k.PlainValue();
  const int w = window_bits_;
  const size_t row_len = size_t{1} << (w - 1);
  const size_t rows = table_.size() / row_len;
  const uint64_t half = uint64_t{1} << (w - 1);
  uint64_t carry = 0;
  Point acc = Point::Infinity();
  for (size_t i = 0; i < rows; i++) {
    const uint64_t v = WindowBits(e, static_cast<int>(i) * w, w) + carry;
    carry = v > half ? 1 : 0;
    const Point* row = &table_[i * row_len];
    if (carry != 0) {
      if (v != 2 * half) {  // v == 2^w is the zero digit
        acc = Point::AddMixed(acc, row[2 * half - v - 1].Neg());
      }
    } else if (v != 0) {
      acc = Point::AddMixed(acc, row[v - 1]);
    }
  }
  ATOM_CHECK(carry == 0);
  return acc;
}

const FixedBaseTable& Point::GeneratorTable() {
  static const FixedBaseTable table(Generator(), kGeneratorWindowBits);
  return table;
}

Point Point::BaseMul(const Scalar& k) { return GeneratorTable().Mul(k); }

void Point::ToAffine(U256* out_x, U256* out_y) const {
  ATOM_CHECK(!IsInfinity());
  const Mont& fp = FieldP();
  if (IsAffine()) {
    *out_x = fp.FromMont(x_);
    *out_y = fp.FromMont(y_);
    return;
  }
  U256 zinv = fp.Inv(z_);
  U256 zinv2 = fp.Mul(zinv, zinv);
  U256 zinv3 = fp.Mul(zinv2, zinv);
  *out_x = fp.FromMont(fp.Mul(x_, zinv2));
  *out_y = fp.FromMont(fp.Mul(y_, zinv3));
}

std::vector<Point::AffineCoords> Point::BatchToAffine(
    std::span<const Point> points) {
  std::vector<Point> normalized(points.begin(), points.end());
  NormalizeBatch(normalized);
  const Mont& fp = FieldP();
  std::vector<AffineCoords> out(points.size());
  for (size_t i = 0; i < points.size(); i++) {
    if (normalized[i].IsInfinity()) {
      out[i].infinity = true;
      continue;
    }
    out[i].x = fp.FromMont(normalized[i].x_);
    out[i].y = fp.FromMont(normalized[i].y_);
  }
  return out;
}

Bytes Point::Encode() const {
  Bytes out(kEncodedSize, 0);
  if (IsInfinity()) {
    return out;
  }
  U256 ax, ay;
  ToAffine(&ax, &ay);
  out[0] = static_cast<uint8_t>(0x02 | ay.Bit(0));
  auto xb = ax.ToBytesBe();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

std::optional<Point> Point::Decode(BytesView bytes33) {
  if (bytes33.size() != kEncodedSize) {
    return std::nullopt;
  }
  if (bytes33[0] == 0x00) {
    for (size_t i = 1; i < kEncodedSize; i++) {
      if (bytes33[i] != 0) {
        return std::nullopt;
      }
    }
    return Infinity();
  }
  if (bytes33[0] != 0x02 && bytes33[0] != 0x03) {
    return std::nullopt;
  }
  U256 x = U256::FromBytesBe(bytes33.subspan(1));
  if (!U256Less(x, P256Prime())) {
    return std::nullopt;
  }
  const Mont& fp = FieldP();
  U256 mx = fp.ToMont(x);
  auto my = fp.Sqrt(CurveRhs(mx));
  if (!my.has_value()) {
    return std::nullopt;
  }
  int want_parity = bytes33[0] & 1;
  U256 y = *my;
  if (MontParity(y) != want_parity) {
    y = fp.Neg(y);
  }
  Point p;
  p.x_ = mx;
  p.y_ = y;
  p.z_ = fp.one();
  return p;
}

// ------------------------------------------------------------------- MSM --

Bytes EncodePoints(std::span<const Point> points) {
  auto affine = Point::BatchToAffine(points);
  Bytes out(points.size() * Point::kEncodedSize, 0);
  for (size_t i = 0; i < points.size(); i++) {
    if (affine[i].infinity) {
      continue;  // the identity encodes as 33 zero bytes, already in place
    }
    uint8_t* dst = out.data() + i * Point::kEncodedSize;
    dst[0] = static_cast<uint8_t>(0x02 | affine[i].y.Bit(0));
    auto xb = affine[i].x.ToBytesBe();
    std::copy(xb.begin(), xb.end(), dst + 1);
  }
  return out;
}

namespace {

// Width-5 NAF: every nonzero digit is odd and in [-15, 15], and any two
// nonzero digits are at least 5 positions apart, so a 256-bit scalar has
// ~256/6 nonzero digits. kNafDigits leaves room for the final carry.
constexpr int kNafWidth = 5;
constexpr size_t kNafDigits = 257;
constexpr size_t kNafTableSize = 1u << (kNafWidth - 2);  // P, 3P, ..., 15P

// Writes the width-5 NAF of `k` to digits[0..kNafDigits) (least significant
// first) and returns one past the index of its top nonzero digit.
size_t NafDigits(const U256& k, int8_t* digits) {
  const uint64_t limbs[5] = {k.v[0], k.v[1], k.v[2], k.v[3], 0};
  constexpr uint64_t kWidth = 1u << kNafWidth;
  std::fill(digits, digits + kNafDigits, int8_t{0});
  size_t top = 0;
  uint64_t carry = 0;
  size_t pos = 0;
  while (pos < kNafDigits) {
    const size_t limb = pos / 64, bit = pos % 64;
    uint64_t buf = limbs[limb] >> bit;
    if (bit + kNafWidth > 64) {
      buf |= limbs[limb + 1] << (64 - bit);
    }
    const uint64_t window = carry + (buf & (kWidth - 1));
    if ((window & 1) == 0) {
      pos++;
      continue;
    }
    if (window < kWidth / 2) {
      carry = 0;
      digits[pos] = static_cast<int8_t>(window);
    } else {
      carry = 1;
      digits[pos] = static_cast<int8_t>(static_cast<int>(window) -
                                        static_cast<int>(kWidth));
    }
    top = pos + 1;
    pos += kNafWidth;
  }
  return top;
}

// Pippenger bucket method for large batches: per c-bit window, every term
// lands in one of 2^c - 1 buckets (one add each) and a running-sum sweep
// weights the buckets, so the per-term cost falls as c grows while the
// sweep's 2^(c+1) adds per window are shared by the whole batch.
Point PippengerMsm(std::span<const Point> points,
                   std::span<const Scalar> scalars) {
  const size_t n = points.size();
  // Measured (bench_table3_primitives): c = 9 beats c = 11 up to n ~ 5000
  // and c = 11 wins from n ~ 6000.
  const int c = n >= 6144 ? 11 : 9;
  const int num_windows = (256 + c - 1) / c;
  const size_t num_buckets = (1u << c) - 1;

  std::vector<U256> plain(n);
  for (size_t i = 0; i < n; i++) {
    plain[i] = scalars[i].PlainValue();
  }

  Point result = Point::Infinity();
  std::vector<Point> buckets(num_buckets);
  for (int window = num_windows - 1; window >= 0; window--) {
    for (int i = 0; i < c; i++) {
      result = result.Double();
    }
    for (auto& b : buckets) {
      b = Point::Infinity();
    }
    for (size_t i = 0; i < n; i++) {
      uint64_t d = WindowBits(plain[i], window * c, c);
      if (d != 0) {
        buckets[d - 1] = buckets[d - 1] + points[i];
      }
    }
    // Running-sum trick: sum_{d} d * bucket[d].
    Point running = Point::Infinity();
    Point window_sum = Point::Infinity();
    for (size_t d = num_buckets; d > 0; d--) {
      running = running + buckets[d - 1];
      window_sum = window_sum + running;
    }
    result = result + window_sum;
  }
  return result;
}

}  // namespace

Point MultiScalarMul(std::span<const Point> points,
                     std::span<const Scalar> scalars) {
  ATOM_CHECK(points.size() == scalars.size());
  if (points.size() >= kPippengerMinTerms) {
    return PippengerMsm(points, scalars);
  }

  // Straus: per term, a table of the odd multiples P, 3P, ..., 15P
  // (normalized to affine with one inversion for the whole batch) and the
  // scalar's width-5 NAF; then one shared doubling chain, adding each
  // term's table entry wherever its digit is nonzero. A scalar above n/2
  // is replaced by n - k (at most 255 bits) with the point negated, so a
  // combination whose scalars are small in absolute value — such as the
  // verifiers' negated 128-bit batch weights — gets a short chain.
  static const U256 half_order = [] {
    U256 half = P256Order();
    for (int i = 0; i < 4; i++) {
      half.v[i] = (half.v[i] >> 1) | (i < 3 ? (half.v[i + 1] << 63) : 0);
    }
    return half;
  }();
  std::vector<Point> tables;
  std::vector<int8_t> digits;
  tables.reserve(points.size() * kNafTableSize);
  digits.reserve(points.size() * kNafDigits);
  size_t chain = 0;
  for (size_t i = 0; i < points.size(); i++) {
    if (points[i].IsInfinity() || scalars[i].IsZero()) {
      continue;
    }
    U256 k = scalars[i].PlainValue();
    Point p = points[i];
    if (U256Less(half_order, k)) {
      k = scalars[i].Neg().PlainValue();
      p = p.Neg();
    }
    const size_t base = tables.size();
    tables.resize(base + kNafTableSize);
    tables[base] = p;
    const Point twice = p.Double();
    for (size_t j = 1; j < kNafTableSize; j++) {
      tables[base + j] = tables[base + j - 1] + twice;
    }
    digits.resize(digits.size() + kNafDigits);
    chain = std::max(chain,
                     NafDigits(k, digits.data() + digits.size() - kNafDigits));
  }
  // Odd multiples d·P with d < 16 of a non-identity point are never the
  // identity (prime order), so every entry gets z == 1.
  Point::NormalizeBatch(tables);

  const size_t terms = tables.size() / kNafTableSize;
  Point acc = Point::Infinity();
  for (size_t pos = chain; pos-- > 0;) {
    acc = acc.Double();
    for (size_t t = 0; t < terms; t++) {
      const int d = digits[t * kNafDigits + pos];
      if (d > 0) {
        acc = Point::AddMixed(acc, tables[t * kNafTableSize + (d >> 1)]);
      } else if (d < 0) {
        acc = Point::AddMixed(acc,
                              tables[t * kNafTableSize + (-d >> 1)].Neg());
      }
    }
  }
  return acc;
}

// ---------------------------------------------------- derived generators --

Point HashToPoint(BytesView label) {
  for (uint32_t counter = 0;; counter++) {
    ByteWriter w;
    w.Raw(ToBytes("atom/hash-to-point/v1"));
    w.Var(label);
    w.U32(counter);
    auto digest = Sha256::Hash(BytesView(w.bytes()));
    U256 x = U256::FromBytesBe(BytesView(digest));
    if (!U256Less(x, P256Prime())) {
      continue;
    }
    const Mont& fp = FieldP();
    U256 mx = fp.ToMont(x);
    auto my = fp.Sqrt(CurveRhs(mx));
    if (!my.has_value()) {
      continue;
    }
    // Pick the even-parity root deterministically.
    U256 y = *my;
    if (MontParity(y) != 0) {
      y = fp.Neg(y);
    }
    Point p;
    U256 ax = x;
    U256 ay = fp.FromMont(y);
    auto q = Point::FromAffine(ax, ay);
    ATOM_CHECK(q.has_value());
    p = *q;
    return p;
  }
}

// -------------------------------------------------------- message embed --

std::optional<Point> EmbedMessage(BytesView data) {
  if (data.size() > kEmbedCapacity) {
    return std::nullopt;
  }
  // x = [len | data | zero padding | counter], big-endian bytes. The top
  // byte is <= 30, so x < p always holds.
  std::array<uint8_t, 32> xbuf{};
  xbuf[0] = static_cast<uint8_t>(data.size());
  std::copy(data.begin(), data.end(), xbuf.begin() + 1);
  for (int counter = 0; counter < 256; counter++) {
    xbuf[31] = static_cast<uint8_t>(counter);
    U256 x = U256::FromBytesBe(BytesView(xbuf));
    const Mont& fp = FieldP();
    U256 mx = fp.ToMont(x);
    auto my = fp.Sqrt(CurveRhs(mx));
    if (!my.has_value()) {
      continue;
    }
    U256 y = fp.FromMont(*my);
    auto p = Point::FromAffine(x, y);
    ATOM_CHECK(p.has_value());
    return p;
  }
  // Each try succeeds with probability ~1/2; 256 misses is astronomically
  // unlikely for any input.
  return std::nullopt;
}

std::optional<Bytes> ExtractMessage(const Point& p) {
  if (p.IsInfinity()) {
    return std::nullopt;
  }
  U256 ax, ay;
  p.ToAffine(&ax, &ay);
  auto xb = ax.ToBytesBe();
  size_t len = xb[0];
  if (len > kEmbedCapacity) {
    return std::nullopt;
  }
  return Bytes(xb.begin() + 1, xb.begin() + 1 + static_cast<ptrdiff_t>(len));
}

}  // namespace atom
