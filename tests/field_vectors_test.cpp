// Cross-implementation validation of the Montgomery field arithmetic:
// random (a, b) pairs with a·b, a+b, and a⁻¹ computed independently by
// CPython's arbitrary-precision integers, for both P-256 moduli;
// FieldP()'s p-specific paths (reduction, inversion and square-root
// chains) against a generic Mont instance over the same prime; and the
// carry chains (U256Add/U256Sub, the masked Mont Add/Sub/Neg) against the
// portable __int128 loops and a compare-and-correct reference on the
// operands where a carry or borrow crosses limbs or the modulus.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "src/crypto/mont.h"
#include "src/util/hex.h"
#include "src/util/rng.h"

namespace atom {
namespace {

struct FieldVector {
  std::string_view field;  // "P" (coordinate field) or "N" (scalar field)
  std::string_view a, b, prod, sum, a_inv;
};

// Generated with python3 (seed 1234); see the commit that added this file.
const FieldVector kVectors[] = {
    {"P", "f149f542e935b87017346b4501eaf6141de9ea6670d3da1fc735df5ef7697fba",
     "19322fed157cf9c6b16e2d5cabeb959208f0ebd4950cddd9ce97b5bdf073eed2",
     "a7c1b470d7611a975255edbe0dd93ee8e3cfb38e43893d43cb0b40a55c288e43",
     "0a7c2530feb2b235c8a298a1add68ba626dad63a05e0b7f995cd951ce7dd6e8d",
     "2a14875c1d3d541c9dafa38f438451f99a36f9e35ecb142265023c66a66faf03"},
    {"P", "040e1e30c9ed0248fc9799a707e36d6004762a223c9f90c95ac96628c4381837",
     "175e99412607ad5f76ab14759da618fd7bf78a4d9f8f5ffba5f80a0a58994954",
     "a159f5525698e844170f6fef1059c23cc5dcabd684d2c4c7ecd25d2f770e241d",
     "1b6cb771eff4afa87342ae1ca589865d806db46fdc2ef0c500c170331cd1618b",
     "454c01a0e279e2313983ca5c7caa8aa4b584f8cf4aecffc499cc21280a793d3f"},
    {"P", "e16682717c9bbfae80ca17b703be0e66d868c2cf1d4a2b12b6a20bb02edf0744",
     "118dc10e774520d7e98d7c358a84c15caad14268108727563ff4bb8cf703ca00",
     "c3451d0d14ff58f62eee1c194f6d856aa9672ed6b0339e494fb91ba491d6aaed",
     "f2f4437ff3e0e0866a5793ec8e42cfc3833a05372dd15268f696c73d25e2d144",
     "61d19a7878e02e94d033fb64eb310098d3bf18bf5711f2e0cee4d845a0a14c55"},
    {"N", "d30aad4b45038e220bc4621b9439852083d9fca716c40a33acd51e6699f9823d",
     "443658625af0f3e0d9a54a0d7b25331f4d6bfd8fa506bfc51025dbe58e725d58",
     "b4bef11a766fffe3feed66e719606b799d4db26b43d15e356f549d418738921f",
     "174105ae9ff48201e569ac290f5eb840145eff8914b32b73c9412f892c08ba44",
     "b5a6d734c5510edcea048b8b111c9e9574dbfcabfd0f43d116c00f9ad51e522d"},
    {"N", "aa58695187b8a518e065e3eb74113cb033354fc7eefadf23a7cda6c23fc86ee7",
     "b5c36ec124ce01e15560eaba017ad051121213ca8212f7c6f1048aa604f0d0f3",
     "84e788e644f4843b9518fff058a224f6a09cac48b783812f71bdd092f0e47be4",
     "601bd813ac86a6f935c6cea5758c0d01886068e4c9f63865a51866a548561a89",
     "d2b5d725efc4176ac3136a108a6c7988cdbba52ae3eb7e15450d19088870aec8"},
    {"N", "7f1ff9fe966844aa138411eb0dde6d082ac7e1da6099d795a8486261790b2f7d",
     "58a295d4eff35b6106f1e77124ed49b137106d208ead31c81348486129fc1d9e",
     "2d8b876f82ece4161dc902888417772dc8f41949461d21b2285913e481c20605",
     "d7c28fd3865ba00b1a75f95c32cbb6b961d84efaef47095dbb90aac2a3074d1b",
     "f5cef0fd1b25ceb3a41afddc58a42ba6eb54b85c0d68d6c7b0dccaa225de4aed"},
};

U256 FromHexStr(std::string_view h) {
  auto bytes = HexDecode(h);
  EXPECT_TRUE(bytes.has_value() && bytes->size() == 32);
  return U256::FromBytesBe(BytesView(*bytes));
}

class FieldVectorTest : public ::testing::TestWithParam<FieldVector> {};

TEST_P(FieldVectorTest, MatchesPythonBigints) {
  const FieldVector& vec = GetParam();
  const Mont& field = (vec.field == "P") ? FieldP() : FieldN();
  U256 a = FromHexStr(vec.a);
  U256 b = FromHexStr(vec.b);

  U256 ma = field.ToMont(a);
  U256 mb = field.ToMont(b);
  EXPECT_EQ(field.FromMont(field.Mul(ma, mb)), FromHexStr(vec.prod));
  EXPECT_EQ(field.Add(a, b), FromHexStr(vec.sum));
  EXPECT_EQ(field.FromMont(field.Inv(ma)), FromHexStr(vec.a_inv));
  // And the inverse property closes the loop.
  EXPECT_EQ(field.Mul(ma, field.ToMont(FromHexStr(vec.a_inv))), field.one());
}

INSTANTIATE_TEST_SUITE_P(PythonVectors, FieldVectorTest,
                         ::testing::ValuesIn(kVectors));

// ------------------------------------------ p-specific vs generic over p --

// Uniform element of [0, p) (rejection sampling).
U256 RandomBelowP(Rng& rng) {
  for (;;) {
    Bytes raw = rng.NextBytes(32);
    U256 v = U256::FromBytesBe(BytesView(raw));
    if (U256Less(v, P256Prime())) {
      return v;
    }
  }
}

U256 PMinus(uint64_t k) {
  U256 out;
  U256Sub(&out, P256Prime(), U256::FromU64(k));
  return out;
}

// Edge operands: 0, 1, 2, p - 1, p - 2, R mod p, 2^64 and 2^255 (a value
// with the top bit set), each both as a raw residue and as the Montgomery
// form of that value.
std::vector<U256> EdgeOperands(const Mont& generic) {
  U256 top;
  top.v[3] = uint64_t{1} << 63;
  std::vector<U256> raw = {U256::Zero(),     U256::FromU64(1),
                           U256::FromU64(2), PMinus(1),
                           PMinus(2),        generic.one(),
                           U256::FromLimbs(0, 1, 0, 0),
                           top};
  std::vector<U256> out = raw;
  for (const U256& v : raw) {
    out.push_back(generic.ToMont(v));
  }
  return out;
}

TEST(FieldPDifferential, MulMatchesGenericOverP) {
  const Mont& fp = FieldP();
  const Mont generic(P256Prime());
  ASSERT_EQ(fp.one(), generic.one());
  Rng rng(uint64_t{0xf1e1d});
  for (int i = 0; i < 100000; i++) {
    const U256 a = RandomBelowP(rng), b = RandomBelowP(rng);
    const U256 got = fp.Mul(a, b);
    ASSERT_EQ(got, generic.Mul(a, b)) << "pair " << i;
    ASSERT_TRUE(U256Less(got, P256Prime()));
  }
  const std::vector<U256> edges = EdgeOperands(generic);
  for (const U256& a : edges) {
    for (const U256& b : edges) {
      const U256 got = fp.Mul(a, b);
      EXPECT_EQ(got, generic.Mul(a, b));
      EXPECT_TRUE(U256Less(got, P256Prime()));
    }
  }
}

// Pairs chosen so the product is a given residue: Mul(a, Mul(Inv(a), z))
// = z. Products of p - 1 (the largest reduced value), 0, 1 and other
// values next to either end of [0, p) sit on the final subtraction's
// boundary, where a missed or an extra subtraction shows as p + z or as a
// wrapped value.
TEST(FieldPDifferential, ProductsOnTheFinalSubtractionBoundary) {
  const Mont& fp = FieldP();
  const Mont generic(P256Prime());
  Rng rng(uint64_t{0xb0da});
  const std::vector<U256> targets = {
      U256::Zero(), U256::FromU64(1), U256::FromU64(2), PMinus(1), PMinus(2),
      PMinus(uint64_t{1} << 32), generic.one()};
  for (int i = 0; i < 64; i++) {
    U256 a = RandomBelowP(rng);
    if (a.IsZero()) {
      continue;
    }
    for (const U256& z : targets) {
      const U256 b = generic.Mul(generic.Inv(a), z);
      EXPECT_EQ(generic.Mul(a, b), z);
      EXPECT_EQ(fp.Mul(a, b), z);
      EXPECT_EQ(fp.Mul(b, a), z);
    }
  }
}

TEST(FieldPDifferential, InvChainMatchesPow) {
  const Mont& fp = FieldP();
  const Mont generic(P256Prime());
  const U256 p_minus_2 = PMinus(2);
  Rng rng(uint64_t{0x1a7});
  std::vector<U256> inputs = {fp.one(), U256::FromU64(1), PMinus(1),
                              fp.ToMont(PMinus(1)), fp.ToMont(U256::FromU64(2))};
  for (int i = 0; i < 256; i++) {
    inputs.push_back(RandomBelowP(rng));
  }
  int non_residues = 0;
  for (const U256& a : inputs) {
    if (a.IsZero()) {
      continue;
    }
    non_residues += fp.Sqrt(a).has_value() ? 0 : 1;
    const U256 want = fp.Pow(a, p_minus_2);
    EXPECT_EQ(fp.Inv(a), want);
    EXPECT_EQ(generic.Inv(a), want);
    EXPECT_EQ(fp.Mul(a, fp.Inv(a)), fp.one());
  }
  EXPECT_GT(non_residues, 64);  // about half the random inputs
}

TEST(FieldPDifferential, SqrtChainMatchesPow) {
  const Mont& fp = FieldP();
  const Mont generic(P256Prime());
  // (p + 1) / 4.
  U256 exp;
  U256Add(&exp, P256Prime(), U256::FromU64(1));
  for (int i = 0; i < 4; i++) {
    exp.v[i] = (exp.v[i] >> 2) | (i < 3 ? (exp.v[i + 1] << 62) : 0);
  }
  Rng rng(uint64_t{0x5927});
  // p - 1 is -1, a non-residue because p ≡ 3 mod 4.
  std::vector<U256> inputs = {U256::Zero(), fp.one(), U256::FromU64(1),
                              PMinus(1), fp.ToMont(PMinus(1))};
  for (int i = 0; i < 256; i++) {
    inputs.push_back(RandomBelowP(rng));
  }
  int residues = 0, non_residues = 0;
  for (const U256& a : inputs) {
    const U256 candidate = fp.Pow(a, exp);
    const bool is_residue = fp.Mul(candidate, candidate) == a;
    const std::optional<U256> got = fp.Sqrt(a);
    EXPECT_EQ(got.has_value(), is_residue);
    EXPECT_EQ(got, generic.Sqrt(a));
    if (is_residue) {
      residues++;
      EXPECT_EQ(*got, candidate);
    } else {
      non_residues++;
      // -a is then a residue (p ≡ 3 mod 4).
      const std::optional<U256> neg = fp.Sqrt(fp.Neg(a));
      ASSERT_TRUE(neg.has_value());
      EXPECT_EQ(fp.Mul(*neg, *neg), fp.Neg(a));
    }
  }
  EXPECT_FALSE(fp.Sqrt(fp.ToMont(PMinus(1))).has_value());
  EXPECT_GT(residues, 64);
  EXPECT_GT(non_residues, 64);
}

// --------------------------------------------- carry chains and masks --

constexpr uint64_t kOnes = ~uint64_t{0};

U256 PortableSub(const U256& a, const U256& b) {
  U256 out;
  U256SubPortable(&out, a, b);
  return out;
}

U256 PortableAdd(const U256& a, const U256& b) {
  U256 out;
  U256AddPortable(&out, a, b);
  return out;
}

// The compare-and-correct field operations over the portable loops: the
// reference for Mont's masked, branch-free Add/Sub/Neg (defined for every
// 256-bit input, reduced or not).
U256 RefAdd(const U256& a, const U256& b) {
  U256 out;
  const uint64_t carry = U256AddPortable(&out, a, b);
  if (carry != 0 || !U256Less(out, P256Prime())) {
    U256SubPortable(&out, out, P256Prime());
  }
  return out;
}

U256 RefSub(const U256& a, const U256& b) {
  U256 out;
  if (U256SubPortable(&out, a, b) != 0) {
    U256AddPortable(&out, out, P256Prime());
  }
  return out;
}

U256 RefNeg(const U256& a) {
  return a.IsZero() ? a : PortableSub(P256Prime(), a);
}

// Operand pairs on the carry chains' boundaries: sums equal to p, to 2^256
// and to 2^256 + p - 2; differences of -1, 0 - (p - 1) and 0; all-ones
// limbs whose carry runs through every limb above them.
std::vector<std::pair<U256, U256>> CarryBoundaryPairs() {
  const U256 p = P256Prime();
  const U256 one = U256::FromU64(1);
  const U256 ones = U256::FromLimbs(kOnes, kOnes, kOnes, kOnes);
  const U256 p_minus_1 = PortableSub(p, one);
  const U256 p_minus_2 = PortableSub(p, U256::FromU64(2));
  const U256 two_256_minus_p = PortableSub(U256::Zero(), p);  // 2^256 - p
  U256 half;
  half.v[3] = uint64_t{1} << 63;  // 2^255
  std::vector<std::pair<U256, U256>> pairs = {
      // a + b = p.
      {p_minus_1, one},
      {U256::FromLimbs(0, 0, 0, p.v[3]), U256::FromLimbs(p.v[0], p.v[1],
                                                         p.v[2], 0)},
      {PortableSub(p, U256::FromLimbs(0, 1, 0, 0)), U256::FromLimbs(0, 1, 0,
                                                                    0)},
      // a + b = 2^256.
      {ones, one},
      {half, half},
      {p, two_256_minus_p},
      {p_minus_1, PortableAdd(two_256_minus_p, one)},
      // a + b = 2^256 + p - 2.
      {ones, p_minus_1},
      {p_minus_1, ones},
      // a - b = -1.
      {U256::Zero(), one},
      {p_minus_2, p_minus_1},
      {U256::FromLimbs(kOnes, kOnes, kOnes, 0), half},
      // 0 - (p - 1).
      {U256::Zero(), p_minus_1},
      // Equal operands: a - b = 0.
      {U256::Zero(), U256::Zero()},
      {one, one},
      {p_minus_1, p_minus_1},
      {p, p},
      {ones, ones},
      // All-ones limbs: a carry (or borrow) crosses 1, 2 and 3 limbs.
      {U256::FromLimbs(kOnes, 0, 0, 0), one},
      {U256::FromLimbs(kOnes, kOnes, 0, 0), one},
      {U256::FromLimbs(kOnes, kOnes, kOnes, 0), one},
      {U256::FromLimbs(0, kOnes, kOnes, kOnes), U256::FromLimbs(0, 1, 0, 0)},
      {U256::FromLimbs(0, 0, 0, 1), one},
      {U256::FromLimbs(0, 0, 1, 0), one},
      {U256::FromLimbs(0, 1, 0, 0), one},
  };
  return pairs;
}

// Limbs drawn from {0, 1, 2^63, 2^64 - 2, 2^64 - 1, random}, so carries and
// borrows run across several limbs far more often than uniform values do.
U256 CarryHeavyValue(Rng& rng) {
  U256 out;
  for (uint64_t& limb : out.v) {
    switch (rng.NextU64() % 6) {
      case 0: limb = 0; break;
      case 1: limb = 1; break;
      case 2: limb = uint64_t{1} << 63; break;
      case 3: limb = kOnes - 1; break;
      case 4: limb = kOnes; break;
      default: limb = rng.NextU64(); break;
    }
  }
  return out;
}

void ExpectChainsMatchPortable(const U256& a, const U256& b) {
  U256 sum, sum_ref, diff, diff_ref;
  EXPECT_EQ(U256Add(&sum, a, b), U256AddPortable(&sum_ref, a, b));
  EXPECT_EQ(sum, sum_ref);
  EXPECT_EQ(U256Sub(&diff, a, b), U256SubPortable(&diff_ref, a, b));
  EXPECT_EQ(diff, diff_ref);
}

void ExpectFieldOpsMatchReference(const Mont& fp, const Mont& generic,
                                  const U256& a, const U256& b) {
  EXPECT_EQ(fp.Add(a, b), RefAdd(a, b));
  EXPECT_EQ(fp.Sub(a, b), RefSub(a, b));
  EXPECT_EQ(fp.Neg(a), RefNeg(a));
  EXPECT_EQ(fp.Add(a, b), generic.Add(a, b));
  EXPECT_EQ(fp.Sub(a, b), generic.Sub(a, b));
  EXPECT_EQ(fp.Neg(a), generic.Neg(a));
  if (U256Less(a, P256Prime()) && U256Less(b, P256Prime())) {
    EXPECT_TRUE(U256Less(fp.Add(a, b), P256Prime()));
    EXPECT_TRUE(U256Less(fp.Sub(a, b), P256Prime()));
    EXPECT_TRUE(U256Less(fp.Neg(a), P256Prime()));
  }
}

TEST(CarryChains, U256AddSubMatchPortableOnBoundaries) {
  for (const auto& [a, b] : CarryBoundaryPairs()) {
    SCOPED_TRACE(HexEncode(BytesView(a.ToBytesBe())) + " " +
                 HexEncode(BytesView(b.ToBytesBe())));
    ExpectChainsMatchPortable(a, b);
    ExpectChainsMatchPortable(b, a);
  }
  // The named boundaries, spelled out.
  const U256 ones = U256::FromLimbs(kOnes, kOnes, kOnes, kOnes);
  U256 out;
  EXPECT_EQ(U256Add(&out, ones, U256::FromU64(1)), 1u);
  EXPECT_TRUE(out.IsZero());
  EXPECT_EQ(U256Sub(&out, U256::Zero(), U256::FromU64(1)), 1u);
  EXPECT_EQ(out, ones);
  EXPECT_EQ(U256Add(&out, U256::FromLimbs(kOnes, kOnes, kOnes, 0),
                    U256::FromU64(1)),
            0u);
  EXPECT_EQ(out, U256::FromLimbs(0, 0, 0, 1));
}

TEST(CarryChains, U256AddSubMatchPortableOnSeededPairs) {
  Rng rng(uint64_t{0xadc});
  for (int i = 0; i < 100000; i++) {
    const U256 a = (i % 2 == 0) ? CarryHeavyValue(rng) : RandomBelowP(rng);
    const U256 b = (i % 3 == 0) ? RandomBelowP(rng) : CarryHeavyValue(rng);
    U256 sum, sum_ref, diff, diff_ref;
    ASSERT_EQ(U256Add(&sum, a, b), U256AddPortable(&sum_ref, a, b)) << i;
    ASSERT_EQ(sum, sum_ref) << i;
    ASSERT_EQ(U256Sub(&diff, a, b), U256SubPortable(&diff_ref, a, b)) << i;
    ASSERT_EQ(diff, diff_ref) << i;
  }
  // In place: `out` aliases an operand.
  U256 x = U256::FromLimbs(kOnes, kOnes, 0, 5);
  U256 x_ref = x;
  EXPECT_EQ(U256Add(&x, x, x), U256AddPortable(&x_ref, x_ref, x_ref));
  EXPECT_EQ(x, x_ref);
  EXPECT_EQ(U256Sub(&x, U256::FromU64(3), x),
            U256SubPortable(&x_ref, U256::FromU64(3), x_ref));
  EXPECT_EQ(x, x_ref);
}

TEST(CarryChains, FieldAddSubNegMatchReferenceOnBoundaries) {
  const Mont& fp = FieldP();
  const Mont generic(P256Prime());
  std::vector<U256> values = EdgeOperands(generic);
  for (const auto& [a, b] : CarryBoundaryPairs()) {
    SCOPED_TRACE(HexEncode(BytesView(a.ToBytesBe())) + " " +
                 HexEncode(BytesView(b.ToBytesBe())));
    ExpectFieldOpsMatchReference(fp, generic, a, b);
    ExpectFieldOpsMatchReference(fp, generic, b, a);
    values.push_back(a);
  }
  for (const U256& a : values) {
    for (const U256& b : values) {
      ExpectFieldOpsMatchReference(fp, generic, a, b);
    }
  }
  // The boundaries the masks select on, with known answers.
  const U256 p_minus_1 = PMinus(1);
  EXPECT_TRUE(fp.Add(p_minus_1, U256::FromU64(1)).IsZero());  // sum = p
  EXPECT_EQ(fp.Add(p_minus_1, p_minus_1), PMinus(2));  // sum = 2p - 2
  EXPECT_EQ(fp.Sub(U256::Zero(), U256::FromU64(1)), p_minus_1);
  EXPECT_EQ(fp.Sub(U256::Zero(), p_minus_1), U256::FromU64(1));
  EXPECT_TRUE(fp.Sub(p_minus_1, p_minus_1).IsZero());
  EXPECT_TRUE(fp.Neg(U256::Zero()).IsZero());
  EXPECT_EQ(fp.Neg(U256::FromU64(1)), p_minus_1);
}

TEST(CarryChains, FieldAddSubNegMatchReferenceOnSeededPairs) {
  const Mont& fp = FieldP();
  const Mont generic(P256Prime());
  Rng rng(uint64_t{0xf1e1dadd});
  for (int i = 0; i < 100000; i++) {
    const U256 a = RandomBelowP(rng), b = RandomBelowP(rng);
    const U256 sum = fp.Add(a, b), diff = fp.Sub(a, b), neg = fp.Neg(a);
    ASSERT_EQ(sum, RefAdd(a, b)) << i;
    ASSERT_EQ(diff, RefSub(a, b)) << i;
    ASSERT_EQ(neg, RefNeg(a)) << i;
    ASSERT_EQ(sum, generic.Add(a, b)) << i;
    ASSERT_TRUE(U256Less(sum, P256Prime()) && U256Less(diff, P256Prime()))
        << i;
    ASSERT_EQ(fp.Add(diff, b), a) << i;
    ASSERT_TRUE(fp.Add(a, neg).IsZero()) << i;
  }
}

}  // namespace
}  // namespace atom
