// Table 3: performance of the cryptographic primitives.
//
// Regenerates the paper's primitive-latency table by timing the real
// implementations: Enc, ReEnc, Shuffle(1024), EncProof / ReEncProof
// (prove + verify), and ShufProof(1024) (prove + verify) on 32-byte
// (single-point) messages. Absolute numbers differ from the paper's
// Go-on-c4.xlarge measurements; the orderings (verify > prove for the
// shuffle, ReEnc > Enc, proof costs >> plain ops) must match.
// --smoke runs only the hand-timed hot-path section (small rep counts)
// and writes BENCH_bench_table3_primitives.json for CI artifact upload;
// the full google-benchmark table is skipped. The hot-path section gates
// (exit 1) on the p-specialized field paths and the signed-window tables
// paying off (see MeasureField), on the shared-doubling MSM never losing to
// the naive sum of Muls, on batched NIZK verification paying off (see
// MeasureNizk), and on encoding a decoded point being free next to a
// Jacobian one (see MeasureIngress).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>

#include "bench/bench_common.h"
#include "src/core/client.h"
#include "src/core/wire.h"
#include "src/crypto/dkg.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/crypto/transcript.h"
#include "src/util/rng.h"

namespace atom {
namespace {

struct Fixture {
  Rng rng{uint64_t{0x7ab1e3}};
  ElGamalKeypair group = ElGamalKeyGen(rng);
  ElGamalKeypair next = ElGamalKeyGen(rng);
  Point m = *EmbedMessage(BytesView(ToBytes("32-byte message, one point")));

  CiphertextBatch Batch(size_t n) {
    CiphertextBatch batch(n);
    for (size_t i = 0; i < n; i++) {
      batch[i].push_back(ElGamalEncrypt(group.pk, m, rng));
    }
    return batch;
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

void BM_Enc(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalEncrypt(f.group.pk, f.m, f.rng));
  }
}
BENCHMARK(BM_Enc)->Unit(benchmark::kMicrosecond);

void BM_ReEnc(benchmark::State& state) {
  auto& f = F();
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalReEnc(f.group.sk, &f.next.pk, ct, f.rng));
  }
}
BENCHMARK(BM_ReEnc)->Unit(benchmark::kMicrosecond);

void BM_Shuffle1024(benchmark::State& state) {
  auto& f = F();
  auto batch = f.Batch(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShuffleBatch(f.group.pk, batch, f.rng));
  }
}
BENCHMARK(BM_Shuffle1024)->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_EncProof_Prove(benchmark::State& state) {
  auto& f = F();
  Scalar r;
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng, &r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeEncProof(f.group.pk, 0, ct, r, f.rng));
  }
}
BENCHMARK(BM_EncProof_Prove)->Unit(benchmark::kMicrosecond);

void BM_EncProof_Verify(benchmark::State& state) {
  auto& f = F();
  Scalar r;
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng, &r);
  auto proof = MakeEncProof(f.group.pk, 0, ct, r, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyEncProof(f.group.pk, 0, ct, proof));
  }
}
BENCHMARK(BM_EncProof_Verify)->Unit(benchmark::kMicrosecond);

void BM_ReEncProof_Prove(benchmark::State& state) {
  auto& f = F();
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(f.group.sk, &f.next.pk, ct, f.rng, &rewrap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeReEncProof(f.group.sk, f.group.pk,
                                            &f.next.pk, ct, out, rewrap,
                                            f.rng));
  }
}
BENCHMARK(BM_ReEncProof_Prove)->Unit(benchmark::kMicrosecond);

void BM_ReEncProof_Verify(benchmark::State& state) {
  auto& f = F();
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(f.group.sk, &f.next.pk, ct, f.rng, &rewrap);
  auto proof = MakeReEncProof(f.group.sk, f.group.pk, &f.next.pk, ct, out,
                              rewrap, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyReEncProof(f.group.pk, &f.next.pk, ct, out, proof));
  }
}
BENCHMARK(BM_ReEncProof_Verify)->Unit(benchmark::kMicrosecond);

void BM_EncProof_BatchVerify256(benchmark::State& state) {
  // Entry groups verify every user's proofs; the random-linear-combination
  // batch test turns 2N scalar mults into one MSM. Per-proof cost here
  // should be several times below BM_EncProof_Verify.
  auto& f = F();
  constexpr size_t kBatch = 256;
  std::vector<Point> ms(kBatch, f.m);
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(f.group.pk, ms, f.rng, &rs);
  auto proofs = MakeEncProofVec(f.group.pk, 0, cts, rs, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyEncProofBatch(f.group.pk, 0, cts, proofs));
  }
  state.counters["us_per_proof"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EncProof_BatchVerify256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_ShufProof1024_Prove(benchmark::State& state) {
  auto& f = F();
  auto batch = f.Batch(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShuffleAndProve(f.group.pk, batch, f.rng));
  }
}
BENCHMARK(BM_ShufProof1024_Prove)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_ShufProof1024_Verify(benchmark::State& state) {
  auto& f = F();
  auto batch = f.Batch(1024);
  auto result = ShuffleAndProve(f.group.pk, batch, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyShuffle(f.group.pk, batch, result.output, result.proof));
  }
}
BENCHMARK(BM_ShufProof1024_Verify)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Timings (seconds) of one side of a comparison; callers interleave the
// sides' repetitions so drift hits both alike.
struct Spread {
  std::vector<double> samples;
  double Quantile(double q) const {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    return sorted[static_cast<size_t>(q * static_cast<double>(sorted.size() -
                                                              1))];
  }
  double Median() const { return Quantile(0.5); }
  double Iqr() const { return Quantile(0.75) - Quantile(0.25); }
  void Time(const std::function<void()>& fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    samples.push_back(SecondsSince(t0));
  }
};

// The arithmetic floor under every row below, interleaved so drift hits
// every row alike:
//   - FieldP()'s p-specialized Mul vs a generic Mont over the same prime,
//   - BaseMul (w = 7 generator table) vs a key FixedBaseTable's Mul (w = 5)
//     vs the generic variable-base Point::Mul,
//   - FieldP().Inv (fixed addition chain) vs Pow over p - 2,
//   - Point::Decode (its square root is the (p + 1) / 4 chain).
// Gates: the specialized Mul's median is at most the generic median plus
// the generic IQR; BaseMul's median is at most the key table's; the chain
// Inv costs at most 0.8x Pow.
bool MeasureField(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e7});
  const Mont& fp = FieldP();
  const Mont generic(P256Prime());
  U256 p_minus_2;
  U256Sub(&p_minus_2, P256Prime(), U256::FromU64(2));

  constexpr size_t kMuls = 20000;  // dependent field muls per sample
  constexpr size_t kOps = 64;      // point ops / inversions per sample
  const U256 y = fp.ToMont(Scalar::Random(rng).PlainValue());
  U256 x_spec = fp.ToMont(Scalar::Random(rng).PlainValue());
  U256 x_gen = x_spec;
  const Point key = Point::BaseMul(Scalar::Random(rng));
  const FixedBaseTable key_table(key);
  std::vector<Scalar> ks;
  std::vector<U256> inv_in;
  std::vector<Bytes> encoded;
  for (size_t i = 0; i < kOps; i++) {
    ks.push_back(Scalar::Random(rng));
    inv_in.push_back(fp.ToMont(Scalar::Random(rng).PlainValue()));
    encoded.push_back(Point::BaseMul(ks.back()).Encode());
  }

  const int reps = smoke ? 21 : 61;
  Spread mul_spec, mul_gen, base_mul, table_mul, var_mul, inv_chain, inv_pow,
      decode;
  bool agree = true;
  const std::vector<std::function<void()>> rows = {
      [&] {
        mul_spec.Time([&] {
          for (size_t i = 0; i < kMuls; i++) {
            x_spec = fp.Mul(x_spec, y);
          }
        });
      },
      [&] {
        mul_gen.Time([&] {
          for (size_t i = 0; i < kMuls; i++) {
            x_gen = generic.Mul(x_gen, y);
          }
        });
      },
      [&] {
        base_mul.Time([&] {
          for (const Scalar& k : ks) {
            benchmark::DoNotOptimize(Point::BaseMul(k));
          }
        });
      },
      [&] {
        table_mul.Time([&] {
          for (const Scalar& k : ks) {
            benchmark::DoNotOptimize(key_table.Mul(k));
          }
        });
      },
      [&] {
        var_mul.Time([&] {
          for (size_t i = 0; i < kOps / 4; i++) {
            benchmark::DoNotOptimize(key.Mul(ks[i]));
          }
        });
      },
      [&] {
        inv_chain.Time([&] {
          for (const U256& a : inv_in) {
            benchmark::DoNotOptimize(fp.Inv(a));
          }
        });
      },
      [&] {
        inv_pow.Time([&] {
          for (const U256& a : inv_in) {
            benchmark::DoNotOptimize(fp.Pow(a, p_minus_2));
          }
        });
      },
      [&] {
        decode.Time([&] {
          for (const Bytes& e : encoded) {
            agree &= Point::Decode(BytesView(e)).has_value();
          }
        });
      },
  };
  // One untimed pass warms every table and code path; then the rows run
  // in alternating order so drift within a repetition hits both sides of
  // each comparison alike.
  for (const auto& row : rows) {
    row();
  }
  for (Spread* s : {&mul_spec, &mul_gen, &base_mul, &table_mul, &var_mul,
                    &inv_chain, &inv_pow, &decode}) {
    s->samples.clear();
  }
  for (int r = 0; r < reps; r++) {
    for (size_t i = 0; i < rows.size(); i++) {
      rows[r % 2 == 0 ? i : rows.size() - 1 - i]();
    }
  }
  agree &= x_spec == x_gen;  // the same chain of products on both paths
  agree &= fp.Inv(inv_in[0]) == fp.Pow(inv_in[0], p_minus_2);
  agree &= key_table.Mul(ks[0]) == key.Mul(ks[0]);
  ATOM_CHECK(agree);

  const double ns_mul = 1e9 / kMuls, us_op = 1e6 / kOps;
  const bool mul_ok = mul_spec.Median() <= mul_gen.Median() + mul_gen.Iqr();
  const bool base_ok = base_mul.Median() <= table_mul.Median();
  const bool inv_ok = inv_chain.Median() <= 0.8 * inv_pow.Median();
  std::printf("field mul: p-specialized %.1f ns (IQR %.1f), generic over p "
              "%.1f ns (IQR %.1f) -> %.2fx%s\n",
              ns_mul * mul_spec.Median(), ns_mul * mul_spec.Iqr(),
              ns_mul * mul_gen.Median(), ns_mul * mul_gen.Iqr(),
              mul_gen.Median() / mul_spec.Median(),
              mul_ok ? "" : "  FAIL: specialized slower than generic");
  std::printf("scalar mult: BaseMul (w=7) %.1f us (IQR %.1f), key table "
              "(w=5) %.1f us (IQR %.1f), generic Mul %.1f us (IQR %.1f)%s\n",
              us_op * base_mul.Median(), us_op * base_mul.Iqr(),
              us_op * table_mul.Median(), us_op * table_mul.Iqr(),
              4 * us_op * var_mul.Median(), 4 * us_op * var_mul.Iqr(),
              base_ok ? "" : "  FAIL: BaseMul slower than a key table");
  std::printf("field inv: chain %.2f us (IQR %.2f), Pow %.2f us (IQR %.2f) "
              "-> %.2fx%s\n",
              us_op * inv_chain.Median(), us_op * inv_chain.Iqr(),
              us_op * inv_pow.Median(), us_op * inv_pow.Iqr(),
              inv_pow.Median() / inv_chain.Median(),
              inv_ok ? "" : "  FAIL: chain above 0.8x Pow");
  std::printf("Decode: %.2f us (IQR %.2f)\n", us_op * decode.Median(),
              us_op * decode.Iqr());
  json.Num("field_mul_p_ns", ns_mul * mul_spec.Median());
  json.Num("field_mul_p_iqr_ns", ns_mul * mul_spec.Iqr());
  json.Num("field_mul_generic_ns", ns_mul * mul_gen.Median());
  json.Num("field_mul_generic_iqr_ns", ns_mul * mul_gen.Iqr());
  json.Num("base_mul_us", us_op * base_mul.Median());
  json.Num("base_mul_iqr_us", us_op * base_mul.Iqr());
  json.Num("key_table_mul_us", us_op * table_mul.Median());
  json.Num("key_table_mul_iqr_us", us_op * table_mul.Iqr());
  json.Num("var_mul_us", 4 * us_op * var_mul.Median());
  json.Num("var_mul_iqr_us", 4 * us_op * var_mul.Iqr());
  json.Num("inv_chain_us", us_op * inv_chain.Median());
  json.Num("inv_chain_iqr_us", us_op * inv_chain.Iqr());
  json.Num("inv_pow_us", us_op * inv_pow.Median());
  json.Num("inv_pow_iqr_us", us_op * inv_pow.Iqr());
  json.Num("decode_us", us_op * decode.Median());
  json.Num("decode_iqr_us", us_op * decode.Iqr());
  return mul_ok && base_ok && inv_ok;
}

// Ladder rung 2, interleaved so drift hits every row alike: field Mul,
// Add and Sub (dependent chains), then Point::Double, the full Jacobian
// add and AddMixed (dependent chains of point operations). Gate: Double's
// median is at most kDoubleMulGate field-mul medians, a same-process
// ratio that holds whatever the host's clock does. Double is 3M + 5S plus
// 15 adds/subs/negations of the field, so the gate fails when that carry
// layer costs about as much as it did with the __int128 carry loops.
constexpr double kDoubleMulGate = 11.5;

bool MeasurePointOps(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e8});
  const Mont& fp = FieldP();
  constexpr size_t kFieldOps = 20000;  // dependent field ops per sample
  constexpr size_t kPointOps = 2000;   // dependent point ops per sample
  const U256 y = fp.ToMont(Scalar::Random(rng).PlainValue());
  U256 x_mul = fp.ToMont(Scalar::Random(rng).PlainValue());
  U256 x_add = x_mul, x_sub = x_mul;
  // A Jacobian (z != 1) addend for the full add, an affine one for
  // AddMixed; the accumulators never meet them or the identity.
  const Point jacobian = Point::BaseMul(Scalar::Random(rng));
  Point affine = Point::BaseMul(Scalar::Random(rng));
  Point::NormalizeBatch(std::span(&affine, 1));
  ATOM_CHECK(!jacobian.IsAffine() && affine.IsAffine());
  Point dbl = Point::BaseMul(Scalar::Random(rng));
  Point add = dbl, mixed = dbl;

  const int reps = smoke ? 21 : 61;
  Spread mul, fadd, fsub, pdbl, padd, pmixed;
  const std::vector<std::function<void()>> rows = {
      [&] {
        mul.Time([&] {
          for (size_t i = 0; i < kFieldOps; i++) {
            x_mul = fp.Mul(x_mul, y);
          }
        });
      },
      [&] {
        fadd.Time([&] {
          for (size_t i = 0; i < kFieldOps; i++) {
            x_add = fp.Add(x_add, y);
          }
        });
      },
      [&] {
        fsub.Time([&] {
          for (size_t i = 0; i < kFieldOps; i++) {
            x_sub = fp.Sub(x_sub, y);
          }
        });
      },
      [&] {
        pdbl.Time([&] {
          for (size_t i = 0; i < kPointOps; i++) {
            dbl = dbl.Double();
          }
        });
      },
      [&] {
        padd.Time([&] {
          for (size_t i = 0; i < kPointOps; i++) {
            add = add + jacobian;
          }
        });
      },
      [&] {
        pmixed.Time([&] {
          for (size_t i = 0; i < kPointOps; i++) {
            mixed = Point::AddMixed(mixed, affine);
          }
        });
      },
  };
  for (const auto& row : rows) {
    row();
  }
  for (Spread* sp : {&mul, &fadd, &fsub, &pdbl, &padd, &pmixed}) {
    sp->samples.clear();
  }
  for (int r = 0; r < reps; r++) {
    for (size_t i = 0; i < rows.size(); i++) {
      rows[r % 2 == 0 ? i : rows.size() - 1 - i]();
    }
  }
  // The chains reached nothing degenerate, and the mixed and full adds
  // agree on the group law.
  ATOM_CHECK(!dbl.IsInfinity() && !add.IsInfinity() && !mixed.IsInfinity());
  ATOM_CHECK(Point::AddMixed(jacobian, affine) == jacobian + affine);
  ATOM_CHECK(fp.Sub(fp.Add(x_mul, y), y) == x_mul);

  const double ns_field = 1e9 / kFieldOps, ns_point = 1e9 / kPointOps;
  const double mul_ns = ns_field * mul.Median();
  const double dbl_ns = ns_point * pdbl.Median();
  const double ratio = dbl_ns / mul_ns;
  const bool dbl_ok = ratio <= kDoubleMulGate;
  std::printf("field: Mul %.1f ns (IQR %.1f), Add %.1f ns (IQR %.1f), Sub "
              "%.1f ns (IQR %.1f)\n",
              mul_ns, ns_field * mul.Iqr(), ns_field * fadd.Median(),
              ns_field * fadd.Iqr(), ns_field * fsub.Median(),
              ns_field * fsub.Iqr());
  std::printf("point: Double %.0f ns (IQR %.0f), add %.0f ns (IQR %.0f), "
              "AddMixed %.0f ns (IQR %.0f); Double = %.1f field muls "
              "(gate <= %.1f)%s\n",
              dbl_ns, ns_point * pdbl.Iqr(), ns_point * padd.Median(),
              ns_point * padd.Iqr(), ns_point * pmixed.Median(),
              ns_point * pmixed.Iqr(), ratio, kDoubleMulGate,
              dbl_ok ? "" : "  FAIL: Double above the gate");
  json.Num("rung2_field_mul_ns", mul_ns);
  json.Num("rung2_field_mul_iqr_ns", ns_field * mul.Iqr());
  json.Num("field_add_ns", ns_field * fadd.Median());
  json.Num("field_add_iqr_ns", ns_field * fadd.Iqr());
  json.Num("field_sub_ns", ns_field * fsub.Median());
  json.Num("field_sub_iqr_ns", ns_field * fsub.Iqr());
  json.Num("point_double_ns", dbl_ns);
  json.Num("point_double_iqr_ns", ns_point * pdbl.Iqr());
  json.Num("point_add_ns", ns_point * padd.Median());
  json.Num("point_add_iqr_ns", ns_point * padd.Iqr());
  json.Num("point_add_mixed_ns", ns_point * pmixed.Median());
  json.Num("point_add_mixed_iqr_ns", ns_point * pmixed.Iqr());
  json.Num("double_per_field_mul", ratio);
  return dbl_ok;
}

// MultiScalarMul vs n independent windowed Muls at the sizes the NIZK
// verifiers use (2/3: prover's a3 and small sub-batches; 6/21: ReEnc
// sub-batches of one and three proofs plus shared terms; 44: VerifyShuffle
// at n = 2, l = 3) and one batch-verifier size. Gate: the kernel's median
// may exceed the naive median by at most the naive runs' IQR.
bool MeasureMsm(BenchJson& json, bool smoke, const std::vector<Point>& points,
                const std::vector<Scalar>& ks) {
  bool ok = true;
  const int reps = smoke ? 5 : 15;
  for (size_t n : {2u, 3u, 6u, 21u, 44u, 256u}) {
    std::vector<Point> ps(points.begin(),
                          points.begin() + static_cast<ptrdiff_t>(n));
    std::vector<Scalar> ss(ks.begin(),
                           ks.begin() + static_cast<ptrdiff_t>(n));
    Spread naive, kernel;
    Point naive_sum, msm;
    for (int r = 0; r < reps; r++) {
      naive.Time([&] {
        naive_sum = Point::Infinity();
        for (size_t i = 0; i < n; i++) {
          naive_sum = naive_sum + ps[i].Mul(ss[i]);
        }
      });
      kernel.Time([&] { msm = MultiScalarMul(ps, ss); });
    }
    ATOM_CHECK(msm == naive_sum);
    const bool row_ok = kernel.Median() <= naive.Median() + naive.Iqr();
    ok &= row_ok;
    size_t row = json.Row();
    json.RowNum(row, "msm_n", static_cast<double>(n));
    json.RowNum(row, "naive_us", 1e6 * naive.Median());
    json.RowNum(row, "naive_iqr_us", 1e6 * naive.Iqr());
    json.RowNum(row, "msm_us", 1e6 * kernel.Median());
    json.RowNum(row, "msm_iqr_us", 1e6 * kernel.Iqr());
    std::printf("msm n=%-3zu: naive %8.0f us (IQR %5.0f), kernel %7.0f us "
                "(IQR %5.0f) -> %.2fx%s\n",
                n, 1e6 * naive.Median(), 1e6 * naive.Iqr(),
                1e6 * kernel.Median(), 1e6 * kernel.Iqr(),
                naive.Median() / kernel.Median(),
                row_ok ? "" : "  FAIL: kernel slower than naive");
  }
  return ok;
}

// Hand-timed hot-path measurements (the crypto fast paths this repo layers
// on top of the paper's primitives), recorded to the bench JSON so the
// speedups are tracked across PRs:
//   - repeated same-base scalar mult through a FixedBaseTable (built
//     inside the timed section: the reuse amortizes it) vs generic Mul,
//   - batch point encoding (EncodePoints: one shared inversion) vs a
//     per-point Encode loop at N = 1024,
//   - MultiScalarMul vs the naive sum of Muls (MeasureMsm).
// Returns false if a gate fails.
bool MeasureHotPath(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e4});
  using Clock = std::chrono::steady_clock;

  // ---- repeated same-base scalar multiplication.
  const size_t reps = smoke ? 512 : 4096;
  Point base = Point::BaseMul(Scalar::Random(rng));
  std::vector<Scalar> ks;
  ks.reserve(reps);
  for (size_t i = 0; i < reps; i++) {
    ks.push_back(Scalar::Random(rng));
  }
  // Warm both paths once so neither pays first-touch noise.
  benchmark::DoNotOptimize(base.Mul(ks[0]));
  auto t0 = Clock::now();
  for (const Scalar& k : ks) {
    benchmark::DoNotOptimize(base.Mul(k));
  }
  double generic_s = SecondsSince(t0);
  t0 = Clock::now();
  FixedBaseTable table(base);
  for (const Scalar& k : ks) {
    benchmark::DoNotOptimize(table.Mul(k));
  }
  double table_s = SecondsSince(t0);
  double mul_speedup = generic_s / table_s;
  std::printf("same-base mult x%zu: generic %.1f us/op, table %.1f us/op "
              "(build amortized) -> %.2fx\n",
              reps, 1e6 * generic_s / static_cast<double>(reps),
              1e6 * table_s / static_cast<double>(reps), mul_speedup);
  json.Num("table_mul_reps", static_cast<double>(reps));
  json.Num("table_mul_generic_us",
           1e6 * generic_s / static_cast<double>(reps));
  json.Num("table_mul_us", 1e6 * table_s / static_cast<double>(reps));
  json.Num("table_mul_speedup", mul_speedup);

  // ---- batch point encoding at N = 1024.
  const size_t kEncodeN = 1024;
  std::vector<Point> points;
  points.reserve(kEncodeN);
  for (size_t i = 0; i < kEncodeN; i++) {
    points.push_back(table.Mul(ks[i % ks.size()]));
  }
  t0 = Clock::now();
  Bytes looped;
  looped.reserve(kEncodeN * Point::kEncodedSize);
  for (const Point& p : points) {
    Bytes one = p.Encode();
    looped.insert(looped.end(), one.begin(), one.end());
  }
  double loop_s = SecondsSince(t0);
  t0 = Clock::now();
  Bytes batched = EncodePoints(points);
  double batch_s = SecondsSince(t0);
  ATOM_CHECK(batched == looped);  // byte-identical fast path
  double encode_speedup = loop_s / batch_s;
  std::printf("encode x%zu: loop %.2f ms, batch %.2f ms -> %.2fx\n",
              kEncodeN, 1e3 * loop_s, 1e3 * batch_s, encode_speedup);
  json.Num("encode_batch_n", static_cast<double>(kEncodeN));
  json.Num("encode_loop_ms", 1e3 * loop_s);
  json.Num("encode_batch_ms", 1e3 * batch_s);
  json.Num("encode_batch_speedup", encode_speedup);

  return MeasureMsm(json, smoke, points, ks);
}

// The ReEnc relation checked one scalar multiplication at a time (two
// BaseMuls, five Muls) — how each proof was verified before batching.
bool IndependentVerifyReEnc(const Point& server_pk, const Point* next_pk,
                            const ElGamalCiphertext& input,
                            const ElGamalCiphertext& output,
                            const ReEncProof& proof) {
  ElGamalCiphertext in = input;
  if (in.YIsNull()) {
    in.y = in.r;
    in.r = Point::Infinity();
  }
  if (!(output.y == in.y)) {
    return false;
  }
  Transcript t("atom/reenc-proof/v1");
  t.AppendPoint("server_pk", server_pk);
  t.AppendPoint("next_pk", next_pk != nullptr ? *next_pk : Point::Infinity());
  t.AppendU64("has_next", next_pk != nullptr ? 1 : 0);
  for (const auto& [label, point] :
       {std::pair{"in.r", in.r}, {"in.c", in.c}, {"in.y", in.y},
        {"out.r", output.r}, {"out.c", output.c}, {"out.y", output.y},
        {"a1", proof.a1}, {"a2", proof.a2}, {"a3", proof.a3}}) {
    t.AppendPoint(label, point);
  }
  const Scalar e = t.ChallengeScalar("e");
  Point lhs = in.y.Mul(proof.zx).Neg();
  if (next_pk != nullptr) {
    lhs = lhs + next_pk->Mul(proof.zr);
  }
  return Point::BaseMul(proof.zx) == proof.a1 + server_pk.Mul(e) &&
         Point::BaseMul(proof.zr) == proof.a2 + (output.r - in.r).Mul(e) &&
         lhs == proof.a3 + (output.c - in.c).Mul(e);
}

// NIZK verification at mix_nizk's shape: a ReEnc sub-batch of 3 proofs
// (one 3-point message) and VerifyShuffle at n = 2, l = 3. Gates: the
// batched check costs at most half of independent per-relation checks per
// proof, and no more per proof than the per-proof (batch-of-one) API.
bool MeasureNizk(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e5});
  auto server = ElGamalKeyGen(rng);
  auto next = ElGamalKeyGen(rng);
  constexpr size_t kSub = 3;
  std::vector<ElGamalCiphertext> ins, outs;
  std::vector<ReEncProof> proofs;
  for (size_t i = 0; i < kSub; i++) {
    Point m = Point::BaseMul(Scalar::Random(rng));
    ins.push_back(ElGamalEncrypt(server.pk, m, rng));
    Scalar rewrap;
    outs.push_back(ElGamalReEnc(server.sk, &next.pk, ins.back(), rng,
                                &rewrap));
    proofs.push_back(MakeReEncProof(server.sk, server.pk, &next.pk,
                                    ins.back(), outs.back(), rewrap, rng));
  }
  const int reps = smoke ? 7 : 21;
  Spread independent, single, batched;
  bool verdicts = true;
  for (int r = 0; r < reps; r++) {
    independent.Time([&] {
      for (size_t i = 0; i < kSub; i++) {
        verdicts &= IndependentVerifyReEnc(server.pk, &next.pk, ins[i],
                                           outs[i], proofs[i]);
      }
    });
    single.Time([&] {
      for (size_t i = 0; i < kSub; i++) {
        verdicts &= VerifyReEncProof(server.pk, &next.pk, ins[i], outs[i],
                                     proofs[i]);
      }
    });
    batched.Time([&] {
      verdicts &= VerifyReEncProofBatch(server.pk, &next.pk, ins, outs,
                                        proofs);
    });
  }
  ATOM_CHECK(verdicts);
  const double per = 1e6 / kSub;
  const bool halves = 2 * batched.Median() <= independent.Median();
  const bool beats_single =
      batched.Median() <= single.Median() + single.Iqr();
  std::printf("reenc verify, sub-batch of %zu: independent %.0f us/proof, "
              "per-proof API %.0f us/proof, batched %.0f us/proof "
              "-> %.2fx / %.2fx%s\n",
              kSub, per * independent.Median(), per * single.Median(),
              per * batched.Median(),
              independent.Median() / batched.Median(),
              single.Median() / batched.Median(),
              halves && beats_single ? "" : "  FAIL");
  json.Num("reenc_verify_independent_us", per * independent.Median());
  json.Num("reenc_verify_single_us", per * single.Median());
  json.Num("reenc_verify_batched3_us", per * batched.Median());
  json.Num("reenc_verify_batched3_iqr_us", per * batched.Iqr());

  CiphertextBatch batch(2);
  for (auto& vec : batch) {
    for (size_t c = 0; c < 3; c++) {
      vec.push_back(ElGamalEncrypt(server.pk,
                                   Point::BaseMul(Scalar::Random(rng)), rng));
    }
  }
  ShuffleResult shuffled = ShuffleAndProve(server.pk, batch, rng);
  Spread verify;
  for (int r = 0; r < reps; r++) {
    verify.Time([&] {
      verdicts &= VerifyShuffle(server.pk, batch, shuffled.output,
                                shuffled.proof);
    });
  }
  ATOM_CHECK(verdicts);
  std::printf("VerifyShuffle n=2 l=3: %.2f ms (IQR %.2f)\n",
              1e3 * verify.Median(), 1e3 * verify.Iqr());
  json.Num("shuffle_verify_n2_l3_ms", 1e3 * verify.Median());
  json.Num("shuffle_verify_n2_l3_iqr_ms", 1e3 * verify.Iqr());
  return halves && beats_single;
}

// The entry tier's per-submission work at the `ingest` shape (160-byte trap
// submissions, seven points per vector), interleaved so drift hits every
// row alike:
//   - Encode of a point decoded from the wire (affine at rest, no
//     inversion) vs a Jacobian arithmetic result (one inversion), each
//     timed over kEncodes points per sample,
//   - VerifyTrapSubmission on a decoded submission (the gateway's check),
//   - EncodeTrapSubmission and SchnorrSign + Encode (the client's cost).
// Gate: a decoded point's Encode costs at most a tenth of a Jacobian one.
bool MeasureIngress(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e6});
  const Point entry_pk = RunDkg(DkgParams{3, 3}, rng).pub.group_pk;
  const Point trustee_pk = RunDkg(DkgParams{3, 3}, rng).pub.group_pk;
  const MessageLayout layout = LayoutFor(Variant::kTrap, 160);
  const Bytes message = rng.NextBytes(160);
  TrapSubmission submission = MakeTrapSubmission(
      entry_pk, 1, trustee_pk, BytesView(message), layout, rng);
  const Bytes wire = EncodeTrapSubmission(submission);
  const TrapSubmission decoded = *DecodeTrapSubmission(BytesView(wire));
  const SchnorrKeypair client = SchnorrKeyGen(rng);

  constexpr size_t kEncodes = 64;
  std::vector<Point> jacobian, from_wire;
  for (size_t i = 0; i < kEncodes; i++) {
    jacobian.push_back(Point::BaseMul(Scalar::Random(rng)));
    from_wire.push_back(*Point::Decode(BytesView(jacobian.back().Encode())));
  }

  const int reps = smoke ? 9 : 31;
  Spread enc_decoded, enc_jacobian, verify, encode_sub, sign;
  bool verdicts = true;
  for (int r = 0; r < reps; r++) {
    enc_decoded.Time([&] {
      for (const Point& p : from_wire) {
        benchmark::DoNotOptimize(p.Encode());
      }
    });
    enc_jacobian.Time([&] {
      for (const Point& p : jacobian) {
        benchmark::DoNotOptimize(p.Encode());
      }
    });
    verify.Time(
        [&] { verdicts &= VerifyTrapSubmission(entry_pk, decoded, layout); });
    encode_sub.Time(
        [&] { benchmark::DoNotOptimize(EncodeTrapSubmission(submission)); });
    sign.Time([&] {
      benchmark::DoNotOptimize(
          SchnorrSign(client.sk, client.pk, BytesView(wire), rng).Encode());
    });
  }
  ATOM_CHECK(verdicts);
  const double per_encode = 1e6 / kEncodes;
  const bool encode_ok = 10 * enc_decoded.Median() <= enc_jacobian.Median();
  std::printf("Encode: decoded point %.2f us (IQR %.2f), Jacobian point "
              "%.2f us (IQR %.2f) -> %.0fx%s\n",
              per_encode * enc_decoded.Median(),
              per_encode * enc_decoded.Iqr(),
              per_encode * enc_jacobian.Median(),
              per_encode * enc_jacobian.Iqr(),
              enc_jacobian.Median() / enc_decoded.Median(),
              encode_ok ? "" : "  FAIL: decoded Encode above 1/10");
  std::printf("VerifyTrapSubmission (decoded, 160 B, %zu points/vector): "
              "%.2f ms (IQR %.2f)\n",
              layout.num_points, 1e3 * verify.Median(), 1e3 * verify.Iqr());
  std::printf("EncodeTrapSubmission: %.0f us (IQR %.0f)\n",
              1e6 * encode_sub.Median(), 1e6 * encode_sub.Iqr());
  std::printf("SchnorrSign + Encode: %.0f us (IQR %.0f)\n",
              1e6 * sign.Median(), 1e6 * sign.Iqr());
  json.Num("encode_decoded_us", per_encode * enc_decoded.Median());
  json.Num("encode_decoded_iqr_us", per_encode * enc_decoded.Iqr());
  json.Num("encode_jacobian_us", per_encode * enc_jacobian.Median());
  json.Num("encode_jacobian_iqr_us", per_encode * enc_jacobian.Iqr());
  json.Num("verify_trap_submission_ms", 1e3 * verify.Median());
  json.Num("verify_trap_submission_iqr_ms", 1e3 * verify.Iqr());
  json.Num("encode_trap_submission_us", 1e6 * encode_sub.Median());
  json.Num("encode_trap_submission_iqr_us", 1e6 * encode_sub.Iqr());
  json.Num("schnorr_sign_encode_us", 1e6 * sign.Median());
  json.Num("schnorr_sign_encode_iqr_us", 1e6 * sign.Iqr());
  return encode_ok;
}

}  // namespace
}  // namespace atom

int main(int argc, char** argv) {
  using namespace atom;
  bool smoke = false;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; i++) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      bench_argv.push_back(argv[i]);  // keep benchmark's own flags intact
    }
  }
  std::printf("Table 3 reproduction: cryptographic primitive latencies.\n");
  std::printf("Paper (Go, c4.xlarge): Enc 140us, ReEnc 335us, "
              "Shuffle(1024) 107ms,\n  EncProof 162/139us, "
              "ReEncProof 655/446us, ShufProof(1024) 757/1410ms.\n\n");
  bool gates_ok = true;
  {
    BenchJson json("bench_table3_primitives");
    json.Bool("smoke", smoke);
    gates_ok &= MeasureField(json, smoke);
    gates_ok &= MeasurePointOps(json, smoke);
    gates_ok &= MeasureHotPath(json, smoke);
    gates_ok &= MeasureNizk(json, smoke);
    gates_ok &= MeasureIngress(json, smoke);
    json.Bool("gates_ok", gates_ok);
  }  // write the JSON before the (skippable) google-benchmark table
  if (!smoke) {
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return gates_ok ? 0 : 1;
}
