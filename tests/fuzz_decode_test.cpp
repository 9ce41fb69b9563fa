// Seeded fuzz sweep over the wire decoders that face untrusted bytes:
// protocol envelopes (DecodeEnvelope), driver control frames
// (kBeginRound and the client-facing kRoundOpen/kRoundCutoff notices),
// registry snapshots (DecodeRegistrySync), and signed client submissions
// (DecodeSubmit). Every decoder must treat arbitrary mutations of a
// valid frame — truncations, bit flips, inflated length prefixes, pure
// garbage — as a clean std::nullopt: no crash, no assertion, and no
// attacker-controlled allocation (the CI runs this under ASan, where an
// inflated-count allocation blows the rss limit instead of hiding).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "src/core/directory.h"
#include "src/core/wire.h"
#include "src/net/control.h"
#include "src/net/gateway.h"
#include "src/net/registry.h"
#include "src/util/rng.h"
#include "tests/seed_echo.h"

namespace atom {
namespace {

using atom_test::SeedEcho;
using atom_test::TestSeed;

// Largest single heap allocation since the last reset (this binary
// replaces the global operator new, below). A decoder that sizes a
// container from an unchecked count shows up here even when the
// allocation succeeds, which a ~100 MB one does outside sanitizers.
std::atomic<size_t> g_largest_alloc{0};

// One decoder under test: name for diagnostics, a pristine frame its
// decoder accepts, and the decode entry point reduced to "did it parse".
struct Target {
  std::string name;
  Bytes valid;
  std::function<bool(BytesView)> decode;
};

std::vector<Target> BuildTargets(Rng& rng) {
  std::vector<Target> targets;

  // Protocol envelope carrying a ciphertext batch (kHopBatch).
  {
    Envelope env;
    env.to_server = 3;
    env.round_id = 7;
    env.msg.type = NodeMsg::Type::kHopBatch;
    env.msg.gid = 2;
    env.msg.layer = 1;
    env.msg.src_gid = 4;
    Scalar sk = Scalar::Random(rng);
    Point pk = Point::BaseMul(sk);
    std::vector<Point> msgs = {Point::Generator(), pk};
    env.msg.batch.push_back(ElGamalEncryptVec(pk, msgs, rng));
    targets.push_back({"envelope", EncodeEnvelope(env), [](BytesView b) {
                         return DecodeEnvelope(b).has_value();
                       }});

    // Coalesced kEnvelopeBundle frame carrying one envelope of every
    // other message type, so every body shape is exercised.
    std::vector<Envelope> bundle = {env};
    for (NodeMsg::Type type :
         {NodeMsg::Type::kExitBuckets, NodeMsg::Type::kExitReport,
          NodeMsg::Type::kExitPlain, NodeMsg::Type::kAbort}) {
      Envelope next;
      next.to_server = 3;
      next.round_id = 7;
      next.msg.type = type;
      next.msg.gid = 1;
      bundle.push_back(std::move(next));
    }
    bundle[1].msg.exit_traps = {Bytes{1, 2, 3}};
    bundle[1].msg.exit_inner = {Bytes{4, 5}, Bytes{6}};
    bundle[2].msg.report = GroupReport{1, true, true, 2, 3};
    bundle[2].msg.exit_inner = {Bytes{7}};
    bundle[3].msg.exit_inner = {Bytes{8, 9}};
    bundle[4].msg.abort_reason = "stop";
    targets.push_back({"envelope_bundle", EncodeEnvelopeBundle(bundle),
                       [](BytesView b) {
                         return DecodeEnvelopeBundle(b).has_value();
                       }});
  }

  // kBeginRound with a full round spec (adjacency, hosts, commitments).
  {
    std::array<uint8_t, 32> root{};
    for (size_t i = 0; i < root.size(); i++) {
      root[i] = static_cast<uint8_t>(rng.NextU64());
    }
    WireRoundSpec spec;
    spec.variant = 1;
    spec.layers = 2;
    spec.width = 2;
    spec.hop_workers = 2;
    spec.adjacency = {{{0, 1}, {0, 1}}};
    spec.hosts = {1, 2};
    spec.group_pks = {Point::Generator(), Point::Generator()};
    spec.plaintext_len = 64;
    spec.padded_len = 66;
    spec.num_points = 3;
    spec.commitments.resize(2);
    spec.commitments[0].push_back({});
    targets.push_back({"begin_round",
                       EncodeBeginRound(12, 43, root, spec),
                       [](BytesView b) {
                         return DecodeBeginRound(b).has_value();
                       }});
  }

  // kRoundOpen / kRoundCutoff share the round-notice body.
  targets.push_back({"round_notice", EncodeRoundNotice(99), [](BytesView b) {
                       return DecodeRoundNotice(b).has_value();
                     }});

  // Registry snapshot with a handful of records.
  {
    std::vector<ClientRecord> records;
    for (uint64_t id = 1; id <= 4; id++) {
      ClientRecord record;
      record.client_id = 1000 + id;
      record.pk = Point::BaseMul(Scalar::Random(rng));
      records.push_back(record);
    }
    targets.push_back({"registry_sync", EncodeRegistrySync(5, records),
                       [](BytesView b) {
                         return DecodeRegistrySync(b).has_value();
                       }});
  }

  // Signed kSubmit frame (seq + submission bytes + Schnorr signature).
  {
    Scalar sk = Scalar::Random(rng);
    Point pk = Point::BaseMul(sk);
    Bytes submission(96);
    for (size_t i = 0; i < submission.size(); i++) {
      submission[i] = static_cast<uint8_t>(rng.NextU64());
    }
    SchnorrSignature sig =
        SchnorrSign(sk, pk, BytesView(SubmissionSigMessage(
                                BytesView(submission))), rng);
    targets.push_back({"submit_signed",
                       EncodeSubmitSigned(17, BytesView(submission), sig),
                       [](BytesView b) {
                         return DecodeSubmit(b).has_value();
                       }});
  }

  // Gateway welcome (the richest client-facing frame).
  {
    GatewayWelcome welcome;
    welcome.credit = 32;
    welcome.variant = 1;
    welcome.plaintext_len = 64;
    welcome.padded_len = 66;
    welcome.num_points = 3;
    welcome.entry_pks = {Point::Generator(),
                         Point::BaseMul(Scalar::Random(rng))};
    welcome.trustee_pk = Point::Generator();
    welcome.open_round = 9;
    targets.push_back({"welcome", EncodeWelcome(welcome), [](BytesView b) {
                         return DecodeWelcome(b).has_value();
                       }});
  }

  return targets;
}

TEST(FuzzDecode, PristineFramesParse) {
  const uint64_t seed = TestSeed(0xf022d);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    EXPECT_TRUE(t.decode(BytesView(t.valid))) << t.name;
    EXPECT_FALSE(t.decode(BytesView())) << t.name << " accepted empty";
  }
}

TEST(FuzzDecode, EveryTruncationIsRejectedOrParses) {
  // A strict prefix must never crash; for these frames it must also
  // never parse (every codec is length-delimited end to end).
  const uint64_t seed = TestSeed(0xf022e);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    const size_t n = t.valid.size();
    // Exhaustive for small frames, strided for the big envelope/spec.
    const size_t step = n > 2048 ? 37 : 1;
    for (size_t len = 0; len < n; len += step) {
      Bytes prefix(t.valid.begin(), t.valid.begin() + len);
      EXPECT_FALSE(t.decode(BytesView(prefix)))
          << t.name << " accepted a " << len << "/" << n << " prefix";
    }
  }
}

TEST(FuzzDecode, BitFlipSweepNeverCrashes) {
  const uint64_t seed = TestSeed(0xf022f);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    for (int iter = 0; iter < 400; iter++) {
      Bytes mutated = t.valid;
      // 1-4 independent bit flips.
      const int flips = 1 + static_cast<int>(rng.NextU64() % 4);
      for (int f = 0; f < flips; f++) {
        const size_t pos = rng.NextU64() % mutated.size();
        mutated[pos] ^= static_cast<uint8_t>(1u << (rng.NextU64() % 8));
      }
      t.decode(BytesView(mutated));  // must not crash / trip sanitizers
    }
  }
}

TEST(FuzzDecode, InflatedLengthWordsAreRejectedWithoutBlowup) {
  // Overwrite every aligned 4-byte word with 0xFFFFFFFF — whichever of
  // them is a count or length prefix now claims ~4 billion elements.
  // The decoders cap counts against the remaining bytes BEFORE
  // allocating, so each call must return (almost always nullopt, never
  // an OOM) — under ASan an eager reserve() would abort the test.
  const uint64_t seed = TestSeed(0xf0230);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    for (size_t off = 0; off + 4 <= t.valid.size(); off += 4) {
      Bytes mutated = t.valid;
      std::memset(mutated.data() + off, 0xFF, 4);
      t.decode(BytesView(mutated));
    }
    // And the classic: a plausible header followed by nothing. (Skip
    // frames of <= 16 bytes — the "header" would be the whole frame,
    // and e.g. an all-0xFF round id still decodes legitimately.)
    if (t.valid.size() > 16) {
      Bytes header(t.valid.begin(), t.valid.begin() + 16);
      for (size_t off = 0; off + 4 <= header.size(); off += 4) {
        Bytes mutated = header;
        std::memset(mutated.data() + off, 0xFF, 4);
        EXPECT_FALSE(t.decode(BytesView(mutated))) << t.name << " @" << off;
      }
    }
    // Counts at the decoders' fixed caps (2^16 components or proofs, 2^22
    // batch vectors) pass the cap but not a check against the bytes left.
    // Written at every byte offset, so each count field is hit whatever
    // its alignment; no decode may allocate far beyond its frame.
    for (uint32_t count : {1u << 16, 1u << 22}) {
      for (size_t off = 0; off + 4 <= t.valid.size(); off++) {
        Bytes mutated = t.valid;
        for (int i = 0; i < 4; i++) {
          mutated[off + i] = static_cast<uint8_t>(count >> (8 * i));
        }
        g_largest_alloc.store(0);
        t.decode(BytesView(mutated));
        EXPECT_LE(g_largest_alloc.load(), size_t{1} << 20)
            << t.name << " @" << off << " count " << count;
      }
    }
  }
}

TEST(FuzzDecode, RandomGarbageIsRejected) {
  const uint64_t seed = TestSeed(0xf0231);
  SeedEcho echo(seed);
  Rng rng(seed);
  std::vector<Target> targets = BuildTargets(rng);
  for (int iter = 0; iter < 300; iter++) {
    Bytes garbage(1 + rng.NextU64() % 512);
    for (size_t i = 0; i < garbage.size(); i++) {
      garbage[i] = static_cast<uint8_t>(rng.NextU64());
    }
    for (const Target& t : targets) {
      // Random bytes decoding as a valid point/signature chain is
      // cryptographically negligible; treat any accept as a bug.
      EXPECT_FALSE(t.decode(BytesView(garbage)))
          << t.name << " accepted garbage (iter " << iter << ")";
    }
  }
}

TEST(FuzzDecode, RegistrySyncCountCapHolds) {
  // Craft a sync frame whose count field claims kMaxRegistrySyncRecords
  // + 1 records with a one-record body: must reject before allocating.
  const uint64_t seed = TestSeed(0xf0232);
  SeedEcho echo(seed);
  Rng rng(seed);
  ClientRecord record;
  record.client_id = 1;
  record.pk = Point::BaseMul(Scalar::Random(rng));
  Bytes frame = EncodeRegistrySync(1, std::vector<ClientRecord>{record});
  // Layout: u64 seq || u32 count (little-endian) || records.
  const uint32_t huge = kMaxRegistrySyncRecords + 1;
  for (int i = 0; i < 4; i++) {
    frame[8 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  EXPECT_FALSE(DecodeRegistrySync(BytesView(frame)).has_value());
}

TEST(FuzzDecode, EnvelopeBundleCountCapHolds) {
  // A bundle whose leading count claims ~1 billion envelopes over a
  // one-envelope body must be rejected before any reserve: the decoder
  // caps the count against remaining()/4 (each entry costs at least a
  // 4-byte length prefix).
  const uint64_t seed = TestSeed(0xf0233);
  SeedEcho echo(seed);
  Rng rng(seed);
  Envelope env;
  env.to_server = 1;
  env.round_id = 2;
  env.msg.type = NodeMsg::Type::kAbort;
  env.msg.gid = 0;
  env.msg.abort_reason = "x";
  Bytes frame = EncodeEnvelopeBundle({env});
  // Layout: u32 count (little-endian) || length-prefixed envelopes.
  const uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; i++) {
    frame[i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  EXPECT_FALSE(DecodeEnvelopeBundle(BytesView(frame)).has_value());

  // An empty bundle is malformed too: coalescing never ships zero
  // envelopes, so a zero count is an attacker frame, not a no-op.
  Bytes empty(4, 0);
  EXPECT_FALSE(DecodeEnvelopeBundle(BytesView(empty)).has_value());

  // Trailing garbage after the declared envelopes must reject (decode
  // requires full consumption, like every other frame body).
  Bytes padded = EncodeEnvelopeBundle({env});
  padded.push_back(0);
  EXPECT_FALSE(DecodeEnvelopeBundle(BytesView(padded)).has_value());
}

}  // namespace
}  // namespace atom

void* operator new(std::size_t size) {
  size_t prev = atom::g_largest_alloc.load(std::memory_order_relaxed);
  while (size > prev && !atom::g_largest_alloc.compare_exchange_weak(
                            prev, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression it treats as operator new's.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
