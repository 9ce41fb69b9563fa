#include "src/core/group_runtime.h"

#include <chrono>

#include "src/util/parallel.h"

namespace atom {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Tampers one ciphertext component in place (the malicious transformation:
// replace the payload with a related one, which is exactly what the NIZK /
// trap machinery must detect).
void Maul(ElGamalCiphertext* ct) {
  ct->c = ct->c + Point::Generator();
}

}  // namespace

GroupRuntime::GroupRuntime(uint32_t gid, DkgResult dkg)
    : gid_(gid),
      dkg_(std::move(dkg)),
      pk_table_(std::make_shared<const FixedBaseTable>(dkg_.pub.group_pk)) {
  alive_.assign(dkg_.pub.params.k, true);
}

void GroupRuntime::MarkFailed(uint32_t server_index) {
  ATOM_CHECK(server_index >= 1 && server_index <= alive_.size());
  alive_[server_index - 1] = false;
}

size_t GroupRuntime::AliveCount() const {
  size_t n = 0;
  for (bool a : alive_) {
    n += a ? 1 : 0;
  }
  return n;
}

void GroupRuntime::Restore(const DkgServerKey& key) {
  ATOM_CHECK(key.index >= 1 && key.index <= alive_.size());
  // Only accept a key matching the DKG transcript.
  ATOM_CHECK(Point::BaseMul(key.share) == dkg_.pub.share_pks[key.index - 1]);
  dkg_.keys[key.index - 1] = key;
  alive_[key.index - 1] = true;
}

HopResult GroupRuntime::RunHop(const CiphertextBatch& input,
                               std::span<const Point> next_pks,
                               Variant variant, Rng& rng, size_t workers,
                               const MaliciousAction* evil) const {
  std::vector<FixedBaseTable> tables(next_pks.begin(), next_pks.end());
  std::vector<const FixedBaseTable*> next_tables;
  for (const FixedBaseTable& table : tables) {
    next_tables.push_back(&table);
  }
  return RunHop(input, next_tables, variant, rng, workers, evil);
}

HopResult GroupRuntime::RunHop(
    const CiphertextBatch& input,
    std::span<const FixedBaseTable* const> next_tables, Variant variant,
    Rng& rng, size_t workers, const MaliciousAction* evil) const {
  HopResult result;
  result.stats.messages = input.size();

  const size_t threshold = dkg_.pub.params.threshold;
  std::vector<uint32_t> subset;
  for (uint32_t i = 1; i <= alive_.size() && subset.size() < threshold; i++) {
    if (alive_[i - 1]) {
      subset.push_back(i);
    }
  }
  if (subset.size() < threshold) {
    result.aborted = true;
    result.abort_reason = "too few alive servers in group";
    return result;
  }
  result.stats.participants = subset.size();

  auto evil_here = [&](MaliciousAction::Kind kind, uint32_t server) {
    return evil != nullptr && evil->kind == kind &&
           evil->server_index == server;
  };

  // ---- Phase 1: shuffle chain (Algorithm 1/2, step 1).
  CiphertextBatch batch = input;
  for (uint32_t s : subset) {
    if (variant == Variant::kNizk) {
      auto t0 = Clock::now();
      ShuffleResult shuffled = ShuffleAndProve(pk_table(), batch, rng, workers);
      result.stats.shuffle_seconds += SecondsSince(t0);

      if (evil_here(MaliciousAction::Kind::kTamperDuringShuffle, s)) {
        Maul(&shuffled.output[evil->target_message % shuffled.output.size()][0]);
      }
      if (evil_here(MaliciousAction::Kind::kDuplicateDuringShuffle, s)) {
        size_t t = evil->target_message % shuffled.output.size();
        shuffled.output[t] = shuffled.output[(t + 1) % shuffled.output.size()];
      }

      auto t1 = Clock::now();
      bool ok = VerifyShuffle(pk(), batch, shuffled.output, shuffled.proof,
                              workers);
      result.stats.verify_seconds += SecondsSince(t1);
      if (!ok) {
        result.aborted = true;
        result.abort_reason = "shuffle proof rejected (server " +
                              std::to_string(s) + ")";
        return result;
      }
      batch = std::move(shuffled.output);
    } else {
      auto t0 = Clock::now();
      batch = ShuffleBatch(pk_table(), batch, rng, nullptr, nullptr, workers);
      result.stats.shuffle_seconds += SecondsSince(t0);
      if (evil_here(MaliciousAction::Kind::kTamperDuringShuffle, s)) {
        Maul(&batch[evil->target_message % batch.size()][0]);
      }
      if (evil_here(MaliciousAction::Kind::kDuplicateDuringShuffle, s)) {
        size_t t = evil->target_message % batch.size();
        batch[t] = batch[(t + 1) % batch.size()];
      }
    }
  }

  // ---- Phase 2: divide into β contiguous sub-batches.
  const size_t beta = next_tables.empty() ? 1 : next_tables.size();
  std::vector<CiphertextBatch> batches(beta);
  {
    size_t base = batch.size() / beta, extra = batch.size() % beta;
    size_t off = 0;
    for (size_t b = 0; b < beta; b++) {
      size_t take = base + (b < extra ? 1 : 0);
      batches[b].assign(batch.begin() + static_cast<ptrdiff_t>(off),
                        batch.begin() + static_cast<ptrdiff_t>(off + take));
      off += take;
    }
  }

  // ---- Phase 3: decrypt-and-reencrypt chain (step 3). Each neighbour's
  // table is the rewrap base for its whole sub-batch on every server.
  for (const FixedBaseTable* table : next_tables) {
    ATOM_CHECK(table != nullptr);
  }
  for (size_t si = 0; si < subset.size(); si++) {
    uint32_t s = subset[si];
    Scalar weighted = WeightedShare(dkg_.keys[s - 1], subset);
    Point weighted_pub = WeightedSharePublic(dkg_.pub, s, subset);
    bool last_server = (si + 1 == subset.size());

    for (size_t b = 0; b < beta; b++) {
      const FixedBaseTable* next_table =
          next_tables.empty() ? nullptr : next_tables[b];
      const Point* next = next_table == nullptr ? nullptr : &next_table->base();
      CiphertextBatch& sub = batches[b];

      // Pre-draw randomness serially, then reencrypt in parallel.
      auto t0 = Clock::now();
      std::vector<std::vector<Scalar>> rewrap(sub.size());
      std::vector<std::vector<Scalar>> draws(sub.size());
      for (size_t m = 0; m < sub.size(); m++) {
        draws[m].resize(sub[m].size());
        for (size_t c = 0; c < sub[m].size(); c++) {
          draws[m][c] = Scalar::Random(rng);
        }
      }
      CiphertextBatch out(sub.size());
      ParallelFor(workers, sub.size(), [&](size_t m) {
        out[m].resize(sub[m].size());
        rewrap[m].resize(sub[m].size());
        for (size_t c = 0; c < sub[m].size(); c++) {
          // Deterministic ReEnc with pre-drawn randomness: inline the
          // Appendix-A operation so the parallel path has no shared Rng.
          ElGamalCiphertext cur = sub[m][c];
          if (cur.YIsNull()) {
            cur.y = cur.r;
            cur.r = Point::Infinity();
          }
          cur.c = cur.c - cur.y.Mul(weighted);
          if (next != nullptr) {
            cur.r = cur.r + Point::BaseMul(draws[m][c]);
            cur.c = cur.c + next_table->Mul(draws[m][c]);
            rewrap[m][c] = draws[m][c];
          } else {
            rewrap[m][c] = Scalar::Zero();
          }
          out[m][c] = cur;
        }
      });
      result.stats.reenc_seconds += SecondsSince(t0);

      if (evil_here(MaliciousAction::Kind::kTamperDuringReEnc, s) && b == 0) {
        Maul(&out[evil->target_message % out.size()][0]);
      }

      if (variant == Variant::kNizk) {
        // Prove every component's reencryption (in the Rng order the
        // per-component loop always used: message-major, two draws per
        // proof), then verify the whole sub-batch with one batched check.
        auto t2 = Clock::now();
        std::vector<ElGamalCiphertext> ins, outs;
        std::vector<ReEncProof> proofs;
        for (size_t m = 0; m < sub.size(); m++) {
          for (size_t c = 0; c < sub[m].size(); c++) {
            proofs.push_back(MakeReEncProof(weighted, weighted_pub, next,
                                            sub[m][c], out[m][c],
                                            rewrap[m][c], rng));
            ins.push_back(sub[m][c]);
            outs.push_back(out[m][c]);
          }
        }
        bool ok = VerifyReEncProofBatch(weighted_pub, next, ins, outs, proofs);
        result.stats.verify_seconds += SecondsSince(t2);
        if (!ok) {
          result.aborted = true;
          result.abort_reason = "reencryption proof rejected (server " +
                                std::to_string(s) + ")";
          return result;
        }
      }

      if (last_server) {
        for (auto& vec : out) {
          for (auto& ct : vec) {
            ct = ElGamalFinalizeHop(ct);
          }
        }
      }
      sub = std::move(out);
    }
  }

  result.batches = std::move(batches);
  return result;
}

std::optional<std::vector<std::vector<Point>>> ExitPlaintexts(
    const CiphertextBatch& exit_batch) {
  // Every plaintext point is read back through ExtractMessage: normalize
  // the whole batch with one shared inversion so each read is free.
  std::vector<Point> points;
  for (const auto& vec : exit_batch) {
    for (const auto& ct : vec) {
      auto m = ElGamalDecrypt(Scalar::Zero(), ct);
      if (!m.has_value()) {
        return std::nullopt;
      }
      points.push_back(*m);
    }
  }
  Point::NormalizeBatch(points);
  std::vector<std::vector<Point>> out;
  out.reserve(exit_batch.size());
  auto next = points.begin();
  for (const auto& vec : exit_batch) {
    out.emplace_back(next, next + static_cast<ptrdiff_t>(vec.size()));
    next += static_cast<ptrdiff_t>(vec.size());
  }
  return out;
}

}  // namespace atom
