#include "src/crypto/dkg.h"

#include <algorithm>
#include <set>

namespace atom {

DkgDealing MakeDealing(uint32_t dealer, const DkgParams& params, Rng& rng,
                       uint32_t corrupt_share_for) {
  ATOM_CHECK(params.threshold >= 1 && params.threshold <= params.k);
  Scalar secret = Scalar::Random(rng);
  FeldmanDealing feldman =
      FeldmanDeal(secret, params.threshold, params.k, rng);
  DkgDealing out;
  out.dealer = dealer;
  out.commitments = std::move(feldman.commitments);
  out.shares = std::move(feldman.shares);
  if (corrupt_share_for != 0) {
    ATOM_CHECK(corrupt_share_for <= params.k);
    Share& victim = out.shares[corrupt_share_for - 1];
    victim.value = victim.value + Scalar::One();
  }
  return out;
}

std::vector<DkgComplaint> VerifyDealings(
    uint32_t participant, const DkgParams& params,
    std::span<const DkgDealing> dealings) {
  std::vector<DkgComplaint> complaints;
  for (const DkgDealing& dealing : dealings) {
    if (dealing.commitments.size() != params.threshold ||
        dealing.shares.size() != params.k) {
      complaints.push_back(DkgComplaint{participant, dealing.dealer});
      continue;
    }
    const Share& mine = dealing.shares[participant - 1];
    if (mine.index != participant ||
        !FeldmanVerifyShare(dealing.commitments, mine)) {
      complaints.push_back(DkgComplaint{participant, dealing.dealer});
    }
  }
  return complaints;
}

DkgResult AggregateDkg(const DkgParams& params,
                       std::span<const DkgDealing> dealings,
                       std::span<const DkgComplaint> complaints) {
  std::set<uint32_t> bad;
  for (const DkgComplaint& c : complaints) {
    bad.insert(c.dealer);
  }

  DkgResult result;
  result.pub.params = params;
  result.pub.group_pk = Point::Infinity();
  result.pub.disqualified.assign(bad.begin(), bad.end());
  result.pub.share_pks.assign(params.k, Point::Infinity());
  result.keys.resize(params.k);
  for (uint32_t i = 1; i <= params.k; i++) {
    result.keys[i - 1].index = i;
    result.keys[i - 1].share = Scalar::Zero();
  }

  size_t qualified = 0;
  for (const DkgDealing& dealing : dealings) {
    if (bad.contains(dealing.dealer)) {
      continue;
    }
    qualified++;
    result.pub.group_pk =
        result.pub.group_pk + FeldmanPublicKey(dealing.commitments);
    for (uint32_t i = 1; i <= params.k; i++) {
      result.keys[i - 1].share =
          result.keys[i - 1].share + dealing.shares[i - 1].value;
      result.pub.share_pks[i - 1] =
          result.pub.share_pks[i - 1] +
          FeldmanSharePublic(dealing.commitments, i);
    }
  }
  // An anytrust group always contains at least one honest dealer, so at
  // least one dealing must survive.
  ATOM_CHECK_MSG(qualified > 0, "all DKG dealings disqualified");
  // Affine at rest: group and trustee keys are encoded into every proof
  // transcript and wire spec for the group's lifetime.
  Point::NormalizeBatch(std::span<Point>(&result.pub.group_pk, 1));
  return result;
}

DkgResult RunDkg(const DkgParams& params, Rng& rng,
                 std::span<const uint32_t> cheating_dealers) {
  std::vector<DkgDealing> dealings;
  dealings.reserve(params.k);
  for (uint32_t d = 1; d <= params.k; d++) {
    bool cheats = std::find(cheating_dealers.begin(), cheating_dealers.end(),
                            d) != cheating_dealers.end();
    // A cheating dealer corrupts the share for its successor participant.
    uint32_t victim = cheats ? (d % params.k) + 1 : 0;
    dealings.push_back(MakeDealing(d, params, rng, victim));
  }
  std::vector<DkgComplaint> complaints;
  for (uint32_t p = 1; p <= params.k; p++) {
    auto mine = VerifyDealings(p, params, dealings);
    complaints.insert(complaints.end(), mine.begin(), mine.end());
  }
  return AggregateDkg(params, dealings, complaints);
}

}  // namespace atom
