#include "perfbench/src/checks.h"

#include <algorithm>

namespace perfbench {

std::string CheckRound(const atom::RoundResult& result,
                       const std::vector<atom::Bytes>& messages,
                       atom::Variant variant) {
  if (result.aborted) {
    return "round aborted: " + result.abort_reason;
  }
  std::vector<atom::Bytes> got = result.plaintexts;
  std::vector<atom::Bytes> want = messages;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) {
    return "plaintexts differ from the submitted messages (" +
           std::to_string(got.size()) + " out, " +
           std::to_string(want.size()) + " in)";
  }
  if (variant == atom::Variant::kTrap &&
      (result.traps_seen != messages.size() ||
       result.inner_seen != messages.size())) {
    return "trap accounting: " + std::to_string(result.traps_seen) +
           " traps and " + std::to_string(result.inner_seen) +
           " inner ciphertexts for " + std::to_string(messages.size()) +
           " submissions";
  }
  return "";
}

std::string CheckIdentical(const atom::RoundResult& got,
                           const atom::RoundResult& reference) {
  if (got.aborted != reference.aborted ||
      got.abort_reason != reference.abort_reason) {
    return "abort state differs from the in-process reference";
  }
  if (got.plaintexts != reference.plaintexts) {
    return "plaintexts differ from the in-process reference";
  }
  if (got.traps_seen != reference.traps_seen ||
      got.inner_seen != reference.inner_seen) {
    return "trap accounting differs from the in-process reference";
  }
  return "";
}

std::string CheckDrainedEpoch(const atom::EngineRound& spec,
                              const std::vector<size_t>& per_group) {
  if (spec.entry.size() != per_group.size() || !spec.exit.has_value() ||
      spec.exit->commitments.size() != per_group.size()) {
    return "drained epoch has the wrong number of entry groups";
  }
  for (size_t g = 0; g < per_group.size(); g++) {
    if (spec.entry[g].size() != 2 * per_group[g] ||
        spec.exit->commitments[g].size() != per_group[g]) {
      return "entry group " + std::to_string(g) + " drained " +
             std::to_string(spec.exit->commitments[g].size()) +
             " submissions, " + std::to_string(per_group[g]) + " admitted";
    }
  }
  return "";
}

}  // namespace perfbench
