// Output checks applied to every round and every ingest epoch a run
// produces. Each returns an empty string when the output is correct and
// a one-line reason otherwise; any reason fails the run.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/exit.h"

namespace perfbench {

// The round completed, its plaintext multiset equals the submitted
// messages, and (trap variant) every trap and every inner ciphertext
// came back exactly once.
std::string CheckRound(const atom::RoundResult& result,
                       const std::vector<atom::Bytes>& messages,
                       atom::Variant variant);

// `got` is byte-identical to `reference`: same abort state, the same
// plaintexts in the same order, the same trap accounting.
std::string CheckIdentical(const atom::RoundResult& got,
                           const atom::RoundResult& reference);

// A drained intake epoch holds exactly per_group[g] submissions in entry
// group g (two ciphertext vectors and one trap commitment each).
std::string CheckDrainedEpoch(const atom::EngineRound& spec,
                              const std::vector<size_t>& per_group);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
