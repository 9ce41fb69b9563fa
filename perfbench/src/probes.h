// The crypto ladder probes and the cost-model comparison.
//
// Each rung is timed through its public function on workload-shaped
// inputs: several repetitions of a batch, the median per-operation time
// reported. The probe timings also calibrate a src/sim CostModel, whose
// EstimateRound prediction the workloads compare against what they
// measured (model.round_err_pct).
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstddef>

#include "perfbench/src/inputs.h"
#include "src/sim/costmodel.h"

namespace perfbench {

struct ProbeResults {
  // Reported rungs.
  double field_mul_ns = 0;       // FieldP().Mul
  double var_mul_us = 0;         // Point::Mul
  double base_mul_us = 0;        // Point::BaseMul
  double schnorr_batch_us_per_sig = 0;  // SchnorrVerifyBatch / signatures
  double reenc_us = 0;           // ElGamalReEnc, one component
  double shuffle_prove_ms = 0;   // ShuffleAndProve at mix_nizk's batch
  double shuffle_verify_ms = 0;  // VerifyShuffle at mix_nizk's batch
  double kem_decrypt_us = 0;     // KemDecrypt of a 160-byte message
  // Every probed signature batch, shuffle proof and KEM ciphertext
  // verified or decrypted (false fails the run).
  bool verified = true;
  // Calibration-only rungs (per operation, one component).
  double enc_us = 0;
  double enc_prove_us = 0;
  double enc_verify_us = 0;
  double reenc_prove_us = 0;
  double reenc_verify_us = 0;
  double shuffle_per_msg_us = 0;

  // Per-operation costs in the CostModel's units (seconds, one component).
  atom::CostModel Calibrated() const;
};

ProbeResults RunProbes(uint64_t seed);

// GroupRuntime::RunHop of group 0 on one layer-0 hop of `shape` (the
// per-group batch of one round), median over repetitions, milliseconds.
double ProbeHopMs(atom::Round& round, const MixShape& shape, uint64_t seed);

// EstimateRound's prediction for one round of `shape` on a uniform
// network of shape.groups * shape.group_size hosts with `cores` cores
// each, seconds.
double PredictRoundSeconds(const MixShape& shape,
                           const atom::CostModel& costs, size_t cores);

// The model's entry-phase charge for verifying one trap submission of
// `message_len` bytes (both ciphertext vectors), microseconds.
double PredictVerifyUsPerSub(size_t message_len,
                             const atom::CostModel& costs);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
