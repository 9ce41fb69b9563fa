// Wire encodings for everything that crosses a process boundary: client
// submissions uploaded to an entry group, the inter-server envelopes of
// distributed engine rounds, and DKG setup gossip. Decoding validates
// structure (point/scalar well-formedness comes from the underlying
// Decode routines) and bounds every count against the bytes present, so a
// malformed or hostile frame is rejected before any proof verification or
// large allocation.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/trustees.h"
#include "src/crypto/shuffle.h"

namespace atom {

Bytes EncodeNizkSubmission(const NizkSubmission& submission);
std::optional<NizkSubmission> DecodeNizkSubmission(BytesView bytes);

Bytes EncodeTrapSubmission(const TrapSubmission& submission);
std::optional<TrapSubmission> DecodeTrapSubmission(BytesView bytes);

// One inter-server message of a distributed engine round
// (src/net/round_driver.h, src/net/node_process.h). A server hosting a
// topology group executes whole group hops (GroupRuntime::RunHop), so
// overlapping rounds flow between processes as round-tagged envelopes.
struct NodeMsg {
  enum class Type : uint8_t {
    kAbort,        // the round cannot complete; abort_reason says why
    kHopBatch,     // one sub-batch for hop (layer, gid) from group src_gid;
                   // the driver injects layer 0 with src_gid 0
    kExitBuckets,  // exit sort output: group src_gid's trap/inner buckets
                   // destined for group gid's §4.4 check
    kExitReport,   // dest group gid's GroupReport + gathered inner cts
    kExitPlain,    // NIZK exit: group gid's decoded plaintexts
  };

  Type type = Type::kHopBatch;
  uint32_t gid = 0;
  uint32_t layer = 0;    // kHopBatch: the hop's layer
  uint32_t src_gid = 0;  // kHopBatch/kExitBuckets: the sending group

  CiphertextBatch batch;          // kHopBatch
  std::vector<Bytes> exit_traps;  // kExitBuckets: trap bucket for gid
  std::vector<Bytes> exit_inner;  // kExitBuckets: inner bucket;
                                  // kExitReport: gathered inner (ascending
                                  // source gid); kExitPlain: plaintexts
  GroupReport report;             // kExitReport
  std::string abort_reason;       // kAbort
};

// A routed message: destination server id (kMeshDriverId for driver-bound
// results and aborts) and the round it belongs to. Overlapping rounds
// demultiplex on each server by this tag into per-round state.
struct Envelope {
  uint32_t to_server = 0;
  NodeMsg msg;
  uint64_t round_id = 0;
};

Bytes EncodeNodeMsg(const NodeMsg& msg);
std::optional<NodeMsg> DecodeNodeMsg(BytesView bytes);

// The payload of the TCP transport's encrypted kEnvelope frames; decoding
// applies the same length caps as DecodeNodeMsg, so an oversize or
// truncated frame is rejected before any crypto work.
Bytes EncodeEnvelope(const Envelope& envelope);
std::optional<Envelope> DecodeEnvelope(BytesView bytes);

// A multi-envelope frame: every envelope one sender owes one peer for one
// hop travels as a single sealed record instead of one frame per
// sub-batch (LinkMsg::kEnvelopeBundle). Layout: u32 count, then count
// length-prefixed EncodeEnvelope bodies. Decoding caps the declared count
// against the bytes actually present before reserving, so an inflated
// count word cannot force a large allocation.
Bytes EncodeEnvelopeBundle(const std::vector<Envelope>& envelopes);
std::optional<std::vector<Envelope>> DecodeEnvelopeBundle(BytesView bytes);

// DKG round-1/round-2 messages (group setup gossip).
Bytes EncodeDkgDealing(const DkgDealing& dealing);
std::optional<DkgDealing> DecodeDkgDealing(BytesView bytes);
Bytes EncodeDkgComplaint(const DkgComplaint& complaint);
std::optional<DkgComplaint> DecodeDkgComplaint(BytesView bytes);

}  // namespace atom

#endif  // SRC_CORE_WIRE_H_
