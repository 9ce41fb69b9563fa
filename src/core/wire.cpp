#include "src/core/wire.h"

#include "src/util/serde.h"

namespace atom {
namespace {

void PutCiphertextVec(ByteWriter& w, const ElGamalCiphertextVec& cts) {
  // Same byte layout as EncodeCiphertextVec: one batched inversion for the
  // whole [r, c, y] point run instead of one per point.
  w.Raw(BytesView(EncodeCiphertextVec(cts)));
}

bool GetCiphertextVec(ByteReader& r, ElGamalCiphertextVec* out) {
  auto n = r.U32();
  // Bound the count by the bytes left before it drives reserve().
  if (!n || *n > (1u << 16) ||
      *n > r.remaining() / ElGamalCiphertext::kEncodedSize) {
    return false;
  }
  out->reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto raw = r.Raw(ElGamalCiphertext::kEncodedSize);
    if (!raw) {
      return false;
    }
    auto ct = ElGamalCiphertext::Decode(BytesView(*raw));
    if (!ct) {
      return false;
    }
    out->push_back(*ct);
  }
  return true;
}

void PutProofs(ByteWriter& w, const std::vector<EncProof>& proofs) {
  // Same byte layout as per-proof EncProof::Encode, with every commitment
  // encoded through one EncodePoints (one inversion for the whole run).
  std::vector<Point> commits;
  commits.reserve(proofs.size());
  for (const auto& proof : proofs) {
    commits.push_back(proof.commit);
  }
  const Bytes encoded = EncodePoints(commits);
  w.U32(static_cast<uint32_t>(proofs.size()));
  for (size_t i = 0; i < proofs.size(); i++) {
    w.Raw(BytesView(encoded).subspan(i * Point::kEncodedSize,
                                     Point::kEncodedSize));
    auto u = proofs[i].u.ToBytes();
    w.Raw(BytesView(u.data(), u.size()));
  }
}

bool GetProofs(ByteReader& r, std::vector<EncProof>* out) {
  auto n = r.U32();
  if (!n || *n > (1u << 16) || *n > r.remaining() / EncProof::kEncodedSize) {
    return false;
  }
  out->reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto raw = r.Raw(EncProof::kEncodedSize);
    if (!raw) {
      return false;
    }
    auto proof = EncProof::Decode(BytesView(*raw));
    if (!proof) {
      return false;
    }
    out->push_back(*proof);
  }
  return true;
}

}  // namespace

Bytes EncodeNizkSubmission(const NizkSubmission& submission) {
  ByteWriter w;
  w.U32(submission.entry_gid);
  PutCiphertextVec(w, submission.ciphertext);
  PutProofs(w, submission.proofs);
  // Format change (not backward compatible): client_id appended last so
  // the fixed prefix offsets (gid, vector counts) keep their positions.
  w.U64(submission.client_id);
  return w.Take();
}

std::optional<NizkSubmission> DecodeNizkSubmission(BytesView bytes) {
  ByteReader r(bytes);
  NizkSubmission out;
  auto gid = r.U32();
  if (!gid || !GetCiphertextVec(r, &out.ciphertext) ||
      !GetProofs(r, &out.proofs)) {
    return std::nullopt;
  }
  auto client = r.U64();
  if (!client || !r.Done()) {
    return std::nullopt;
  }
  out.entry_gid = *gid;
  out.client_id = *client;
  return out;
}

namespace {

void PutBatch(ByteWriter& w, const CiphertextBatch& batch) {
  w.U32(static_cast<uint32_t>(batch.size()));
  for (const auto& vec : batch) {
    PutCiphertextVec(w, vec);
  }
}

bool GetBatch(ByteReader& r, CiphertextBatch* out) {
  auto n = r.U32();
  // Every vector costs at least its 4-byte count, so a count beyond
  // remaining/4 is malformed; reject it before resize() allocates it.
  if (!n || *n > (1u << 22) || *n > r.remaining() / 4) {
    return false;
  }
  out->resize(*n);
  for (uint32_t i = 0; i < *n; i++) {
    if (!GetCiphertextVec(r, &(*out)[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Bytes EncodeDkgDealing(const DkgDealing& dealing) {
  ByteWriter w;
  w.U32(dealing.dealer);
  ByteWriter points;
  for (const Point& p : dealing.commitments) {
    points.Raw(BytesView(p.Encode()));
  }
  w.U32(static_cast<uint32_t>(dealing.commitments.size()));
  w.Raw(BytesView(points.bytes()));
  w.U32(static_cast<uint32_t>(dealing.shares.size()));
  for (const Share& share : dealing.shares) {
    w.U32(share.index);
    auto sv = share.value.ToBytes();
    w.Raw(BytesView(sv.data(), sv.size()));
  }
  return w.Take();
}

std::optional<DkgDealing> DecodeDkgDealing(BytesView bytes) {
  ByteReader r(bytes);
  DkgDealing dealing;
  auto dealer = r.U32();
  auto num_commitments = r.U32();
  if (!dealer || !num_commitments || *num_commitments > (1u << 12)) {
    return std::nullopt;
  }
  dealing.dealer = *dealer;
  for (uint32_t i = 0; i < *num_commitments; i++) {
    auto raw = r.Raw(Point::kEncodedSize);
    if (!raw) {
      return std::nullopt;
    }
    auto p = Point::Decode(BytesView(*raw));
    if (!p) {
      return std::nullopt;
    }
    dealing.commitments.push_back(*p);
  }
  auto num_shares = r.U32();
  if (!num_shares || *num_shares > (1u << 12)) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *num_shares; i++) {
    auto index = r.U32();
    auto raw = r.Raw(32);
    if (!index || !raw) {
      return std::nullopt;
    }
    auto value = Scalar::FromBytes(BytesView(*raw));
    if (!value) {
      return std::nullopt;
    }
    dealing.shares.push_back(Share{*index, *value});
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return dealing;
}

Bytes EncodeDkgComplaint(const DkgComplaint& complaint) {
  ByteWriter w;
  w.U32(complaint.accuser);
  w.U32(complaint.dealer);
  return w.Take();
}

std::optional<DkgComplaint> DecodeDkgComplaint(BytesView bytes) {
  ByteReader r(bytes);
  auto accuser = r.U32();
  auto dealer = r.U32();
  if (!accuser || !dealer || !r.Done()) {
    return std::nullopt;
  }
  return DkgComplaint{*accuser, *dealer};
}

namespace {

// Exact serialized size of EncodeNodeMsg's output, so the hot fan-out
// path reserves once instead of growing the buffer geometrically while
// appending megabytes of ciphertexts. Must mirror EncodeNodeMsg
// field-for-field.
size_t NodeMsgEncodedSize(const NodeMsg& msg) {
  size_t s = 1 + 4 + 4 + 4;  // type, gid, layer, src_gid
  s += 4;
  for (const auto& vec : msg.batch) {
    s += 4 + vec.size() * ElGamalCiphertext::kEncodedSize;
  }
  s += 4;
  for (const Bytes& b : msg.exit_traps) {
    s += 4 + b.size();
  }
  s += 4;
  for (const Bytes& b : msg.exit_inner) {
    s += 4 + b.size();
  }
  s += 4 + 1 + 1 + 8 + 8;  // report
  s += 4 + msg.abort_reason.size();
  return s;
}

}  // namespace

Bytes EncodeNodeMsg(const NodeMsg& msg) {
  ByteWriter w(NodeMsgEncodedSize(msg));
  w.U8(static_cast<uint8_t>(msg.type));
  w.U32(msg.gid);
  w.U32(msg.layer);
  w.U32(msg.src_gid);
  PutBatch(w, msg.batch);
  auto put_bytes_vec = [&w](const std::vector<Bytes>& v) {
    w.U32(static_cast<uint32_t>(v.size()));
    for (const Bytes& b : v) {
      w.Var(BytesView(b));
    }
  };
  put_bytes_vec(msg.exit_traps);
  put_bytes_vec(msg.exit_inner);
  w.U32(msg.report.gid);
  w.U8(msg.report.traps_ok ? 1 : 0);
  w.U8(msg.report.inner_ok ? 1 : 0);
  w.U64(msg.report.num_traps);
  w.U64(msg.report.num_inner);
  w.Var(BytesView(ToBytes(msg.abort_reason)));
  return w.Take();
}

std::optional<NodeMsg> DecodeNodeMsg(BytesView bytes) {
  ByteReader r(bytes);
  NodeMsg msg;
  auto type = r.U8();
  if (!type || *type > static_cast<uint8_t>(NodeMsg::Type::kExitPlain)) {
    return std::nullopt;
  }
  msg.type = static_cast<NodeMsg::Type>(*type);
  auto gid = r.U32();
  auto layer = r.U32();
  auto src_gid = r.U32();
  if (!gid || !layer || !src_gid || !GetBatch(r, &msg.batch)) {
    return std::nullopt;
  }
  msg.gid = *gid;
  msg.layer = *layer;
  msg.src_gid = *src_gid;
  auto get_bytes_vec = [&r](std::vector<Bytes>* out) -> bool {
    auto n = r.U32();
    // Every entry costs at least its 4-byte length prefix, so a count
    // exceeding remaining/4 cannot be honest — reject it before the
    // reserve, which otherwise lets a kilobyte frame demand a ~100 MB
    // allocation.
    if (!n || *n > r.remaining() / 4) {
      return false;
    }
    out->reserve(*n);
    for (uint32_t i = 0; i < *n; i++) {
      auto b = r.Var();
      if (!b) {
        return false;
      }
      out->push_back(std::move(*b));
    }
    return true;
  };
  if (!get_bytes_vec(&msg.exit_traps) || !get_bytes_vec(&msg.exit_inner)) {
    return std::nullopt;
  }
  auto report_gid = r.U32();
  auto traps_ok = r.U8();
  auto inner_ok = r.U8();
  auto num_traps = r.U64();
  auto num_inner = r.U64();
  if (!report_gid || !traps_ok || *traps_ok > 1 || !inner_ok ||
      *inner_ok > 1 || !num_traps || !num_inner) {
    return std::nullopt;
  }
  msg.report.gid = *report_gid;
  msg.report.traps_ok = *traps_ok == 1;
  msg.report.inner_ok = *inner_ok == 1;
  msg.report.num_traps = *num_traps;
  msg.report.num_inner = *num_inner;
  auto reason = r.Var();
  if (!reason || !r.Done()) {
    return std::nullopt;
  }
  msg.abort_reason.assign(reason->begin(), reason->end());
  return msg;
}

Bytes EncodeEnvelope(const Envelope& envelope) {
  Bytes body = EncodeNodeMsg(envelope.msg);
  ByteWriter w(12 + body.size());
  w.U32(envelope.to_server);
  w.U64(envelope.round_id);
  w.Raw(BytesView(body));
  return w.Take();
}

std::optional<Envelope> DecodeEnvelope(BytesView bytes) {
  ByteReader r(bytes);
  auto to_server = r.U32();
  auto round_id = r.U64();
  if (!to_server || !round_id) {
    return std::nullopt;
  }
  auto msg = DecodeNodeMsg(bytes.subspan(12));
  if (!msg) {
    return std::nullopt;
  }
  return Envelope{*to_server, std::move(*msg), *round_id};
}

Bytes EncodeEnvelopeBundle(const std::vector<Envelope>& envelopes) {
  std::vector<Bytes> bodies;
  bodies.reserve(envelopes.size());
  size_t total = 4;
  for (const Envelope& envelope : envelopes) {
    bodies.push_back(EncodeEnvelope(envelope));
    total += 4 + bodies.back().size();
  }
  ByteWriter w(total);
  w.U32(static_cast<uint32_t>(envelopes.size()));
  for (const Bytes& body : bodies) {
    w.Var(BytesView(body));
  }
  return w.Take();
}

std::optional<std::vector<Envelope>> DecodeEnvelopeBundle(BytesView bytes) {
  ByteReader r(bytes);
  auto count = r.U32();
  // Every entry costs at least its 4-byte length prefix: a count above
  // remaining()/4 is lying about the payload, so reject it before the
  // reserve. Empty bundles are never sent and never accepted.
  if (!count || *count == 0 || *count > r.remaining() / 4) {
    return std::nullopt;
  }
  std::vector<Envelope> out;
  out.reserve(*count);
  for (uint32_t i = 0; i < *count; i++) {
    auto raw = r.Var();
    if (!raw) {
      return std::nullopt;
    }
    auto envelope = DecodeEnvelope(BytesView(*raw));
    if (!envelope) {
      return std::nullopt;
    }
    out.push_back(std::move(*envelope));
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return out;
}

Bytes EncodeTrapSubmission(const TrapSubmission& submission) {
  ByteWriter w;
  w.U32(submission.entry_gid);
  PutCiphertextVec(w, submission.first);
  PutProofs(w, submission.first_proofs);
  PutCiphertextVec(w, submission.second);
  PutProofs(w, submission.second_proofs);
  w.Raw(BytesView(submission.trap_commitment.data(),
                  submission.trap_commitment.size()));
  // Format change (not backward compatible): client_id appended last so
  // the fixed prefix offsets (gid, vector counts) keep their positions.
  w.U64(submission.client_id);
  return w.Take();
}

std::optional<TrapSubmission> DecodeTrapSubmission(BytesView bytes) {
  ByteReader r(bytes);
  TrapSubmission out;
  auto gid = r.U32();
  if (!gid || !GetCiphertextVec(r, &out.first) ||
      !GetProofs(r, &out.first_proofs) ||
      !GetCiphertextVec(r, &out.second) ||
      !GetProofs(r, &out.second_proofs)) {
    return std::nullopt;
  }
  auto commitment = r.Raw(32);
  auto client = r.U64();
  if (!commitment || !client || !r.Done()) {
    return std::nullopt;
  }
  out.entry_gid = *gid;
  out.client_id = *client;
  std::copy(commitment->begin(), commitment->end(),
            out.trap_commitment.begin());
  return out;
}

}  // namespace atom
