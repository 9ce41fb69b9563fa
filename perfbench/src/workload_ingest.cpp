// ingest: the epoll ReactorGateway in front of a 16-entry-group trap
// Round, driven by a few authenticated ClientSessions from one generator
// thread with pre-built submissions (ClientSession::Submit signs, seals
// and sends each one). Ids are unique per (group, epoch), so the
// generator cycles epochs: OpenRound -> submit -> verdicts -> Cutoff +
// TakeEngineRound. No mixing runs.
//
//   phase A  closed loop: each epoch's submissions all in flight (the
//            credit window is one epoch's share per session, so windows
//            start every epoch full); reports submissions admitted/s and
//            the Submit-to-verdict latency, its p50 and p99
//   phase B  open loop at the fixed offered rate from BENCHMARK.json;
//            each submission is timed from its due time, so a late
//            generator or an epoch turnover shows as admission latency.
//            Printed beside the result, not reported as a metric: on a
//            shared 4-vCPU host its latency at a fixed rate moved with
//            the host's speed by far more than any bound allows (p50
//            spread 31% over ten seeds)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "perfbench/src/probes.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/core/directory.h"
#include "src/net/client_session.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

constexpr double kPhaseAShare = 0.6;  // of --seconds; phase B gets the rest
constexpr auto kVerdictTimeout = std::chrono::seconds(30);

// Gateway, registry and sessions over one Round. Sessions close before
// the gateway stops.
struct Ingress {
  std::unique_ptr<atom::Round> round;
  atom::ClientRegistry registry;
  std::unique_ptr<atom::ReactorGateway> gateway;
  std::vector<std::unique_ptr<atom::ClientSession>> sessions;

  ~Ingress() {
    for (auto& session : sessions) {
      session->Close();
    }
    if (gateway != nullptr) {
      gateway->Stop();
    }
  }
};

bool StartIngress(Ingress& in, const IngestShape& shape, uint64_t seed,
                  Outcome& out) {
  in.round = MakeRound(IngestRoundConfig(shape, seed), seed);
  atom::Rng key_rng(seed ^ 0x696e67657374ULL);
  atom::Directory directory(atom::ToBytes("perfbench/ingest"));
  std::vector<atom::KemKeypair> keys;
  for (size_t s = 0; s < shape.sessions; s++) {
    atom::SchnorrKeypair kp = atom::SchnorrKeyGen(key_rng);
    if (!directory.RegisterClient(
            atom::MakeClientRegistration(IngestClientId(s), kp, key_rng))) {
      out.Fail("client registration failed");
      return false;
    }
    keys.push_back(atom::KemKeypair{kp.sk, kp.pk});
  }
  in.registry.SeedFromDirectory(directory);

  atom::KemKeypair gateway_key = atom::KemKeyGen(key_rng);
  atom::GatewayConfig config;
  config.credit_window = static_cast<uint32_t>(shape.groups);
  config.verify_workers = atom::HardwareThreads();
  config.require_sigs = true;
  in.gateway = std::make_unique<atom::ReactorGateway>(
      in.round.get(), &in.registry, gateway_key, config);
  if (!in.gateway->Listen(0)) {
    out.Fail("gateway listen failed");
    return false;
  }
  in.gateway->Start();
  for (size_t s = 0; s < shape.sessions; s++) {
    auto session = atom::ClientSession::Connect(
        "127.0.0.1", in.gateway->port(), IngestClientId(s), keys[s],
        gateway_key.pk);
    if (session == nullptr) {
      out.Fail("session handshake failed");
      return false;
    }
    in.sessions.push_back(std::move(session));
  }
  return true;
}

// Cycles intake epochs over the pre-built epoch sets and checks every
// verdict and every drained epoch.
class EpochCycler {
 public:
  EpochCycler(Ingress& in, const IngestShape& shape,
              const std::vector<std::vector<atom::TrapSubmission>>& sets,
              uint64_t seed, Outcome& out)
      : in_(in), shape_(shape), sets_(sets), take_rng_(seed ^ 0x7a6bULL),
        out_(out), per_group_(shape.groups, 0) {}

  void Open() {
    Span span("ReactorGateway::OpenRound", "net");
    in_.gateway->OpenRound(++epoch_id_);
  }

  bool EpochFull() const { return next_slot_ == shape_.PerEpoch(); }
  bool EpochEmpty() const { return next_slot_ == 0; }

  // Sends the epoch's next submission; returns (session, seq).
  std::pair<size_t, uint64_t> SubmitNext() {
    // Slot order walks groups in the outer loop so consecutive
    // submissions go to different sessions.
    const size_t g = next_slot_ / shape_.sessions;
    const size_t s = next_slot_ % shape_.sessions;
    next_slot_++;
    per_group_[g]++;
    const atom::TrapSubmission& sub = sets_[set_][s * shape_.groups + g];
    uint64_t seq = 0;
    {
      Span span("ClientSession::Submit", "net");
      seq = in_.sessions[s]->Submit(sub);
    }
    out_.attempted++;
    if (seq == 0) {
      Refused("session died");
    }
    return {s, seq};
  }

  // Waits up to `timeout` for one verdict; false when it has not arrived.
  bool Verdict(size_t session, uint64_t seq,
               std::chrono::milliseconds timeout) {
    if (seq == 0) {
      return true;  // already counted as failed
    }
    std::optional<atom::SubmitStatus> status;
    {
      Span span("ClientSession::WaitResult", "net");
      status = in_.sessions[session]->WaitResult(seq, timeout);
    }
    if (!status.has_value()) {
      if (timeout >= kVerdictTimeout ||
          !in_.sessions[session]->alive()) {
        Refused("no verdict");
        return true;
      }
      return false;
    }
    if (*status != atom::SubmitStatus::kAccepted) {
      Refused("verdict " + std::to_string(static_cast<int>(*status)));
    } else {
      accepted_++;
    }
    return true;
  }

  // Cutoff + take + check the drained epoch + open the next one.
  void Turnover() {
    auto t0 = Clock::now();
    {
      Span span("ReactorGateway::Cutoff", "net");
      in_.gateway->Cutoff();
    }
    atom::EngineRound spec;
    {
      Span span("Round::TakeEngineRound", "core");
      spec = in_.round->TakeEngineRound({}, take_rng_);
    }
    std::string why = CheckDrainedEpoch(spec, per_group_);
    if (!why.empty()) {
      out_.Fail(why);
    }
    in_.round->ReleaseBlameEpoch(spec.intake_epoch);
    std::fill(per_group_.begin(), per_group_.end(), 0);
    next_slot_ = 0;
    set_ = (set_ + 1) % sets_.size();
    Open();
    turnover_ms_.push_back(SecondsSince(t0) * 1e3);
  }

  // One closed epoch: every submission sent, every verdict awaited (in
  // submission order). Appends each submission's Submit-to-verdict time
  // to `admit_ms` when given.
  void ClosedEpoch(std::vector<double>* admit_ms = nullptr) {
    std::vector<std::pair<size_t, uint64_t>> sent;
    std::vector<Clock::time_point> started;
    while (!EpochFull()) {
      started.push_back(Clock::now());
      sent.push_back(SubmitNext());
    }
    for (size_t i = 0; i < sent.size(); i++) {
      Verdict(sent[i].first, sent[i].second, kVerdictTimeout);
      if (admit_ms != nullptr) {
        admit_ms->push_back(SecondsSince(started[i]) * 1e3);
      }
    }
    Turnover();
  }

  size_t accepted() const { return accepted_; }
  const std::vector<double>& turnover_ms() const { return turnover_ms_; }

 private:
  void Refused(const std::string& why) {
    out_.failed++;
    out_.Fail("submission not admitted: " + why);
  }

  Ingress& in_;
  const IngestShape& shape_;
  const std::vector<std::vector<atom::TrapSubmission>>& sets_;
  atom::Rng take_rng_;
  Outcome& out_;
  uint64_t epoch_id_ = 0;
  size_t set_ = 0;
  size_t next_slot_ = 0;
  std::vector<size_t> per_group_;
  size_t accepted_ = 0;
  std::vector<double> turnover_ms_;
};

struct OpenLoopResult {
  std::vector<double> admit_ms;  // verdict observed - due time
  std::vector<double> late_ms;   // submit started - due time
  double seconds = 0;
  size_t admitted = 0;
};

// Phase B: submissions due every 1/rate seconds from one generator
// thread, which between due times waits for verdicts oldest first.
OpenLoopResult OpenLoop(EpochCycler& cycler, double rate, double seconds) {
  struct Pending {
    size_t session = 0;
    uint64_t seq = 0;
    Clock::time_point due;
  };
  OpenLoopResult result;
  const size_t total = static_cast<size_t>(std::floor(rate * seconds));
  const size_t admitted_before = cycler.accepted();
  const auto t0 = Clock::now();
  auto due = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };
  auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  std::deque<Pending> pending;
  size_t next = 0;
  while (next < total || !pending.empty() || !cycler.EpochEmpty()) {
    auto now = Clock::now();
    const bool can_submit = next < total && !cycler.EpochFull();
    if (can_submit && due(next) <= now) {
      result.late_ms.push_back(ms_between(due(next), now));
      auto [session, seq] = cycler.SubmitNext();
      pending.push_back({session, seq, due(next)});
      next++;
      continue;
    }
    if (!pending.empty()) {
      auto wait = can_submit ? std::chrono::duration_cast<
                                   std::chrono::milliseconds>(due(next) - now)
                             : std::chrono::milliseconds(kVerdictTimeout);
      const Pending& oldest = pending.front();
      if (cycler.Verdict(oldest.session, oldest.seq,
                         std::max(wait, std::chrono::milliseconds(0)))) {
        result.admit_ms.push_back(ms_between(oldest.due, Clock::now()));
        pending.pop_front();
      }
      continue;
    }
    if (cycler.EpochFull() || (next >= total && !cycler.EpochEmpty())) {
      cycler.Turnover();
      continue;
    }
    std::this_thread::sleep_until(due(next));
  }
  result.seconds = SecondsSince(t0);
  result.admitted = cycler.accepted() - admitted_before;
  return result;
}

}  // namespace

Outcome RunIngest(const Options& options) {
  Outcome out;
  const IngestShape shape = MakeIngestShape(atom::HardwareThreads());

  // Set-up: Round + DKGs, client registration, gateway start, session
  // handshakes.
  std::vector<double> setups;
  std::unique_ptr<Ingress> in;
  for (size_t rep = 0; rep < (options.trace ? 1 : 5); rep++) {
    in.reset();
    auto t0 = Clock::now();
    in = std::make_unique<Ingress>();
    if (!StartIngress(*in, shape, options.seed, out)) {
      return out;
    }
    setups.push_back(SecondsSince(t0));
  }
  const auto sets = BuildIngestEpochs(*in->round, options.seed, shape);
  EpochCycler cycler(*in, shape, sets, options.seed, out);

  if (!options.trace) {
    cycler.Open();
    cycler.ClosedEpoch();  // warm-up: first handshake-era costs
    const size_t admitted_before = cycler.accepted();
    const double phase_a_budget = options.seconds * kPhaseAShare;
    const auto t0 = Clock::now();
    size_t epochs = 0;
    std::vector<double> closed_ms;
    while (epochs == 0 || SecondsSince(t0) < phase_a_budget) {
      cycler.ClosedEpoch(&closed_ms);
      epochs++;
    }
    const double phase_a_s = SecondsSince(t0);
    const double phase_a_rate =
        static_cast<double>(cycler.accepted() - admitted_before) / phase_a_s;

    OpenLoopResult b = OpenLoop(cycler, options.offered_rate,
                                options.seconds - phase_a_budget);

    out.Set("setup_s", Median(setups));
    out.Set("msgs_per_s", phase_a_rate);
    out.Set("latency_p50_ms", Percentile(closed_ms, 50));
    out.Set("latency_tail_ms", Percentile(closed_ms, 99));
    out.Set("peak_rss_mb", PeakRssMb());

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "phase A: %zu epochs x %zu submissions in %.3f s, %.1f "
                  "admitted/s",
                  epochs, shape.PerEpoch(), phase_a_s, phase_a_rate);
    out.Note(buf);
    std::snprintf(buf, sizeof(buf),
                  "phase B: offered %.1f/s for %.3f s, %zu admitted (%.1f/s)",
                  options.offered_rate, b.seconds, b.admitted,
                  static_cast<double>(b.admitted) / b.seconds);
    out.Note(buf);
    out.Note(QuartileNote("setup_s", setups, "s"));
    out.Note(QuartileNote("admission latency (phase A)", closed_ms, "ms"));
    std::snprintf(buf, sizeof(buf),
                  "latency_tail_ms is the phase A p99 (%zu samples beyond "
                  "it)",
                  closed_ms.size() - (closed_ms.size() * 99 + 99) / 100);
    out.Note(buf);
    out.Note(QuartileNote("admission latency (phase B)", b.admit_ms, "ms"));
    std::snprintf(buf, sizeof(buf),
                  "phase B admission p99 %.3f ms, max %.3f ms",
                  Percentile(b.admit_ms, 99), Percentile(b.admit_ms, 100));
    out.Note(buf);

    out.Note(QuartileNote("generator lateness (phase B)", b.late_ms, "ms"));
    std::snprintf(buf, sizeof(buf), "generator lateness p99: %.3f ms",
                  Percentile(b.late_ms, 99));
    out.Note(buf);
    out.Note(QuartileNote("epoch turnover", cycler.turnover_ms(), "ms"));
    return out;
  }

  SetLit(true);
  ProbeResults probes = RunProbes(options.seed);
  LayerFacts facts;
  MixShape hop_shape;
  hop_shape.groups = shape.groups;
  hop_shape.group_size = shape.group_size;
  hop_shape.message_len = shape.message_len;
  hop_shape.msgs_per_round = shape.PerEpoch();
  facts.hop_ms = ProbeHopMs(*in->round, hop_shape, options.seed);
  {
    // SubmitTrapBatch on one epoch set, straight into the Round (no
    // gateway round is open yet), then drained and discarded.
    auto t0 = Clock::now();
    std::vector<bool> accepted =
        in->round->SubmitTrapBatch(sets[0], atom::HardwareThreads());
    facts.verify_us_per_sub =
        SecondsSince(t0) * 1e6 / static_cast<double>(accepted.size());
    if (std::count(accepted.begin(), accepted.end(), false) > 0) {
      out.Fail("intake rejected an honest submission");
    }
    atom::Rng rng(options.seed);
    atom::EngineRound drained = in->round->TakeEngineRound({}, rng);
    in->round->ReleaseBlameEpoch(drained.intake_epoch);
  }
  const double predicted =
      PredictVerifyUsPerSub(shape.message_len, probes.Calibrated());
  facts.model_err_pct =
      std::fabs(predicted - facts.verify_us_per_sub) /
      facts.verify_us_per_sub * 100;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "model: entry-phase charge %.1f us/submission vs measured "
                "SubmitTrapBatch %.1f us/submission",
                predicted, facts.verify_us_per_sub);
  out.Note(buf);
  SetLit(false);

  cycler.Open();
  cycler.ClosedEpoch();  // warm-up
  TracedRun run = RunSegments(kTracedPairs, [&](bool) {
    const size_t before = cycler.accepted();
    auto t0 = Clock::now();
    for (size_t e = 0; e < shape.traced_epochs; e++) {
      cycler.ClosedEpoch();
    }
    return SegmentResult{static_cast<double>(cycler.accepted() - before),
                         SecondsSince(t0)};
  });
  facts.turnover_ms = Median(cycler.turnover_ms());
  ReportPerLayer(probes, run, facts,
                 options.out_dir + "/trace-" + options.workload + ".json",
                 out);
  return out;
}

}  // namespace perfbench
