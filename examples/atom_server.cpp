// atom_server: one Atom server in one OS process.
//
// Hosts a NodeProcess behind the encrypted TCP peer mesh
// (src/net/node_process.h). Everything else — the peer roster, the DKG
// material of the groups it hosts, round specs, and hop traffic — arrives
// over authenticated links from the round driver (see
// examples/distributed_nodes.cpp, which spawns a fleet of these and
// drives pipelined rounds through it).
//
//   atom_server --id N (--keyfile PATH | --sk <hex32>) --driver-pk <hex33>
//               [--port P] [--variant trap|nizk]
//
// The long-term identity key loads from --keyfile (a file holding the
// 32-byte secret scalar hex-encoded, whitespace ignored — the first step
// of keystore-based server identities); --sk on argv remains as a demo
// fallback for loopback runs, where key exposure via /proc/cmdline does
// not matter.
//
// Prints "ATOM_SERVER_PORT=<port>" on stdout once listening (port 0, the
// default, picks an ephemeral port — the spawner reads this line), then
// serves until stdin reaches EOF, so a child process exits as soon as its
// spawner closes the pipe or dies.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "src/net/node_process.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/util/hex.h"

namespace {

// strtoul with full validation: rejects junk, trailing characters, and
// values past `max` instead of throwing or silently truncating.
std::optional<unsigned long> ParseNumber(const std::string& value,
                                         unsigned long max) {
  if (value.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size() || parsed > max) {
    return std::nullopt;
  }
  return parsed;
}

// Reads a hex-encoded secret key from `path`: whitespace (including the
// trailing newline every editor adds) is ignored; anything else must be
// exactly 64 hex digits.
std::optional<std::string> ReadKeyfileHex(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return std::nullopt;
  }
  std::string hex;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (!std::isspace(c)) {
      hex.push_back(static_cast<char>(c));
    }
  }
  std::fclose(f);
  return hex;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atom;
  uint32_t id = 0;
  uint16_t port = 0;
  Variant variant = Variant::kTrap;
  int metrics_port = -1;
  std::string sk_hex, keyfile, driver_pk_hex, fault_spec;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--id") {
      auto parsed = ParseNumber(value, 0xffffffffUL);
      if (!parsed) {
        std::fprintf(stderr, "--id must be a number\n");
        return 2;
      }
      id = static_cast<uint32_t>(*parsed);
    } else if (flag == "--port") {
      auto parsed = ParseNumber(value, 65535);
      if (!parsed) {
        std::fprintf(stderr, "--port must be a number in [0, 65535]\n");
        return 2;
      }
      port = static_cast<uint16_t>(*parsed);
    } else if (flag == "--sk") {
      sk_hex = value;
    } else if (flag == "--keyfile") {
      keyfile = value;
    } else if (flag == "--driver-pk") {
      driver_pk_hex = value;
    } else if (flag == "--variant") {
      variant = (value == "nizk") ? Variant::kNizk : Variant::kTrap;
    } else if (flag == "--fault-spec") {
      fault_spec = value;
    } else if (flag == "--metrics-port") {
      auto parsed = ParseNumber(value, 65535);
      if (!parsed) {
        std::fprintf(stderr, "--metrics-port must be a number in [0, 65535]\n");
        return 2;
      }
      metrics_port = static_cast<int>(*parsed);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }
  if (id == kMeshDriverId || (sk_hex.empty() && keyfile.empty()) ||
      driver_pk_hex.empty()) {
    std::fprintf(stderr,
                 "usage: atom_server --id N (--keyfile PATH | --sk <hex32>) "
                 "--driver-pk <hex33> [--port P] [--variant trap|nizk] "
                 "[--fault-spec SPEC] [--metrics-port P]\n");
    return 2;
  }
  if (!keyfile.empty()) {
    if (!sk_hex.empty()) {
      std::fprintf(stderr, "--keyfile and --sk are mutually exclusive\n");
      return 2;
    }
    auto loaded = ReadKeyfileHex(keyfile);
    if (!loaded) {
      std::fprintf(stderr, "could not read keyfile %s\n", keyfile.c_str());
      return 2;
    }
    sk_hex = std::move(*loaded);
  }

  auto sk_bytes = HexDecode(sk_hex);
  if (!sk_bytes || sk_bytes->size() != 32) {
    std::fprintf(stderr,
                 "the identity key must be 32 hex-encoded bytes\n");
    return 2;
  }
  auto sk = Scalar::FromBytes(BytesView(*sk_bytes));
  if (!sk) {
    std::fprintf(stderr, "--sk is not a valid scalar\n");
    return 2;
  }
  auto pk_bytes = HexDecode(driver_pk_hex);
  auto driver_pk =
      pk_bytes ? Point::Decode(BytesView(*pk_bytes)) : std::nullopt;
  if (!driver_pk) {
    std::fprintf(stderr, "--driver-pk is not a valid point\n");
    return 2;
  }

  KemKeypair identity{*sk, Point::BaseMul(*sk)};
  NodeProcess process(id, variant, identity, *driver_pk);
  if (!fault_spec.empty()) {
    // Scenario harness (src/net/faults.h): this server misbehaves per the
    // seeded plan — dropped/corrupted frames, stalls, severed links,
    // byzantine tamper rounds — all replayable from the spec's seed.
    auto plan = FaultPlan::Parse(fault_spec);
    if (plan == nullptr) {
      std::fprintf(stderr, "malformed --fault-spec: %s\n",
                   fault_spec.c_str());
      return 2;
    }
    process.SetFaultPlan(std::move(plan));
  }
  // Local plaintext scrape endpoint for this server's registry; the
  // fleet-merged view still travels over the control plane regardless
  // (kMetricsSnapshot), so this is for operators pointing Prometheus or
  // curl at one process.
  obs::MetricsHttpServer metrics_server;
  if (metrics_port >= 0) {
    obs::SetTimingEnabled(true);
    if (!metrics_server.Start(static_cast<uint16_t>(metrics_port))) {
      std::fprintf(stderr, "server %u: could not bind --metrics-port %d\n",
                   id, metrics_port);
      return 1;
    }
  }
  if (!process.Listen(port)) {
    std::fprintf(stderr, "server %u: could not bind port %u\n", id, port);
    return 1;
  }
  process.Start();
  std::printf("ATOM_SERVER_PORT=%u\n", process.port());
  if (metrics_port >= 0) {
    std::printf("ATOM_METRICS_PORT=%u\n", metrics_server.port());
  }
  std::fflush(stdout);

  // Serve until the spawner closes our stdin (or we get EOF any other
  // way); NodeProcess threads do all the work.
  while (std::fgetc(stdin) != EOF) {
  }
  process.Stop();
  metrics_server.Stop();
  return 0;
}
