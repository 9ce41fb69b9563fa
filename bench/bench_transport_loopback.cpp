// Measures the encrypted TCP transport's record layer (src/net/link.h) on
// loopback: SecureLink record throughput and ping-pong latency — the raw
// cost of the AEAD record layer + kernel sockets that every inter-server
// protocol byte pays. Whole distributed rounds over the mesh are measured
// by bench_distributed_pipeline.
//
// Usage: bench_transport_loopback [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/link.h"
#include "src/util/rng.h"

namespace {

using namespace atom;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct LinkPair {
  std::unique_ptr<SecureLink> a;  // dialer
  std::unique_ptr<SecureLink> b;  // listener
};

LinkPair ConnectPair(Rng& rng) {
  KemKeypair ka = KemKeyGen(rng), kb = KemKeyGen(rng);
  auto listener = TcpListener::Bind(0);
  LinkPair pair;
  std::thread accept_thread([&] {
    auto socket = listener->Accept();
    if (!socket) {
      return;
    }
    Rng accept_rng = Rng::FromOsEntropy();
    pair.b = SecureLink::Accept(
        std::move(*socket), 2, kb,
        [&](uint32_t) -> std::optional<Point> { return ka.pk; }, accept_rng);
  });
  auto socket = TcpSocket::Dial("127.0.0.1", listener->port());
  Rng dial_rng = Rng::FromOsEntropy();
  pair.a = SecureLink::Dial(std::move(*socket), 1, ka, 2, kb.pk, dial_rng);
  accept_thread.join();
  return pair;
}

void BenchRecords(bool smoke, BenchJson& json) {
  Rng rng(uint64_t{0xbe7c});
  LinkPair pair = ConnectPair(rng);
  if (pair.a == nullptr || pair.b == nullptr) {
    std::fprintf(stderr, "link setup failed\n");
    return;
  }

  std::printf("\nSecureLink records (loopback, ChaCha20-Poly1305 sealed):\n");
  std::printf("%12s %10s %12s\n", "record", "frames", "throughput");
  const size_t sizes[] = {1u << 10, 64u << 10, 1u << 20};
  for (size_t size : sizes) {
    size_t frames = (smoke ? size_t{8} : (256u << 20) / size / 4);
    if (frames < 8) {
      frames = 8;
    }
    Bytes payload = rng.NextBytes(size);
    std::thread drain([&] {
      for (size_t i = 0; i < frames; i++) {
        if (!pair.b->Recv()) {
          return;
        }
      }
    });
    auto start = Clock::now();
    for (size_t i = 0; i < frames; i++) {
      pair.a->Send(BytesView(payload));
    }
    drain.join();
    double seconds = MsSince(start) / 1000.0;
    double mib = static_cast<double>(size * frames) / (1u << 20);
    std::printf("%9zu KiB %10zu %9.0f MiB/s\n", size >> 10, frames,
                mib / seconds);
    size_t row = json.Row();
    json.RowStr(row, "metric", "record_throughput");
    json.RowNum(row, "record_kib", static_cast<double>(size >> 10));
    json.RowNum(row, "mib_per_second", mib / seconds);
  }

  const int pings = smoke ? 20 : 2000;
  Bytes ping = rng.NextBytes(256);
  std::thread echo([&] {
    for (int i = 0; i < pings; i++) {
      auto got = pair.b->Recv();
      if (!got || !pair.b->Send(BytesView(*got))) {
        return;
      }
    }
  });
  auto start = Clock::now();
  for (int i = 0; i < pings; i++) {
    pair.a->Send(BytesView(ping));
    pair.a->Recv();
  }
  echo.join();
  double rtt_us = MsSince(start) * 1000.0 / pings;
  std::printf("ping-pong (256 B): %.1f us round trip\n", rtt_us);
  json.Num("ping_pong_rtt_us", rtt_us);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("==============================================================\n");
  std::printf("Encrypted TCP transport record layer (loopback)\n");
  std::printf("==============================================================\n");
  BenchJson json("transport_loopback");
  json.Bool("smoke", smoke);
  BenchRecords(smoke, json);
  return 0;
}
