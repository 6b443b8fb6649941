// Micro-benchmarks (google-benchmark) for the hot-path components:
// wire codec, WAL record framing, WebSocket framing, queues, cache,
// registry fan-out, histogram and hashing. These are the constants behind
// the engine model calibration.
#include <benchmark/benchmark.h>

#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "core/cache.hpp"
#include "core/registry.hpp"
#include "proto/codec.hpp"
#include "proto/websocket.hpp"
#include "wal/format.hpp"

namespace {

using namespace md;

Message MakeMessage(std::size_t payloadSize) {
  Message m;
  m.topic = "sports/football/game-1234/scores";
  m.payload = Bytes(payloadSize, 0x5A);
  m.epoch = 3;
  m.seq = 123456;
  m.pubId = {0xABCDEF012345ULL, 42};
  m.publishTs = 1234567890;
  return m;
}

void BM_EncodeDeliver(benchmark::State& state) {
  const Frame frame{DeliverFrame{MakeMessage(static_cast<std::size_t>(state.range(0)))}};
  Bytes out;
  for (auto _ : state) {
    out.clear();
    EncodeFramed(frame, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_EncodeDeliver)->Arg(140)->Arg(512)->Arg(4096);

// A 140 B-payload replication frame: what the coordinator encodes once per
// publication and queues on every peer link.
void BM_EncodeFramed(benchmark::State& state) {
  BroadcastFrame bcast;
  bcast.msg = MakeMessage(static_cast<std::size_t>(state.range(0)));
  bcast.group = 42;
  bcast.coordinatorId = "server-1";
  bcast.fenceEpoch = 7;
  const Frame frame{bcast};
  Bytes out;
  for (auto _ : state) {
    out.clear();
    EncodeFramed(frame, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_EncodeFramed)->Arg(140);

// One WAL record (framing + CRC) per cached publication.
void BM_WalEncodeRecord(benchmark::State& state) {
  const Message m = MakeMessage(static_cast<std::size_t>(state.range(0)));
  Bytes out;
  for (auto _ : state) {
    out.clear();
    wal::EncodeRecord(m, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_WalEncodeRecord)->Arg(140)->Arg(4096);

void BM_WalCrc32(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal::Crc32(BytesView(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WalCrc32)->Arg(4096);

void BM_DecodeDeliver(benchmark::State& state) {
  Bytes wire;
  EncodeFrame(Frame{DeliverFrame{MakeMessage(static_cast<std::size_t>(state.range(0)))}},
              wire);
  for (auto _ : state) {
    auto decoded = DecodeFrame(BytesView(wire));
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeDeliver)->Arg(140)->Arg(512)->Arg(4096);

void BM_WsEncodeFrame(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x42);
  Bytes out;
  for (auto _ : state) {
    out.clear();
    ws::EncodeWsFrame(ws::Opcode::kBinary, BytesView(payload), out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_WsEncodeFrame)->Arg(140)->Arg(65536);

void BM_WsDecodeMaskedFrame(benchmark::State& state) {
  Bytes wire;
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x42);
  ws::EncodeWsFrame(ws::Opcode::kBinary, BytesView(payload), wire, 0xA1B2C3D4);
  for (auto _ : state) {
    ByteQueue q;
    q.Append(BytesView(wire));
    auto r = ws::ExtractWsFrame(q, true);
    benchmark::DoNotOptimize(r.frame);
  }
}
BENCHMARK(BM_WsDecodeMaskedFrame)->Arg(140)->Arg(65536);

void BM_WsHandshakeAccept(benchmark::State& state) {
  for (auto _ : state) {
    auto accept = ws::ComputeAccept("dGhlIHNhbXBsZSBub25jZQ==");
    benchmark::DoNotOptimize(accept);
  }
}
BENCHMARK(BM_WsHandshakeAccept);

void BM_MpscQueuePushPop(benchmark::State& state) {
  MpscQueue<int> q(1 << 16);
  for (auto _ : state) {
    (void)q.TryPush(1);
    benchmark::DoNotOptimize(q.TryPop());
  }
}
BENCHMARK(BM_MpscQueuePushPop);

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<int> ring(1 << 12);
  for (auto _ : state) {
    ring.TryPush(1);
    benchmark::DoNotOptimize(ring.TryPop());
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_CacheAppend(benchmark::State& state) {
  core::CacheConfig cfg;
  cfg.topicGroups = static_cast<std::uint32_t>(state.range(0));
  core::Cache cache(cfg);
  Message m = MakeMessage(140);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    m.seq = ++seq;
    benchmark::DoNotOptimize(cache.Append(m));
  }
}
BENCHMARK(BM_CacheAppend)->Arg(1)->Arg(100);

void BM_CacheGetAfter(benchmark::State& state) {
  core::Cache cache;
  Message m = MakeMessage(140);
  for (std::uint64_t s = 1; s <= 1000; ++s) {
    m.seq = s;
    cache.Append(m);
  }
  for (auto _ : state) {
    auto msgs = cache.GetAfter(m.topic, {3, 990});
    benchmark::DoNotOptimize(msgs);
  }
}
BENCHMARK(BM_CacheGetAfter);

void BM_RegistryFanoutIterate(benchmark::State& state) {
  core::SubscriptionRegistry registry;
  const std::string topic = "hot";
  for (core::ClientHandle h = 1; h <= static_cast<core::ClientHandle>(state.range(0)); ++h) {
    registry.Subscribe(topic, h);
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    registry.ForEachSubscriber(topic, [&](core::ClientHandle h) { sum += h; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RegistryFanoutIterate)->Arg(1000)->Arg(10000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Record(static_cast<std::int64_t>(rng.NextBelow(100'000'000)));
  }
  benchmark::DoNotOptimize(h.Count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 1'000'000; ++i) {
    h.Record(static_cast<std::int64_t>(rng.NextBelow(100'000'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Percentile(0.99));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_TopicGroupHash(benchmark::State& state) {
  const std::string topic = "sports/football/game-1234/scores";
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopicGroupOf(topic, 100));
  }
}
BENCHMARK(BM_TopicGroupHash);

void BM_Sha1Handshake(benchmark::State& state) {
  const std::string material =
      "dGhlIHNhbXBsZSBub25jZQ==258EAFA5-E914-47DA-95CA-C5AB0DC85B11";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1(material));
  }
}
BENCHMARK(BM_Sha1Handshake);

void BM_VarintRoundTrip(benchmark::State& state) {
  Bytes buf;
  for (auto _ : state) {
    buf.clear();
    ByteWriter w(buf);
    w.WriteVarint(0xDEADBEEFCAFEULL);
    ByteReader r{BytesView(buf)};
    std::uint64_t v = 0;
    (void)r.ReadVarint(v);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_VarintRoundTrip);

}  // namespace

BENCHMARK_MAIN();
