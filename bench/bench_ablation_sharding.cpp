// Ablation: topic-group sharding and thread counts (paper §4, §5.2.1).
//
// Two design claims are measured:
//   1. "Cache data structures for each group are locked independently" —
//      concurrent writers to a cache sharded into G groups contend less as
//      G grows. Measured with real Cache instances and real threads.
//   2. IoThread/Worker counts are "configurable up to the number of
//      available CPUs", which is "the foundation for allowing the I/O layer
//      to scale up vertically" — measured as delivered-latency/CPU of the
//      calibrated engine model at 500 K subscribers as the core count grows.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_support/engine_model.hpp"
#include "bench_support/table.hpp"
#include "common/strutil.hpp"
#include "core/cache.hpp"

using namespace md;
using namespace md::core;

namespace {

/// Wall time for kThreads writers appending to distinct topics through one
/// shared cache configured with `groups` topic groups.
double CacheContentionSeconds(std::uint32_t groups, int threads, int perThread) {
  CacheConfig cfg;
  cfg.topicGroups = groups;
  cfg.maxMessagesPerTopic = 64;
  Cache cache(cfg);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, t, perThread] {
      Message m;
      m.epoch = 1;
      // 8 distinct topics per thread spread across groups.
      for (int i = 0; i < perThread; ++i) {
        m.topic = Format("t%d-%d", t, i % 8);
        m.seq = static_cast<std::uint64_t>(i / 8 + 1);
        m.payload.assign(64, static_cast<std::uint8_t>(i));
        cache.Append(m);
      }
    });
  }
  for (auto& w : workers) w.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  std::printf("=== Ablation: topic-group sharding & thread scaling (paper §4) ===\n\n");

  // --- 1. cache sharding under concurrent writers -----------------------------
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150'000;
  std::printf("Cache write contention: %d writer threads x %d appends\n", kThreads,
              kPerThread);
  std::printf("%-14s %12s %16s\n", "topic-groups", "seconds", "appends/sec");
  double secs1 = 0, secs100 = 0;
  for (const std::uint32_t groups : {1u, 4u, 16u, 100u}) {
    // Best of 3 to de-noise scheduling.
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::min(best, CacheContentionSeconds(groups, kThreads, kPerThread));
    }
    if (groups == 1) secs1 = best;
    if (groups == 100) secs100 = best;
    std::printf("%-14u %12.3f %16.0f\n", groups, best,
                kThreads * kPerThread / best);
  }

  // --- 2. thread-count (vertical) scaling of the engine -----------------------
  std::printf("\nEngine thread scaling at 500K subscribers (model, 60 s):\n");
  md::bench::PrintLatencyTableHeader("Threads");
  double mean1 = 0, mean16 = 0;
  for (const int cores : {1, 2, 4, 8, 16}) {
    md::bench::EngineModelConfig cfg;
    cfg.cores = cores;
    cfg.gcEnabled = false;  // isolate the threading effect
    md::bench::EngineModel model(cfg, 55);
    const auto r = model.Run(/*topics=*/50, /*subscribersPerTopic=*/10'000,
                             kSecond, /*warmup=*/10 * kSecond,
                             /*duration=*/60 * kSecond);
    if (cores == 1) mean1 = r.latency.meanMs;
    if (cores == 16) mean16 = r.latency.meanMs;
    md::bench::PrintLatencyRow({std::to_string(cores), r.latency,
                                r.cpuFraction * 100.0, r.gbpsOut, 50});
  }

  std::vector<md::bench::ShapeCheck> checks;
  checks.push_back({"sharded cache (100 groups) >= unsharded throughput", 0,
                    secs1 / secs100, secs100 <= secs1 * 1.10});
  checks.push_back({"more threads cut fan-out latency: mean(1)/mean(16) > 2",
                    0, mean1 / mean16, mean1 / mean16 > 2.0});
  md::bench::PrintShapeChecks(checks);
  return 0;
}
