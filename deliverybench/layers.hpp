// Per-layer replay: the workload's own seeded inputs pushed through each
// layer's public functions in isolation, timed per operation. These are the
// floors the traced run sets beside the in-process stage histograms.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace deliverybench {

using Metric = std::pair<std::string, double>;

struct ReplaySpec {
  std::uint64_t seed = 0;
  std::size_t payloadBytes = 0;
  /// Topic set of each subscriber, as the run subscribed them.
  std::vector<std::vector<std::uint32_t>> subscriptions;
  /// Messages per topic a resuming subscriber fetches from the cache.
  std::size_t resumeGap = 0;
  /// Scratch directory for the WAL replay (created and removed here).
  std::string walDir;
};

/// Runs every replay and returns (metric name, value) pairs named as in
/// METRICS.md: proto.*, core.*_ns, transport.sendqueue_append_consume_ns,
/// wal.append_ns.
[[nodiscard]] std::vector<Metric> ReplayLayers(const ReplaySpec& spec);

}  // namespace deliverybench
