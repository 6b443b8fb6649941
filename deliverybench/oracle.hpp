// Seeded inputs, the delivery oracle and the percentile rule of the
// delivery-path benchmark. Header-only so the self-tests exercise exactly
// the code the driver runs.
//
// Every publication's payload starts with a 32-byte header
//   [nonce u64][topic u32][phase u32][seq u64][due ns i64]
// followed by filler bytes taken from a seeded pool at an offset derived
// from (topic, seq). A subscriber can therefore check each delivery on its
// own: the nonce ties it to this run (anything else is foreign traffic),
// topic/seq give its place in the per-topic generator stream, and the
// filler proves the bytes arrived unmodified.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace deliverybench {

using md::Bytes;
using md::BytesView;

inline constexpr std::uint32_t kTopics = 100;
inline constexpr std::size_t kHeaderBytes = 32;
/// Sequence numbers above this are foreign: no run publishes that many, and
/// the oracle sizes its per-topic bitmap by the sequence it sees.
inline constexpr std::uint64_t kMaxSeq = 1ULL << 32;

/// Which part of a run a publication belongs to; carried in the payload so
/// a subscriber classifies a delivery without asking the publisher.
enum class Phase : std::uint32_t {
  kWarmup = 0,
  kOpen = 1,        // open-loop, untraced
  kClosed = 2,      // closed-loop capacity phase
  kOpenTraced = 3,  // open-loop with spans recorded
};

struct PayloadHeader {
  std::uint64_t nonce = 0;
  std::uint32_t topic = 0;
  Phase phase = Phase::kWarmup;
  std::uint64_t seq = 0;  // per-topic generator sequence, 1-based
  std::int64_t due = 0;   // steady-clock ns at which it was due
};

[[nodiscard]] inline std::string TopicName(std::uint32_t topic) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "db/t%03u", topic);
  return buf;
}

/// Generator id shared by every span of one publication.
[[nodiscard]] constexpr std::uint64_t PublicationKey(std::uint32_t topic,
                                                     std::uint64_t seq) {
  return (static_cast<std::uint64_t>(topic) << 40) | seq;
}

/// Everything a run feeds the program, derived from the workload seed. Each
/// kind of input draws from its own stream so that, e.g., how many
/// publications a run manages does not shift the reconnect schedule.
class Inputs {
 public:
  Inputs(std::uint64_t seed, std::size_t payloadBytes)
      : payloadBytes_(std::max(payloadBytes, kHeaderBytes)),
        order_(seed ^ 0x6f72646572ULL) {
    md::Rng rng(seed);
    nonce_ = rng.Next() | 1;  // never 0, so a zeroed payload is foreign
    pool_.resize(FillerBytes() + kPoolSlack);
    for (auto& b : pool_) b = static_cast<std::uint8_t>(rng.Next());
  }

  [[nodiscard]] std::uint64_t nonce() const noexcept { return nonce_; }
  [[nodiscard]] std::size_t payloadBytes() const noexcept { return payloadBytes_; }
  [[nodiscard]] std::size_t FillerBytes() const noexcept {
    return payloadBytes_ - kHeaderBytes;
  }

  /// The filler of publication (topic, seq): a window into the seeded pool.
  [[nodiscard]] BytesView Filler(std::uint32_t topic, std::uint64_t seq) const {
    const std::size_t offset =
        static_cast<std::size_t>((topic * 2654435761ULL + seq * 40503ULL) %
                                 kPoolSlack);
    return BytesView(pool_).subspan(offset, FillerBytes());
  }

  [[nodiscard]] Bytes MakePayload(const PayloadHeader& h) const {
    Bytes out(payloadBytes_);
    std::memcpy(out.data(), &h.nonce, 8);
    std::memcpy(out.data() + 8, &h.topic, 4);
    std::memcpy(out.data() + 12, &h.phase, 4);
    std::memcpy(out.data() + 16, &h.seq, 8);
    std::memcpy(out.data() + 24, &h.due, 8);
    const BytesView filler = Filler(h.topic, h.seq);
    std::memcpy(out.data() + kHeaderBytes, filler.data(), filler.size());
    return out;
  }

  /// Next topic of the seeded publish order.
  std::uint32_t NextTopic() noexcept {
    return static_cast<std::uint32_t>(order_.NextBelow(kTopics));
  }

  /// A seeded subset of `count` distinct topics (sorted).
  [[nodiscard]] static std::vector<std::uint32_t> TopicSubset(
      std::uint64_t seed, std::uint32_t count) {
    std::vector<std::uint32_t> all(kTopics);
    for (std::uint32_t t = 0; t < kTopics; ++t) all[t] = t;
    md::Rng rng(seed ^ 0x737562736574ULL);
    for (std::uint32_t i = kTopics - 1; i > 0; --i) {
      std::swap(all[i], all[rng.NextBelow(i + 1)]);
    }
    all.resize(count);
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  static constexpr std::size_t kPoolSlack = 4096;

  std::size_t payloadBytes_;
  std::uint64_t nonce_ = 0;
  Bytes pool_;
  md::Rng order_;
};

[[nodiscard]] inline std::optional<PayloadHeader> ReadHeader(BytesView payload) {
  if (payload.size() < kHeaderBytes) return std::nullopt;
  PayloadHeader h;
  std::memcpy(&h.nonce, payload.data(), 8);
  std::memcpy(&h.topic, payload.data() + 8, 4);
  std::memcpy(&h.phase, payload.data() + 12, 4);
  std::memcpy(&h.seq, payload.data() + 16, 8);
  std::memcpy(&h.due, payload.data() + 24, 8);
  return h;
}

struct OracleCounts {
  std::uint64_t inOrder = 0;     // first arrival, later than every earlier one
  std::uint64_t duplicates = 0;  // same (topic, seq) seen before
  std::uint64_t reordered = 0;   // first arrival, but after a later seq
  std::uint64_t foreign = 0;     // wrong nonce, topic, length or bytes
  std::uint64_t missing = 0;     // published, never delivered (Finish)

  [[nodiscard]] std::uint64_t Failures() const noexcept {
    return duplicates + reordered + foreign + missing;
  }
};

/// Checks one subscriber's application-visible stream against the
/// generator. Single-threaded: the subscriber's loop thread owns it.
class StreamOracle {
 public:
  enum class Verdict { kInOrder, kDuplicate, kReordered, kForeign };

  StreamOracle(const Inputs& inputs, const std::vector<std::uint32_t>& topics)
      : inputs_(&inputs), streams_(kTopics) {
    for (std::uint32_t t : topics) streams_[t].subscribed = true;
  }

  /// Classifies one delivery on `topic`; fills `header` when it parses.
  Verdict Observe(std::uint32_t topic, BytesView payload, PayloadHeader& header) {
    const std::optional<PayloadHeader> h = ReadHeader(payload);
    if (!h || h->nonce != inputs_->nonce() || h->topic != topic ||
        topic >= kTopics || !streams_[topic].subscribed || h->seq == 0 ||
        h->seq > kMaxSeq ||
        payload.size() != inputs_->payloadBytes() ||
        !FillerMatches(payload, *h)) {
      ++counts_.foreign;
      return Verdict::kForeign;
    }
    header = *h;
    Stream& s = streams_[topic];
    if (s.seen.size() <= h->seq) s.seen.resize(h->seq * 2 + 64, 0);
    if (s.seen[h->seq] != 0) {
      ++counts_.duplicates;
      return Verdict::kDuplicate;
    }
    s.seen[h->seq] = 1;
    while (s.contiguous + 1 < s.seen.size() && s.seen[s.contiguous + 1] != 0) {
      ++s.contiguous;
    }
    if (h->seq < s.maxSeen) {
      ++counts_.reordered;
      return Verdict::kReordered;
    }
    s.maxSeen = h->seq;
    ++counts_.inOrder;
    return Verdict::kInOrder;
  }

  /// Highest seq s of `topic` such that 1..s have all arrived.
  [[nodiscard]] std::uint64_t Contiguous(std::uint32_t topic) const {
    return streams_[topic].contiguous;
  }

  /// Counts, once every publication has had its chance to arrive:
  /// `published[t]` publications were made on topic t, so every subscribed
  /// topic must hold 1..published[t]. Anything above is foreign.
  [[nodiscard]] OracleCounts Finish(const std::vector<std::uint64_t>& published) const {
    OracleCounts out = counts_;
    for (std::uint32_t t = 0; t < kTopics; ++t) {
      const Stream& s = streams_[t];
      if (!s.subscribed) continue;
      const std::uint64_t want = t < published.size() ? published[t] : 0;
      for (std::uint64_t seq = 1; seq <= want; ++seq) {
        if (seq >= s.seen.size() || s.seen[seq] == 0) ++out.missing;
      }
      for (std::uint64_t seq = want + 1; seq < s.seen.size(); ++seq) {
        if (s.seen[seq] != 0) ++out.foreign;
      }
    }
    return out;
  }

 private:
  struct Stream {
    bool subscribed = false;
    std::uint64_t maxSeen = 0;
    std::uint64_t contiguous = 0;
    std::vector<std::uint8_t> seen;  // indexed by seq
  };

  [[nodiscard]] bool FillerMatches(BytesView payload, const PayloadHeader& h) const {
    const BytesView want = inputs_->Filler(h.topic, h.seq);
    return std::memcmp(payload.data() + kHeaderBytes, want.data(), want.size()) == 0;
  }

  const Inputs* inputs_;
  std::vector<Stream> streams_;
  OracleCounts counts_;
};

/// Samples needed beyond a reported percentile.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Nearest-rank q-quantile of ascending `sorted`, reported only when at
/// least kSamplesBeyond samples lie above its rank (p99 needs 1000 samples,
/// p90 needs 100, the median 20).
[[nodiscard]] inline std::optional<double> Percentile(
    const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 0 || q <= 0 || q >= 1) return std::nullopt;
  // ceil(q * n) without letting 0.99 * 1000 = 990.0000000000001 round up.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < kSamplesBeyond) return std::nullopt;
  return sorted[rank - 1];
}

}  // namespace deliverybench
