// Self-tests of the benchmark's own checking code: the delivery oracle must
// catch an injected gap, duplicate, reorder and foreign message, and the
// percentile helper must follow the "at least ten samples beyond" rule.
// Exits nonzero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "oracle.hpp"

using namespace deliverybench;

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

constexpr std::uint32_t kTopic = 7;

Bytes Payload(const Inputs& in, std::uint64_t seq, std::uint32_t topic = kTopic) {
  return in.MakePayload({in.nonce(), topic, Phase::kOpen, seq, 1000});
}

/// Delivers `seqs` on kTopic and returns the verdict after `published`.
OracleCounts Feed(const std::vector<std::uint64_t>& seqs, std::uint64_t published) {
  Inputs in(42, 140);
  StreamOracle oracle(in, {kTopic});
  PayloadHeader h;
  for (std::uint64_t s : seqs) oracle.Observe(kTopic, Payload(in, s), h);
  std::vector<std::uint64_t> perTopic(kTopics, 0);
  perTopic[kTopic] = published;
  return oracle.Finish(perTopic);
}

void CleanStreamPasses() {
  const OracleCounts c = Feed({1, 2, 3, 4, 5}, 5);
  CHECK(c.inOrder == 5);
  CHECK(c.Failures() == 0);
}

void GapIsMissing() {
  const OracleCounts c = Feed({1, 2, 4, 5}, 5);
  CHECK(c.missing == 1);
  CHECK(c.Failures() == 1);
  // A lost tail is missing too.
  CHECK(Feed({1, 2, 3}, 5).missing == 2);
}

void DuplicateIsCounted() {
  const OracleCounts c = Feed({1, 2, 2, 3}, 3);
  CHECK(c.duplicates == 1);
  CHECK(c.Failures() == 1);
}

void ReorderIsCounted() {
  const OracleCounts c = Feed({1, 3, 2, 4}, 4);
  CHECK(c.reordered == 1);
  CHECK(c.missing == 0);
  CHECK(c.Failures() == 1);
}

void ForeignIsCounted() {
  Inputs in(42, 140);
  Inputs other(43, 140);
  StreamOracle oracle(in, {kTopic});
  PayloadHeader h;
  // Another run's traffic (different nonce).
  CHECK(oracle.Observe(kTopic, Payload(other, 1), h) == StreamOracle::Verdict::kForeign);
  // Our nonce on the wrong topic.
  CHECK(oracle.Observe(kTopic, Payload(in, 1, kTopic + 1), h) ==
        StreamOracle::Verdict::kForeign);
  // A flipped filler byte.
  Bytes corrupt = Payload(in, 1);
  corrupt.back() ^= 0x01;
  CHECK(oracle.Observe(kTopic, corrupt, h) == StreamOracle::Verdict::kForeign);
  // Truncated.
  Bytes shortPayload(Payload(in, 1));
  shortPayload.resize(20);
  CHECK(oracle.Observe(kTopic, shortPayload, h) == StreamOracle::Verdict::kForeign);
  // A topic this subscriber never subscribed to.
  CHECK(oracle.Observe(kTopic + 1, Payload(in, 1, kTopic + 1), h) ==
        StreamOracle::Verdict::kForeign);
  // A seq beyond what was published.
  CHECK(oracle.Observe(kTopic, Payload(in, 1), h) == StreamOracle::Verdict::kInOrder);
  CHECK(oracle.Observe(kTopic, Payload(in, 9), h) == StreamOracle::Verdict::kInOrder);
  std::vector<std::uint64_t> perTopic(kTopics, 0);
  perTopic[kTopic] = 1;
  const OracleCounts c = oracle.Finish(perTopic);
  CHECK(c.foreign == 6);
  CHECK(c.missing == 0);
}

void ContiguousTracksPrefix() {
  Inputs in(42, 140);
  StreamOracle oracle(in, {kTopic});
  PayloadHeader h;
  oracle.Observe(kTopic, Payload(in, 1), h);
  oracle.Observe(kTopic, Payload(in, 3), h);
  CHECK(oracle.Contiguous(kTopic) == 1);
  oracle.Observe(kTopic, Payload(in, 2), h);
  CHECK(oracle.Contiguous(kTopic) == 3);
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void PercentileNeedsTenBeyond() {
  CHECK(!Percentile(Ramp(999), 0.99));
  CHECK(Percentile(Ramp(1000), 0.99) == 990.0);  // 10 samples above 990
  CHECK(!Percentile(Ramp(99), 0.90));
  CHECK(Percentile(Ramp(100), 0.90) == 90.0);
  CHECK(!Percentile(Ramp(19), 0.5));
  CHECK(Percentile(Ramp(20), 0.5) == 10.0);
  CHECK(Percentile(Ramp(21), 0.5) == 11.0);
  CHECK(!Percentile({}, 0.5));
}

void InputsAreSeeded() {
  Inputs a(5, 1024), b(5, 1024), c(6, 1024);
  CHECK(a.nonce() == b.nonce());
  CHECK(a.nonce() != c.nonce());
  bool sameOrder = true, otherOrder = true;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t ta = a.NextTopic();
    sameOrder = sameOrder && ta == b.NextTopic();
    otherOrder = otherOrder && ta == c.NextTopic();
  }
  CHECK(sameOrder);
  CHECK(!otherOrder);
  CHECK(Inputs::TopicSubset(9, 33) == Inputs::TopicSubset(9, 33));
  CHECK(Inputs::TopicSubset(9, 33) != Inputs::TopicSubset(10, 33));
  CHECK(Inputs::TopicSubset(9, 33).size() == 33);
  CHECK(a.MakePayload({a.nonce(), 1, Phase::kOpen, 2, 3}).size() == 1024);
}

}  // namespace

int main() {
  CleanStreamPasses();
  GapIsMissing();
  DuplicateIsCounted();
  ReorderIsCounted();
  ForeignIsCounted();
  ContiguousTracksPrefix();
  PercentileNeedsTenBeyond();
  InputsAreSeeded();
  if (failures != 0) {
    std::fprintf(stderr, "deliverybench self-test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("deliverybench self-test: ok\n");
  return 0;
}
