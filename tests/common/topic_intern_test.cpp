#include "common/topic_intern.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/strutil.hpp"

namespace md {
namespace {

TEST(TopicInternTest, InternIsIdempotentAndDense) {
  TopicTable table;
  const TopicId a = table.Intern("stocks/AAPL");
  const TopicId b = table.Intern("stocks/MSFT");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(table.Intern("stocks/AAPL"), a);
  EXPECT_EQ(table.Size(), 2u);
}

TEST(TopicInternTest, FindDoesNotIntern) {
  TopicTable table;
  EXPECT_EQ(table.Find("never-seen"), kInvalidTopicId);
  EXPECT_EQ(table.Size(), 0u);
  const TopicId id = table.Intern("seen");
  EXPECT_EQ(table.Find("seen"), id);
}

TEST(TopicInternTest, NameOfRoundTrips) {
  TopicTable table;
  for (int i = 0; i < 10000; ++i) {
    const std::string name = "topic/" + std::to_string(i);
    const TopicId id = table.Intern(name);
    ASSERT_EQ(table.NameOf(id), name);
  }
  EXPECT_EQ(table.NameOf(999999), std::string_view{});
  EXPECT_EQ(table.NameOf(kInvalidTopicId), std::string_view{});
}

TEST(TopicInternTest, SpansChunkBoundary) {
  TopicTable table;
  const std::size_t n = TopicTable::kChunkTopics + 100;
  for (std::size_t i = 0; i < n; ++i) {
    table.Intern(Format("t%zu", i));
  }
  EXPECT_EQ(table.Size(), n);
  EXPECT_EQ(table.NameOf(static_cast<TopicId>(TopicTable::kChunkTopics)),
            Format("t%zu", TopicTable::kChunkTopics));
  EXPECT_EQ(table.MemoryBytes() > 0, true);
}

// The TSan-clean fuzz round-trip the ISSUE asks for: writers intern fresh
// and repeated names while readers resolve every published id back to its
// name concurrently and lock-free. Run under -DMD_SANITIZE=thread to prove
// the release/acquire publication protocol.
TEST(TopicInternTest, ConcurrentInternAndLookupRoundTrip) {
  TopicTable table;
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        // Overlapping name spaces across writers exercise the dedup path.
        const std::string name =
            "fuzz/" + std::to_string((w * kPerWriter / 2 + i) % 9000);
        const TopicId id = table.Intern(name);
        ASSERT_NE(id, kInvalidTopicId);
        ASSERT_EQ(table.NameOf(id), name);  // writer sees its own write
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&table, &stop] {
      std::uint64_t resolved = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto n = static_cast<TopicId>(table.Size());
        for (TopicId id = 0; id < n; ++id) {
          const std::string_view name = table.NameOf(id);
          ASSERT_FALSE(name.empty());  // every id below Size() must resolve
          ++resolved;
        }
      }
      (void)resolved;
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  // Full round-trip check after the dust settles: id -> name -> same id.
  const auto n = static_cast<TopicId>(table.Size());
  for (TopicId id = 0; id < n; ++id) {
    EXPECT_EQ(table.Find(table.NameOf(id)), id);
  }
}

}  // namespace
}  // namespace md
