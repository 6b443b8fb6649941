#include "coord/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strutil.hpp"

namespace md::coord {
namespace {

template <typename T>
void ExpectRoundTrip(const T& input) {
  Bytes wire;
  EncodeCoordMsg(CoordMsg(input), wire);
  auto decoded = DecodeCoordMsg(BytesView(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(std::holds_alternative<T>(*decoded));
  // Compare by re-encoding (messages hold variants without operator==).
  Bytes again;
  EncodeCoordMsg(*decoded, again);
  EXPECT_EQ(wire, again);
}

TEST(CoordCodecTest, RequestVoteRoundTrip) {
  ExpectRoundTrip(RequestVote{42, 3, 100, 41});
}

TEST(CoordCodecTest, VoteReplyRoundTrip) {
  ExpectRoundTrip(VoteReply{42, true});
  ExpectRoundTrip(VoteReply{43, false});
}

TEST(CoordCodecTest, AppendEntriesWithAllCommandTypes) {
  AppendEntries msg;
  msg.term = 7;
  msg.leader = 2;
  msg.prevLogIndex = 10;
  msg.prevLogTerm = 6;
  msg.leaderCommit = 9;
  msg.entries.push_back({7, CreateCmd{"group/5", "server-1", 3}, 11, 1});
  msg.entries.push_back({7, PutCmd{"epoch/5", "server-1"}, 12, 1});
  msg.entries.push_back({7, DeleteCmd{"group/5", 2}, 0, 0});
  msg.entries.push_back({7, ExpireSessionCmd{3}, 0, 0});
  msg.entries.push_back({7, NoopCmd{}, 0, 0});
  ExpectRoundTrip(msg);
}

TEST(CoordCodecTest, EmptyHeartbeatRoundTrip) {
  AppendEntries msg;
  msg.term = 1;
  msg.leader = 1;
  ExpectRoundTrip(msg);
}

TEST(CoordCodecTest, AppendReplyRoundTrip) {
  ExpectRoundTrip(AppendReply{5, true, 123});
}

TEST(CoordCodecTest, ClientRequestRoundTrip) {
  ExpectRoundTrip(ClientRequest{99, 2, CreateCmd{"k", "v", 2}});
}

TEST(CoordCodecTest, ClientReplyRoundTrip) {
  ExpectRoundTrip(ClientReply{99, 0, 4});
  ExpectRoundTrip(ClientReply{100, 11, 0});
}

TEST(CoordCodecTest, DecodedValuesMatch) {
  AppendEntries msg;
  msg.term = 3;
  msg.leader = 1;
  msg.entries.push_back({3, CreateCmd{"key", "value", 2}, 5, 1});
  Bytes wire;
  EncodeCoordMsg(CoordMsg(msg), wire);
  auto decoded = DecodeCoordMsg(BytesView(wire));
  ASSERT_TRUE(decoded.ok());
  const auto& ae = std::get<AppendEntries>(*decoded);
  EXPECT_EQ(ae.term, 3u);
  ASSERT_EQ(ae.entries.size(), 1u);
  const auto& create = std::get<CreateCmd>(ae.entries[0].cmd);
  EXPECT_EQ(create.key, "key");
  EXPECT_EQ(create.value, "value");
  EXPECT_EQ(create.ephemeralOwner, 2u);
  EXPECT_EQ(ae.entries[0].requestId, 5u);
}

TEST(CoordCodecTest, GarbageRejected) {
  Bytes junk{0xFF, 0x00, 0x12};
  EXPECT_FALSE(DecodeCoordMsg(BytesView(junk)).ok());
  EXPECT_FALSE(DecodeCoordMsg(BytesView{}).ok());
}

TEST(CoordCodecTest, TrailingBytesRejected) {
  Bytes wire;
  EncodeCoordMsg(CoordMsg(VoteReply{1, true}), wire);
  wire.push_back(0);
  EXPECT_FALSE(DecodeCoordMsg(BytesView(wire)).ok());
}

TEST(CoordCodecTest, StreamFramingChunkedReassembly) {
  Rng rng(5);
  Bytes stream;
  constexpr int kMessages = 100;
  for (int i = 0; i < kMessages; ++i) {
    AppendEntries msg;
    msg.term = static_cast<Term>(i);
    msg.leader = 1;
    if (i % 2 == 0) {
      msg.entries.push_back(
          {static_cast<Term>(i), PutCmd{Format("k%d", i), "v"}, 0, 0});
    }
    EncodeCoordFramed(CoordMsg(msg), stream);
  }

  ByteQueue q;
  std::size_t fed = 0;
  int decoded = 0;
  while (decoded < kMessages) {
    if (fed < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.NextBelow(40) + 1, stream.size() - fed);
      q.Append(BytesView(stream).subspan(fed, chunk));
      fed += chunk;
    }
    while (true) {
      auto r = ExtractCoordMsg(q);
      ASSERT_TRUE(r.status.ok());
      if (!r.msg) break;
      EXPECT_EQ(std::get<AppendEntries>(*r.msg).term,
                static_cast<Term>(decoded));
      ++decoded;
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(CoordCodecTest, FuzzRandomBytesNeverCrash) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.NextBelow(150));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.Next());
    (void)DecodeCoordMsg(BytesView(junk));
    ByteQueue q;
    q.Append(BytesView(junk));
    (void)ExtractCoordMsg(q);
  }
  SUCCEED();
}

}  // namespace
}  // namespace md::coord
