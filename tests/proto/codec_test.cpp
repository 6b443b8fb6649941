#include "proto/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strutil.hpp"

namespace md {
namespace {

Message MakeMessage(std::string topic = "sports/football/scores") {
  Message m;
  m.topic = std::move(topic);
  m.payload = {1, 2, 3, 4, 5};
  m.epoch = 3;
  m.seq = 12345;
  m.pubId = {0xABCDEF, 77};
  m.publishTs = 987654321;
  return m;
}

template <typename T>
void ExpectRoundTrip(const T& input) {
  Bytes buf;
  EncodeFrame(Frame(input), buf);
  Result<Frame> decoded = DecodeFrame(BytesView(buf));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(std::holds_alternative<T>(*decoded));
  EXPECT_EQ(std::get<T>(*decoded), input);
}

TEST(CodecTest, ConnectRoundTrip) { ExpectRoundTrip(ConnectFrame{"client-42"}); }
TEST(CodecTest, ConnAckRoundTrip) { ExpectRoundTrip(ConnAckFrame{"server-1"}); }

TEST(CodecTest, SubscribeWithoutResume) {
  ExpectRoundTrip(SubscribeFrame{"topic-x", false, {}});
}

TEST(CodecTest, SubscribeWithResume) {
  ExpectRoundTrip(SubscribeFrame{"topic-x", true, {7, 99}});
}

TEST(CodecTest, SubAckRoundTrip) { ExpectRoundTrip(SubAckFrame{"t", true}); }

TEST(CodecTest, UnsubscribeRoundTrip) { ExpectRoundTrip(UnsubscribeFrame{"t"}); }

TEST(CodecTest, ReplicatedNoticeRoundTrip) {
  ExpectRoundTrip(ReplicatedNoticeFrame{{7, 8}, "topic-r"});
}

TEST(CodecTest, PublishRoundTrip) {
  PublishFrame f;
  f.topic = "odds/game-17";
  f.payload.assign(140, 0x5A);
  f.pubId = {123456789, 42};
  f.wantAck = true;
  f.publishTs = 1234567890123LL;
  ExpectRoundTrip(f);
}

TEST(CodecTest, PublishEmptyPayload) {
  ExpectRoundTrip(PublishFrame{"t", {}, {1, 1}, false, 0});
}

TEST(CodecTest, PubAckRoundTrip) {
  ExpectRoundTrip(PubAckFrame{{5, 6}, PubAckCode::kOk});
  ExpectRoundTrip(PubAckFrame{{5, 7}, PubAckCode::kNoQuorum});
}

TEST(CodecTest, DeliverRoundTrip) { ExpectRoundTrip(DeliverFrame{MakeMessage()}); }

TEST(CodecTest, PingPongRoundTrip) {
  ExpectRoundTrip(PingFrame{0xDEADBEEFULL});
  ExpectRoundTrip(PongFrame{0xDEADBEEFULL});
}

TEST(CodecTest, DisconnectRoundTrip) {
  ExpectRoundTrip(DisconnectFrame{"partition self-fence"});
}

TEST(CodecTest, HelloRoundTrip) { ExpectRoundTrip(HelloFrame{"server-2"}); }

TEST(CodecTest, ForwardPubRoundTrip) {
  ForwardPubFrame f;
  f.topic = "scores/game-3";
  f.payload = {9, 9, 9};
  f.pubId = {11, 22};
  f.originServerId = "server-1";
  f.publishTs = 555;
  f.electIfUnassigned = true;
  ExpectRoundTrip(f);
}

TEST(CodecTest, BroadcastRoundTrip) {
  ExpectRoundTrip(BroadcastFrame{MakeMessage(), 42, "server-3"});
}

TEST(CodecTest, BroadcastAckRoundTrip) {
  ExpectRoundTrip(BroadcastAckFrame{42, 3, 12345, "topic-y"});
}

TEST(CodecTest, ForwardRejectRoundTrip) {
  ExpectRoundTrip(ForwardRejectFrame{{1, 2}, "topic-z"});
}

TEST(CodecTest, GossipAnnounceRoundTrip) {
  ExpectRoundTrip(GossipAnnounceFrame{17, 4, "server-2"});
}

TEST(CodecTest, CacheSyncReqRoundTrip) {
  CacheSyncReqFrame f;
  f.group = 9;
  f.have = {{"a", {1, 10}}, {"b", {2, 20}}};
  f.head = {{"a", {1, 4}}};
  ExpectRoundTrip(f);
}

TEST(CodecTest, CacheSyncReqEmptyHave) {
  ExpectRoundTrip(CacheSyncReqFrame{9, {}});
}

TEST(CodecTest, CacheSyncRespRoundTrip) {
  CacheSyncRespFrame f;
  f.group = 9;
  f.messages = {MakeMessage("a"), MakeMessage("b")};
  f.done = false;
  ExpectRoundTrip(f);
}

TEST(CodecTest, UnknownFrameTypeRejected) {
  Bytes buf{0xEE};
  EXPECT_EQ(DecodeFrame(BytesView(buf)).code(), ErrorCode::kProtocol);
}

TEST(CodecTest, EmptyInputRejected) {
  EXPECT_EQ(DecodeFrame(BytesView{}).code(), ErrorCode::kProtocol);
}

TEST(CodecTest, TrailingBytesRejected) {
  Bytes buf;
  EncodeFrame(Frame(PingFrame{1}), buf);
  buf.push_back(0x00);
  EXPECT_EQ(DecodeFrame(BytesView(buf)).code(), ErrorCode::kProtocol);
}

TEST(CodecTest, TruncationAtEveryByteRejectedOrIncomplete) {
  // Property: no prefix of a valid frame decodes successfully.
  Bytes buf;
  EncodeFrame(Frame(DeliverFrame{MakeMessage()}), buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Result<Frame> r = DecodeFrame(BytesView(buf).subspan(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of length " << cut << " decoded";
  }
}

// --- stream framing ---------------------------------------------------------

TEST(StreamFramingTest, ExtractSingleFrame) {
  ByteQueue q;
  Bytes buf;
  EncodeFramed(Frame(PingFrame{7}), buf);
  q.Append(BytesView(buf));
  auto r = ExtractFrame(q);
  ASSERT_TRUE(r.status.ok());
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_EQ(std::get<PingFrame>(*r.frame).nonce, 7u);
  EXPECT_TRUE(q.empty());
}

TEST(StreamFramingTest, PartialFrameNeedsMoreBytes) {
  ByteQueue q;
  Bytes buf;
  EncodeFramed(Frame(DeliverFrame{MakeMessage()}), buf);
  // Feed byte by byte; must never error and must produce exactly one frame.
  int produced = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    q.Append(BytesView(buf).subspan(i, 1));
    auto r = ExtractFrame(q);
    ASSERT_TRUE(r.status.ok()) << "at byte " << i;
    if (r.frame) ++produced;
  }
  EXPECT_EQ(produced, 1);
}

TEST(StreamFramingTest, BackToBackFrames) {
  ByteQueue q;
  Bytes buf;
  for (std::uint64_t i = 0; i < 5; ++i) EncodeFramed(Frame(PingFrame{i}), buf);
  q.Append(BytesView(buf));
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto r = ExtractFrame(q);
    ASSERT_TRUE(r.frame.has_value());
    EXPECT_EQ(std::get<PingFrame>(*r.frame).nonce, i);
  }
  EXPECT_FALSE(ExtractFrame(q).frame.has_value());
}

TEST(StreamFramingTest, OversizedFrameRejected) {
  ByteQueue q;
  Bytes buf;
  ByteWriter w(buf);
  w.WriteVarint(100 * 1024 * 1024);  // 100 MB claimed
  q.Append(BytesView(buf));
  auto r = ExtractFrame(q, 16 * 1024 * 1024);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(StreamFramingTest, GarbageBodyRejected) {
  ByteQueue q;
  Bytes buf;
  ByteWriter w(buf);
  w.WriteVarint(3);
  w.WriteU8(0xEE);  // unknown type
  w.WriteU8(0x00);
  w.WriteU8(0x00);
  q.Append(BytesView(buf));
  auto r = ExtractFrame(q);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(StreamFramingTest, RandomFrameSequenceChunkedArbitrarily) {
  // Property: any valid frame sequence, chunked at random boundaries,
  // reassembles into exactly the original frames in order.
  Rng rng(321);
  std::vector<Frame> frames;
  Bytes stream;
  for (int i = 0; i < 200; ++i) {
    Frame f;
    switch (rng.NextBelow(4)) {
      case 0: f = PingFrame{rng.Next()}; break;
      case 1: {
        PublishFrame p;
        p.topic = Format("t%llu",
                         static_cast<unsigned long long>(rng.NextBelow(100)));
        p.payload.resize(rng.NextBelow(300));
        for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.Next());
        p.pubId = {rng.Next(), rng.Next()};
        f = p;
        break;
      }
      case 2: f = DeliverFrame{MakeMessage(Format("x%d", i))}; break;
      default: f = GossipAnnounceFrame{static_cast<std::uint32_t>(rng.NextBelow(100)),
                                       static_cast<std::uint32_t>(rng.NextBelow(10)),
                                       "s"};
    }
    frames.push_back(f);
    EncodeFramed(f, stream);
  }

  ByteQueue q;
  std::size_t fed = 0;
  std::size_t decoded = 0;
  while (decoded < frames.size()) {
    if (fed < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.NextBelow(64) + 1, stream.size() - fed);
      q.Append(BytesView(stream).subspan(fed, chunk));
      fed += chunk;
    }
    while (true) {
      auto r = ExtractFrame(q);
      ASSERT_TRUE(r.status.ok());
      if (!r.frame) break;
      ASSERT_LT(decoded, frames.size());
      EXPECT_EQ(TypeOf(*r.frame), TypeOf(frames[decoded]));
      ++decoded;
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(FrameTypeTest, NamesAreStable) {
  EXPECT_STREQ(FrameTypeName(FrameType::kPublish), "PUBLISH");
  EXPECT_STREQ(FrameTypeName(FrameType::kBroadcast), "BROADCAST");
  EXPECT_STREQ(FrameTypeName(FrameType::kCacheSyncResp), "CACHE_SYNC_RESP");
}

}  // namespace
}  // namespace md
