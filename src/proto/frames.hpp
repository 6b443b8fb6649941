// Typed wire frames for the client protocol and the intra-cluster protocol.
//
// All frames travel over a persistent ordered byte stream (TCP, WebSocket
// binary frames, or the in-process / simulated transports). One Frame is one
// unit of the protocol; the codec (codec.hpp) maps Frame <-> bytes.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "proto/message.hpp"

namespace md {

// ---------------------------------------------------------------------------
// Client <-> server frames
// ---------------------------------------------------------------------------

/// First frame on a client connection.
struct ConnectFrame {
  std::string clientId;
  friend bool operator==(const ConnectFrame&, const ConnectFrame&) = default;
};

struct ConnAckFrame {
  std::string serverId;
  friend bool operator==(const ConnAckFrame&, const ConnAckFrame&) = default;
};

/// Subscribe to one topic. If `hasResumePos`, the client asks for in-order
/// recovery of every cached message after `resumeAfter` (paper §5.2.3).
struct SubscribeFrame {
  std::string topic;
  bool hasResumePos = false;
  StreamPos resumeAfter;
  friend bool operator==(const SubscribeFrame&, const SubscribeFrame&) = default;
};

struct SubAckFrame {
  std::string topic;
  bool ok = true;
  friend bool operator==(const SubAckFrame&, const SubAckFrame&) = default;
};

/// Stop receiving a topic. No resume state is kept server-side afterwards.
struct UnsubscribeFrame {
  std::string topic;
  friend bool operator==(const UnsubscribeFrame&, const UnsubscribeFrame&) = default;
};

/// Publication sent by a publisher client. `wantAck` selects at-least-once
/// (QoS 1) vs at-most-once (QoS 0) semantics (paper §3).
struct PublishFrame {
  std::string topic;
  Bytes payload;
  PublicationId pubId;
  bool wantAck = true;
  std::int64_t publishTs = 0;
  friend bool operator==(const PublishFrame&, const PublishFrame&) = default;
};

/// Publication acknowledgement status. Anything other than kOk means the
/// publication was not sequenced and the client must republish; kNoQuorum is
/// the *retryable* rejection a quorum-gated minority returns instead of
/// split-braining (the client backs off before republishing).
enum class PubAckCode : std::uint8_t {
  kOk = 0,
  kFailed = 1,    // sequencing failed (coordinator race lost, node fenced)
  kNoQuorum = 2,  // server cannot see a member majority; retry after backoff
};
inline constexpr std::uint8_t kMaxPubAckCode = 2;

struct PubAckFrame {
  PublicationId pubId;
  PubAckCode code = PubAckCode::kOk;
  [[nodiscard]] bool ok() const noexcept { return code == PubAckCode::kOk; }
  friend bool operator==(const PubAckFrame&, const PubAckFrame&) = default;
};

/// Notification delivered to a subscriber.
struct DeliverFrame {
  Message msg;
  friend bool operator==(const DeliverFrame&, const DeliverFrame&) = default;
};

struct PingFrame {
  std::uint64_t nonce = 0;
  friend bool operator==(const PingFrame&, const PingFrame&) = default;
};

struct PongFrame {
  std::uint64_t nonce = 0;
  friend bool operator==(const PongFrame&, const PongFrame&) = default;
};

/// Server-initiated close (e.g. partition self-fencing, paper §5.2.2) or
/// client-initiated goodbye.
struct DisconnectFrame {
  std::string reason;
  friend bool operator==(const DisconnectFrame&, const DisconnectFrame&) = default;
};

// ---------------------------------------------------------------------------
// Server <-> server (cluster) frames
// ---------------------------------------------------------------------------

/// Identifies a cluster peer on an inter-server connection.
struct HelloFrame {
  std::string serverId;
  friend bool operator==(const HelloFrame&, const HelloFrame&) = default;
};

/// A publication forwarded from the contact server toward the (actual or
/// would-be) coordinator of the topic's group (paper §5.2.2).
struct ForwardPubFrame {
  std::string topic;
  Bytes payload;
  PublicationId pubId;
  std::string originServerId;  // contact server awaiting the ack
  std::int64_t publishTs = 0;
  bool electIfUnassigned = false;  // receiver should run for coordinator
  friend bool operator==(const ForwardPubFrame&, const ForwardPubFrame&) = default;
};

/// Sequenced message broadcast by a group coordinator to all cluster members.
struct BroadcastFrame {
  Message msg;
  std::uint32_t group = 0;
  std::string coordinatorId;
  /// Sender's membership fence epoch (the linearized version of its fence
  /// znode). Receivers refuse broadcasts below the sender's last announced
  /// epoch, so an evicted node replaying buffered writes is ignored
  /// cluster-wide. 0 = sender not running elastic membership (always accepted).
  std::uint32_t fenceEpoch = 0;
  friend bool operator==(const BroadcastFrame&, const BroadcastFrame&) = default;
};

/// Confirms replication of a broadcast message into the sender's cache.
struct BroadcastAckFrame {
  std::uint32_t group = 0;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  std::string topic;
  friend bool operator==(const BroadcastAckFrame&, const BroadcastAckFrame&) = default;
};

/// Tells the contact server that the forwarded publication could not be
/// sequenced (coordinator race lost); the publisher gets a failed ack and
/// republishes (paper §5.2.2, footnote 3).
struct ForwardRejectFrame {
  PublicationId pubId;
  std::string topic;
  friend bool operator==(const ForwardRejectFrame&, const ForwardRejectFrame&) = default;
};

/// Coordinator -> contact server: the publication has reached the configured
/// replication degree and may be acknowledged to the publisher. Only used
/// when the cluster runs with more than two copies before ack (the paper's
/// §5.2 extension for tolerating additional concurrent faults).
struct ReplicatedNoticeFrame {
  PublicationId pubId;
  std::string topic;
  friend bool operator==(const ReplicatedNoticeFrame&, const ReplicatedNoticeFrame&) = default;
};

/// Gossip: "server `serverId` now coordinates `group` at `epoch`". Populates
/// peers' lazy gossip maps (paper §5.2.1).
struct GossipAnnounceFrame {
  std::uint32_t group = 0;
  std::uint32_t epoch = 0;
  std::string serverId;
  friend bool operator==(const GossipAnnounceFrame&, const GossipAnnounceFrame&) = default;
};

/// Ask a peer for every cached message of `group` it holds after `after`
/// (per topic); used for cache reconstruction after crash/partition recovery
/// (paper §5.2.2).
struct CacheSyncReqFrame {
  std::uint32_t group = 0;
  // Positions already held per topic; peer sends anything newer. Empty means
  // "send everything you have for the group".
  std::vector<std::pair<std::string, StreamPos>> have;
  // Earliest position still held per topic: the peer also resends anything
  // OLDER it holds. A WAL-recovered history can be missing its first records
  // (bit flip or ENOSPC at a topic's head) and no forward cursor can express
  // a hole that lies before the surviving history; topics absent here get no
  // older-than backfill.
  std::vector<std::pair<std::string, StreamPos>> head = {};
  friend bool operator==(const CacheSyncReqFrame&, const CacheSyncReqFrame&) = default;
};

struct CacheSyncRespFrame {
  std::uint32_t group = 0;
  std::vector<Message> messages;
  bool done = true;  // false => more chunks follow
  friend bool operator==(const CacheSyncRespFrame&, const CacheSyncRespFrame&) = default;
};

// ---------------------------------------------------------------------------
// Elastic rebalancing frames (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// One migrating session inside a HandoffBeginFrame: the client plus the
/// old owner's delivered-through cursor per subscribed topic.
struct HandoffSession {
  std::string clientId;
  std::vector<std::pair<std::string, StreamPos>> cursors;
  friend bool operator==(const HandoffSession&, const HandoffSession&) = default;
};

/// Old owner -> new owner: start migrating one frozen subscriber-partition
/// slice. Carries the transferred resume cursors; the receiver holds them as
/// attach floors until the redirected clients reconnect. Idempotent — a
/// re-sent begin overwrites and is re-acked.
struct HandoffBeginFrame {
  std::uint32_t partition = 0;
  std::uint32_t fenceEpoch = 0;  // sender's epoch; stale senders are refused
  std::uint64_t handoffId = 0;
  std::string fromServerId;
  std::vector<HandoffSession> sessions;
  friend bool operator==(const HandoffBeginFrame&, const HandoffBeginFrame&) = default;
};

/// New owner -> old owner: the slice transfer is durable (ok) or refused.
/// Duplicate acks for an already-released hand-off are ignored.
struct HandoffAckFrame {
  std::uint64_t handoffId = 0;
  std::uint32_t partition = 0;
  std::uint32_t fenceEpoch = 0;  // responder's epoch
  bool ok = true;
  friend bool operator==(const HandoffAckFrame&, const HandoffAckFrame&) = default;
};

/// Server -> client: your partition moved; reconnect to `targetServerId`.
/// The cursors are the server-side delivered-through positions — a client
/// with no local resume state adopts them so the new owner backfills from
/// exactly the ownership boundary.
struct HandoffFrame {
  std::string targetServerId;
  std::uint32_t partition = 0;
  std::uint32_t rebalanceEpoch = 0;
  std::vector<std::pair<std::string, StreamPos>> cursors;
  friend bool operator==(const HandoffFrame&, const HandoffFrame&) = default;
};

// ---------------------------------------------------------------------------

using Frame = std::variant<
    ConnectFrame, ConnAckFrame, SubscribeFrame, SubAckFrame, UnsubscribeFrame,
    PublishFrame, PubAckFrame, DeliverFrame, PingFrame, PongFrame,
    DisconnectFrame, HelloFrame, ForwardPubFrame, BroadcastFrame,
    BroadcastAckFrame, ForwardRejectFrame, ReplicatedNoticeFrame,
    GossipAnnounceFrame, CacheSyncReqFrame, CacheSyncRespFrame, HandoffFrame,
    HandoffBeginFrame, HandoffAckFrame>;

/// Wire identifiers; order is part of the protocol, append-only.
enum class FrameType : std::uint8_t {
  kConnect = 1,
  kConnAck = 2,
  kSubscribe = 3,
  kSubAck = 4,
  kPublish = 5,
  kPubAck = 6,
  kDeliver = 7,
  kPing = 8,
  kPong = 9,
  kDisconnect = 10,
  kUnsubscribe = 11,
  kHello = 20,
  kForwardPub = 21,
  kBroadcast = 22,
  kBroadcastAck = 23,
  kForwardReject = 24,
  kGossipAnnounce = 25,
  kCacheSyncReq = 26,
  kCacheSyncResp = 27,
  kReplicatedNotice = 28,
  kHandoff = 29,
  kHandoffBegin = 30,
  kHandoffAck = 31,
};

FrameType TypeOf(const Frame& frame) noexcept;
const char* FrameTypeName(FrameType type) noexcept;

}  // namespace md
