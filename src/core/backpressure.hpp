// Slow-consumer overflow policy (paper §4: a handful of stalled clients must
// not consume unbounded server memory).
//
// The transport enforces the mechanical bound (src/transport/transport.hpp
// Watermarks: soft = advisory kCapacity, hard = append rejected), and
// ClientEgress decides what happens to a session that crossed the soft mark.
// Every client-facing host — core::Server, TcpClusterHost and SimCluster —
// writes to its clients through one ClientEgress, so all delivery paths obey
// one state machine (DESIGN.md §10).
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/time.hpp"
#include "obs/families.hpp"
#include "transport/transport.hpp"

namespace md::verify {
class Monitor;
}  // namespace md::verify

namespace md::core {

enum class OverflowPolicy : std::uint8_t {
  /// Default: evict the session (kCapacity close reason). At-least-once
  /// clients recover by reconnecting and resuming from their last position —
  /// the cache/cursor path replays everything missed, in order.
  kDisconnect,
  /// Route the session's topics through the Conflator while it is over the
  /// soft mark: it keeps receiving the newest value per topic at a bounded
  /// rate instead of an ever-growing backlog ("current value" streams).
  kConflate,
  /// At-most-once sessions: silently drop new deliveries while over the soft
  /// mark (counted in md_slow_consumer_dropped_total).
  kDropNewest,
};

struct BackpressureConfig {
  std::size_t softWatermark = 1 * 1024 * 1024;
  std::size_t hardWatermark = 4 * 1024 * 1024;
  /// Drained notification threshold (recovery from an excursion).
  std::size_t lowWatermark = 128 * 1024;
  OverflowPolicy policy = OverflowPolicy::kDisconnect;
  /// kDisconnect evicts only if the session is still over the soft mark this
  /// long after first crossing it — a healthy client absorbing a burst
  /// drains within the grace and survives; a stalled one does not.
  Duration evictGrace = 250 * kMillisecond;

  [[nodiscard]] Watermarks ToWatermarks() const {
    return Watermarks{softWatermark, hardWatermark, lowWatermark};
  }
};

/// Per-session egress state, owned by the session's loop thread.
struct EgressState {
  bool overSoft = false;         // crossed soft, not yet drained to low
  bool evictTimerArmed = false;  // the kDisconnect grace timer is pending
  bool evicting = false;         // notice sent, close in flight
};

/// A host's per-session record as ClientEgress uses it: the connection, its
/// EgressState, a handle (the monitor's key) and the policy close notice in
/// the session's transport flavour.
template <typename C>
concept EgressClient = requires(C& c, const C& cc, Bytes& out) {
  { *c.conn } -> std::convertible_to<Connection&>;
  { c.egress } -> std::same_as<EgressState&>;
  { cc.handle } -> std::convertible_to<std::uint64_t>;
  cc.EncodeEvictNotice(out);
};

/// One host's client egress: the slow-consumer state machine every client
/// write goes through (DESIGN.md §10). Loop-thread only, like Send().
///
/// A send the transport takes without complaint returns at once. kCapacity
/// goes to the policy: the over-soft flag and its gauge, a queue-depth
/// sample, the monitor, then kDisconnect's evict-grace timer (or eviction
/// at once on a hard reject: the stream now has a gap) or, for the other
/// policies, a counted shed of what the hard mark refused. kDropNewest also
/// sheds deliveries while over soft. kConflate's diversion to the Conflator
/// is core::Server's.
class ClientEgress {
 public:
  /// `labels` label the md_slow_consumer_* families; `monitor` (optional)
  /// receives a depth sample on every over-soft send and must outlive this.
  ClientEgress(const BackpressureConfig& cfg, obs::MetricsRegistry& registry,
               std::string_view labels = "", verify::Monitor* monitor = nullptr);

  ClientEgress(const ClientEgress&) = delete;
  ClientEgress& operator=(const ClientEgress&) = delete;

  [[nodiscard]] obs::SlowConsumerMetrics& metrics() noexcept { return m_; }
  [[nodiscard]] const obs::SlowConsumerMetrics& metrics() const noexcept {
    return m_;
  }

  /// Applies the watermarks to a new session's connection; its drained
  /// handler clears the over-soft state.
  template <EgressClient C>
  void Attach(const std::shared_ptr<C>& client) {
    client->conn->SetWatermarks(cfg_.ToWatermarks());
    client->conn->SetDrainedHandler([this, weak = std::weak_ptr<C>(client)] {
      if (auto c = weak.lock()) ClearOverSoft(c->egress);
    });
  }

  /// For the session's close handler: a closed session is not over soft.
  void OnClosed(EgressState& state) { ClearOverSoft(state); }

  /// kDropNewest: true, and counted, when a deliver-class frame must be shed
  /// because the session is over soft.
  bool ShedNewest(const EgressState& state, bool deliverClass) {
    if (!deliverClass || !state.overSoft ||
        cfg_.policy != OverflowPolicy::kDropNewest) {
      return false;
    }
    m_.dropped.Inc();
    return true;
  }

  /// Writes `view` — or `*shared`, zero-copy, which `view` must view — to
  /// the client's connection; returns whether the bytes were accepted.
  /// `loop` is the session's loop, where the grace timer runs.
  template <EgressClient C>
  bool Send(EventLoop& loop, const std::shared_ptr<C>& client, BytesView view,
            const std::shared_ptr<const Bytes>* shared, bool deliverClass) {
    Connection& conn = *client->conn;
    EgressState& state = client->egress;
    if (state.evicting || !conn.IsOpen()) return false;
    if (ShedNewest(state, deliverClass)) return false;
    const std::size_t before = conn.PendingBytes();
    const Status st = shared != nullptr ? conn.Send(*shared) : conn.Send(view);
    if (st.ok()) return true;
    if (st.code() != ErrorCode::kCapacity) return false;  // closed under us
    return Overflowed(loop, client, before);
  }

 private:
  enum class Verdict : std::uint8_t { kAccepted, kShed, kEvict, kArmGrace };

  template <EgressClient C>
  bool Overflowed(EventLoop& loop, const std::shared_ptr<C>& client,
                  std::size_t pendingBefore) {
    EgressState& state = client->egress;
    switch (OnCapacity(client->handle, *client->conn, state, pendingBefore)) {
      case Verdict::kAccepted:
        return true;
      case Verdict::kShed:
        return false;
      case Verdict::kEvict:
        Evict(*client);
        return false;
      case Verdict::kArmGrace:
        state.evictTimerArmed = true;
        loop.ScheduleTimer(cfg_.evictGrace, [this, client] {
          client->egress.evictTimerArmed = false;
          if (client->egress.overSoft && client->conn->IsOpen()) Evict(*client);
        });
        return true;
    }
    return false;
  }

  /// The close notice, then a flush-bounded close: a client that is merely
  /// slow (not dead) learns why. Idempotent.
  template <EgressClient C>
  void Evict(C& client) {
    if (!BeginEvict(client.handle, *client.conn, client.egress)) return;
    Bytes notice;
    client.EncodeEvictNotice(notice);
    (void)client.conn->Send(BytesView(notice));
    client.conn->CloseAfterFlush();
  }

  /// Accounting, depth sample, monitor and the policy's verdict.
  Verdict OnCapacity(std::uint64_t handle, const Connection& conn,
                     EgressState& state, std::size_t pendingBefore);
  /// Marks the session evicting and counts it; false if it already was.
  bool BeginEvict(std::uint64_t handle, const Connection& conn,
                  EgressState& state);
  void ClearOverSoft(EgressState& state);

  const BackpressureConfig cfg_;
  obs::SlowConsumerMetrics m_;
  verify::Monitor* const monitor_;
};

}  // namespace md::core
