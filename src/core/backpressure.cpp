#include "core/backpressure.hpp"

#include "common/logging.hpp"
#include "verify/monitor.hpp"

namespace md::core {

ClientEgress::ClientEgress(const BackpressureConfig& cfg,
                           obs::MetricsRegistry& registry,
                           std::string_view labels, verify::Monitor* monitor)
    : cfg_(cfg), m_(registry, labels), monitor_(monitor) {}

ClientEgress::Verdict ClientEgress::OnCapacity(std::uint64_t handle,
                                               const Connection& conn,
                                               EgressState& state,
                                               std::size_t pendingBefore) {
  // kCapacity is ambiguous by design: over-soft Sends accept the bytes, over-
  // hard Sends reject the whole frame. PendingBytes moved iff accepted
  // (deterministic — this runs on the connection's loop thread).
  const std::size_t pending = conn.PendingBytes();
  const bool accepted = pending > pendingBefore;
  if (!state.overSoft) {
    state.overSoft = true;
    m_.softOverflows.Inc();
    m_.sessionsOverSoft.Add(1);
  }
  // Sample depth on every over-soft send (already the slow path): the
  // histogram's max is the peak backlog any session ever pinned, which is
  // what the hard watermark bounds.
  m_.queueDepthBytes.Record(static_cast<std::int64_t>(pending));
  if (monitor_ != nullptr) {
    monitor_->OnBackpressure(handle, pending, cfg_.hardWatermark);
  }
  if (cfg_.policy == OverflowPolicy::kDisconnect) {
    // A hard reject lost the frame and the stream has a gap: the only
    // correct continuation is eviction — an at-least-once client reconnects
    // and backfills past the gap. A soft accept gets the grace instead: a
    // healthy client absorbing a burst drains below the low mark before the
    // timer fires and survives; a stalled one is still over soft.
    if (!accepted) return Verdict::kEvict;
    return state.evictTimerArmed ? Verdict::kAccepted : Verdict::kArmGrace;
  }
  if (accepted) return Verdict::kAccepted;
  m_.dropped.Inc();  // kConflate/kDropNewest past the hard mark: shed
  return Verdict::kShed;
}

bool ClientEgress::BeginEvict(std::uint64_t handle, const Connection& conn,
                              EgressState& state) {
  if (state.evicting) return false;
  state.evicting = true;
  m_.disconnects.Inc();
  MD_INFO("evicting slow consumer %llu (%s): %zu bytes pending",
          static_cast<unsigned long long>(handle), conn.PeerName().c_str(),
          conn.PendingBytes());
  return true;
}

void ClientEgress::ClearOverSoft(EgressState& state) {
  if (!state.overSoft) return;
  state.overSoft = false;
  m_.sessionsOverSoft.Add(-1);
}

}  // namespace md::core
