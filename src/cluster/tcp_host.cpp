#include "cluster/tcp_host.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace md::cluster {

namespace {
constexpr std::size_t kMaxBacklogFrames = 4096;
}

// ---------------------------------------------------------------------------
// Environments
// ---------------------------------------------------------------------------

class TcpClusterHost::NodeEnv final : public ClusterEnv {
 public:
  NodeEnv(TcpClusterHost& host, std::uint64_t seed) : host_(host), rng_(seed) {}

  void SendToPeer(const std::string& serverId, const Frame& frame) override {
    host_.SendToPeers({&serverId, 1}, frame);
  }

  void SendToPeers(const std::vector<std::string>& serverIds,
                   const Frame& frame) override {
    host_.SendToPeers(serverIds, frame);
  }

  void SendToClient(ClientHandle client, const Frame& frame) override {
    const auto it = host_.clients_.find(client);
    if (it == host_.clients_.end()) return;
    Observe(client, frame);
    Bytes wire;
    EncodeFramed(frame, wire);
    (void)host_.egress_.Send(*host_.loop_, it->second, BytesView(wire), nullptr,
                             std::holds_alternative<DeliverFrame>(frame));
  }

  void SendToClients(const std::vector<ClientHandle>& clients,
                     const Frame& frame) override {
    // Fan-out fast path: encode once into a pooled refcounted buffer and
    // share it across every target's send queue — N subscribers cost one
    // encode and zero per-subscriber copies. Each write still goes through
    // the watermark-checked path, so one stalled subscriber in the batch
    // cannot buffer the host to death.
    const bool deliverClass = std::holds_alternative<DeliverFrame>(frame);
    std::shared_ptr<Bytes> wire;
    for (const ClientHandle client : clients) {
      const auto it = host_.clients_.find(client);
      if (it == host_.clients_.end()) continue;
      Observe(client, frame);
      if (!wire) {
        wire = AcquireWireBuffer();
        EncodeFramed(frame, *wire);
      }
      const std::shared_ptr<const Bytes> shared = wire;
      (void)host_.egress_.Send(*host_.loop_, it->second, BytesView(*wire),
                               &shared, deliverClass);
    }
  }

  void CloseClient(ClientHandle client) override {
    // Sends are deferred to the loop's flush pass, so a notice sent just
    // before this (fence DISCONNECT, hand-off HANDOFF) and any deliveries
    // queued this round are still in the send queue: flush, then close.
    auto node = host_.clients_.extract(client);
    if (!node.empty()) node.mapped()->conn->CloseAfterFlush();
  }

  std::uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    return host_.loop_->ScheduleTimer(delay, std::move(fn));
  }
  void Cancel(std::uint64_t timerId) override { host_.loop_->CancelTimer(timerId); }
  [[nodiscard]] TimePoint Now() const override { return host_.loop_->Now(); }
  std::uint64_t Random() override { return rng_.Next(); }

 private:
  // Runtime verification tap: every DELIVER the node emits toward a client
  // passes through here, on the loop thread, in emission order.
  void Observe(ClientHandle client, const Frame& frame) {
    verify::Monitor* monitor = host_.monitor_.get();
    if (monitor == nullptr) return;
    if (const auto* deliver = std::get_if<DeliverFrame>(&frame)) {
      monitor->OnDelivery(client, deliver->msg.topic, PosOf(deliver->msg),
                          deliver->msg.pubId);
    }
  }

  TcpClusterHost& host_;
  Rng rng_;
};

class TcpClusterHost::CoordEnv final : public coord::Env {
 public:
  CoordEnv(TcpClusterHost& host, std::uint64_t seed) : host_(host), rng_(seed) {}

  void Send(coord::NodeId to, const coord::CoordMsg& msg) override {
    host_.SendCoordMsg(to, msg);
  }
  std::uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    return host_.loop_->ScheduleTimer(delay, std::move(fn));
  }
  void Cancel(std::uint64_t timerId) override { host_.loop_->CancelTimer(timerId); }
  [[nodiscard]] TimePoint Now() const override { return host_.loop_->Now(); }
  std::uint64_t Random() override { return rng_.Next(); }

 private:
  TcpClusterHost& host_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

namespace {

obs::MetricsRegistry& RegistryOf(const TcpHostConfig& cfg) {
  return cfg.cluster.metrics != nullptr ? *cfg.cluster.metrics
                                        : obs::MetricsRegistry::Default();
}

}  // namespace

TcpClusterHost::TcpClusterHost(TcpHostConfig cfg)
    : cfg_(std::move(cfg)),
      tm_(RegistryOf(cfg_), obs::ServerLabel(cfg_.serverId)),
      monitor_(verify::MakeHostMonitor(cfg_.runtimeVerify, RegistryOf(cfg_),
                                       cfg_.verifyConfig, cfg_.serverId)),
      egress_(cfg_.clientBackpressure, RegistryOf(cfg_),
              obs::ServerLabel(cfg_.serverId), monitor_.get()) {
  loop_ = CreateNetLoop(cfg_.eventLoop);
  loop_->SetMetrics(&tm_);
  nodeEnv_ = std::make_unique<NodeEnv>(*this, cfg_.seed);
  coordEnv_ = std::make_unique<CoordEnv>(*this, cfg_.seed + 1);
}

TcpClusterHost::~TcpClusterHost() { Stop(); }

Status TcpClusterHost::Bind() {
  if (bound_) return OkStatus();
  auto bind = [&](std::uint16_t port, ListenerPtr& out,
                  std::uint16_t& actual) -> Status {
    auto listener = loop_->Listen(port);
    if (!listener.ok()) return listener.status();
    out = std::move(*listener);
    actual = out->Port();
    return OkStatus();
  };
  if (Status s = bind(cfg_.clientPort, clientListener_, clientPort_); !s.ok()) return s;
  if (Status s = bind(cfg_.peerPort, peerListener_, peerPort_); !s.ok()) return s;
  if (Status s = bind(cfg_.coordPort, coordListener_, coordPort_); !s.ok()) return s;
  bound_ = true;
  return OkStatus();
}

void TcpClusterHost::SetPeers(std::vector<TcpPeerAddress> peers) {
  cfg_.peers = std::move(peers);
}

Status TcpClusterHost::Start() {
  if (cfg_.clientBackpressure.policy == core::OverflowPolicy::kConflate) {
    return Err(ErrorCode::kInvalidArgument,
               "kConflate needs core::Server's Conflator; cluster hosts run "
               "kDisconnect or kDropNewest");
  }
  if (running_.exchange(true)) return Err(ErrorCode::kAlreadyExists, "running");
  if (Status s = Bind(); !s.ok()) {
    running_.store(false);
    return s;
  }

  // The nodes are built here rather than in the constructor: membership
  // comes from cfg_.peers, which SetPeers may fill in after Bind().
  std::vector<coord::NodeId> members{cfg_.nodeId};
  std::vector<std::string> peerIds;
  for (const auto& peer : cfg_.peers) {
    members.push_back(peer.nodeId);
    peerIds.push_back(peer.serverId);
  }
  std::sort(members.begin(), members.end());
  coordNode_ = std::make_unique<coord::CoordNode>(cfg_.nodeId, members,
                                                  *coordEnv_, cfg_.coord);
  ClusterConfig clusterCfg = cfg_.cluster;
  clusterCfg.serverId = cfg_.serverId;
  node_ = std::make_unique<ClusterNode>(clusterCfg, *nodeEnv_, *coordNode_,
                                        peerIds);

  clientListener_->SetAcceptHandler(
      [this](ConnectionPtr conn) { OnClientAccept(std::move(conn)); });
  peerListener_->SetAcceptHandler(
      [this](ConnectionPtr conn) { OnPeerAccept(std::move(conn)); });
  coordListener_->SetAcceptHandler(
      [this](ConnectionPtr conn) { OnCoordAccept(std::move(conn)); });

  thread_ = std::thread([this] { loop_->Run(); });
  loop_->Post([this] {
    coordNode_->Start();
    node_->Start();
    RetryLinks();
  });
  MD_INFO("%s: cluster host up (client %u, peer %u, coord %u)",
          cfg_.serverId.c_str(), clientPort_, peerPort_, coordPort_);
  return OkStatus();
}

void TcpClusterHost::Stop() {
  if (!running_.exchange(false)) return;
  loop_->Post([this] {
    node_->Crash();
    coordNode_->Crash();
    for (auto& [handle, client] : clients_) client->conn->Close();
    clients_.clear();
    for (auto& [id, link] : peerLinks_) {
      if (link.conn) link.conn->Close();
    }
    peerLinks_.clear();
    for (auto& [id, link] : coordLinks_) {
      if (link.conn) link.conn->Close();
    }
    coordLinks_.clear();
    clientListener_.reset();
    peerListener_.reset();
    coordListener_.reset();
  });
  loop_->Stop();
  if (thread_.joinable()) thread_.join();
  bound_ = false;  // the stop task released the listeners
}

void TcpClusterHost::WithNode(const std::function<void(ClusterNode&)>& fn) {
  std::atomic<bool> done{false};
  loop_->Post([&] {
    fn(*node_);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
}

void TcpClusterHost::WithCoord(const std::function<void(coord::CoordNode&)>& fn) {
  std::atomic<bool> done{false};
  loop_->Post([&] {
    fn(*coordNode_);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

void TcpClusterHost::OnClientAccept(ConnectionPtr conn) {
  const ClientHandle handle = nextHandle_++;
  auto client = std::make_shared<ClientConn>();
  client->handle = handle;
  client->conn = conn;
  clients_[handle] = client;
  egress_.Attach(client);

  conn->SetDataHandler([this, handle, client](BytesView data) {
    if (client->Receive(data, *node_)) return;
    client->conn->Close();
    clients_.erase(handle);
    node_->OnClientDisconnect(handle);
  });
  conn->SetCloseHandler([this, handle, client] {
    egress_.OnClosed(client->egress);
    clients_.erase(handle);
    node_->OnClientDisconnect(handle);
  });
}

// ---------------------------------------------------------------------------
// Peer (cluster-frame) links
// ---------------------------------------------------------------------------

const TcpPeerAddress* TcpClusterHost::PeerById(const std::string& serverId) const {
  for (const auto& peer : cfg_.peers) {
    if (peer.serverId == serverId) return &peer;
  }
  return nullptr;
}

const TcpPeerAddress* TcpClusterHost::PeerByNode(coord::NodeId nodeId) const {
  for (const auto& peer : cfg_.peers) {
    if (peer.nodeId == nodeId) return &peer;
  }
  return nullptr;
}

void TcpClusterHost::OnPeerAccept(ConnectionPtr conn) {
  // Identity arrives with the first frame (HELLO).
  auto inbox = std::make_shared<ByteQueue>();
  auto identified = std::make_shared<bool>(false);
  conn->SetDataHandler([this, conn, inbox, identified](BytesView data) {
    inbox->Append(data);
    while (true) {
      auto r = ExtractFrame(*inbox);
      if (!r.status.ok()) {
        conn->Close();
        return;
      }
      if (!r.frame) return;
      if (!*identified) {
        const auto* hello = std::get_if<HelloFrame>(&*r.frame);
        if (hello == nullptr) {
          conn->Close();
          return;
        }
        *identified = true;
        AdoptPeerConnection(hello->serverId, conn);
        continue;
      }
      // Already identified: find who this connection belongs to.
      for (auto& [serverId, link] : peerLinks_) {
        if (link.conn == conn) {
          node_->OnPeerFrame(serverId, *r.frame);
          break;
        }
      }
    }
  });
}

void TcpClusterHost::AdoptPeerConnection(const std::string& serverId,
                                         ConnectionPtr conn) {
  PeerLink& link = peerLinks_[serverId];
  // The replaced link may still hold frames queued this round; let them
  // reach the peer before closing it.
  if (link.conn && link.conn != conn) link.conn->CloseAfterFlush();
  link.conn = conn;
  link.connecting = false;
  // Only this connection's own close may clear the link: a replaced link
  // closes after its successor was adopted.
  conn->SetCloseHandler([this, serverId, self = conn.get()] {
    auto it = peerLinks_.find(serverId);
    if (it != peerLinks_.end() && it->second.conn.get() == self) {
      it->second.conn.reset();
    }
  });
  // Flush anything queued while the link was down.
  for (const Bytes& wire : link.backlog) (void)conn->Send(BytesView(wire));
  link.backlog.clear();
  // Link recovery: incremental cache sync against this peer (§5.2.2).
  node_->SyncFromPeer(serverId);
}

void TcpClusterHost::EnsurePeerLink(const std::string& serverId) {
  PeerLink& link = peerLinks_[serverId];
  if (link.conn || link.connecting) return;
  const TcpPeerAddress* peer = PeerById(serverId);
  if (peer == nullptr || peer->peerPort == 0) return;
  link.connecting = true;
  loop_->Connect(peer->host, peer->peerPort, [this, serverId](Result<ConnectionPtr> r) {
    PeerLink& link = peerLinks_[serverId];
    link.connecting = false;
    if (!r.ok()) return;  // retry timer will try again
    ConnectionPtr conn = std::move(r).value();
    // Identify ourselves, then adopt.
    Bytes hello;
    EncodeFramed(Frame(HelloFrame{cfg_.serverId}), hello);
    (void)conn->Send(BytesView(hello));
    // Incoming frames on an outgoing connection are peer frames directly.
    auto inbox = std::make_shared<ByteQueue>();
    conn->SetDataHandler([this, serverId, conn, inbox](BytesView data) {
      inbox->Append(data);
      while (true) {
        auto fr = ExtractFrame(*inbox);
        if (!fr.status.ok()) {
          conn->Close();
          return;
        }
        if (!fr.frame) return;
        node_->OnPeerFrame(serverId, *fr.frame);
      }
    });
    AdoptPeerConnection(serverId, conn);
  });
}

void TcpClusterHost::SendToPeers(std::span<const std::string> serverIds,
                                 const Frame& frame) {
  // One encode per frame, whatever the number of peers. Each open link
  // copies the bytes into its send queue's coalescing tail, so the scratch
  // buffer is free again on return and peer frames of one loop round leave
  // in one sendmsg per link. (A connect never completes inside Send or
  // EnsurePeerLink, so nothing re-enters this while the loop runs.)
  peerScratch_.clear();
  EncodeFramed(frame, peerScratch_);
  const BytesView wire(peerScratch_);
  for (const std::string& serverId : serverIds) {
    PeerLink& link = peerLinks_[serverId];
    if (link.conn && link.conn->IsOpen()) {
      (void)link.conn->Send(wire);
      continue;
    }
    if (link.backlog.size() < kMaxBacklogFrames) {
      link.backlog.emplace_back(wire.begin(), wire.end());
    }
    EnsurePeerLink(serverId);
  }
}

// ---------------------------------------------------------------------------
// Coordination links
// ---------------------------------------------------------------------------

void TcpClusterHost::OnCoordAccept(ConnectionPtr conn) {
  auto inbox = std::make_shared<ByteQueue>();
  auto fromNode = std::make_shared<coord::NodeId>(0);
  conn->SetDataHandler([this, conn, inbox, fromNode](BytesView data) {
    inbox->Append(data);
    if (*fromNode == 0) {
      // Varint node-id preamble.
      ByteReader r(inbox->Peek());
      std::uint64_t id = 0;
      if (!r.ReadVarint(id).ok()) return;  // need more bytes
      inbox->Consume(r.position());
      *fromNode = static_cast<coord::NodeId>(id);
    }
    while (true) {
      auto r = coord::ExtractCoordMsg(*inbox);
      if (!r.status.ok()) {
        conn->Close();
        return;
      }
      if (!r.msg) return;
      coordNode_->HandleMessage(*fromNode, *r.msg);
    }
  });
}

void TcpClusterHost::EnsureCoordLink(coord::NodeId nodeId) {
  CoordLink& link = coordLinks_[nodeId];
  if (link.conn || link.connecting) return;
  const TcpPeerAddress* peer = PeerByNode(nodeId);
  if (peer == nullptr || peer->coordPort == 0) return;
  link.connecting = true;
  loop_->Connect(peer->host, peer->coordPort, [this, nodeId](Result<ConnectionPtr> r) {
    CoordLink& link = coordLinks_[nodeId];
    link.connecting = false;
    if (!r.ok()) return;
    link.conn = std::move(r).value();
    link.conn->SetCloseHandler([this, nodeId] {
      auto it = coordLinks_.find(nodeId);
      if (it != coordLinks_.end()) it->second.conn.reset();
    });
    // Preamble: who we are.
    Bytes preamble;
    ByteWriter w(preamble);
    w.WriteVarint(cfg_.nodeId);
    (void)link.conn->Send(BytesView(preamble));
    for (const Bytes& wire : link.backlog) (void)link.conn->Send(BytesView(wire));
    link.backlog.clear();
  });
}

void TcpClusterHost::SendCoordMsg(coord::NodeId to, const coord::CoordMsg& msg) {
  Bytes wire;
  coord::EncodeCoordFramed(msg, wire);
  CoordLink& link = coordLinks_[to];
  if (link.conn && link.conn->IsOpen()) {
    (void)link.conn->Send(BytesView(wire));
    return;
  }
  if (link.backlog.size() < kMaxBacklogFrames) link.backlog.push_back(std::move(wire));
  EnsureCoordLink(to);
}

void TcpClusterHost::RetryLinks() {
  if (!running_.load(std::memory_order_relaxed)) return;
  for (const auto& peer : cfg_.peers) {
    EnsurePeerLink(peer.serverId);
    EnsureCoordLink(peer.nodeId);
  }
  loop_->ScheduleTimer(cfg_.peerRetryInterval, [this] { RetryLinks(); });
}

}  // namespace md::cluster
