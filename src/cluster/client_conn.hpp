// A client connection as the cluster hosts (TcpClusterHost, SimCluster) hold
// it: the record their core::ClientEgress writes through.
#pragma once

#include "cluster/node.hpp"
#include "core/backpressure.hpp"
#include "proto/codec.hpp"
#include "transport/transport.hpp"

namespace md::cluster {

struct ClientConn {
  ClientHandle handle = 0;
  ConnectionPtr conn;
  ByteQueue in;  // received bytes not yet parsed into frames
  core::EgressState egress;

  /// Appends received bytes and hands each complete frame to `node`; false
  /// on a framing error (the caller drops the client).
  bool Receive(BytesView data, ClusterNode& node) {
    in.Append(data);
    while (true) {
      auto r = ExtractFrame(in);
      if (!r.status.ok()) return false;
      if (!r.frame) return true;
      node.OnClientFrame(handle, *r.frame);
    }
  }

  /// The slow-consumer eviction notice: a framed-protocol DISCONNECT.
  void EncodeEvictNotice(Bytes& out) const {
    EncodeFramed(Frame(DisconnectFrame{"slow consumer: send queue overflow"}),
                 out);
  }
};

}  // namespace md::cluster
