// Multi-process fabric over Unix-domain sockets.
//
// This is the transport that turns the in-process system into a REAL
// deployment: `gkfsd` daemon processes listen on sockets enumerated in
// a hostfile (the role the shared hosts file plays for real GekkoFS),
// and client processes connect on demand. The Engine/daemon/client
// code is identical to the loopback case — only the Fabric differs.
//
// Bulk transfer uses Mercury's send/recv fallback shape: bulk data is
// inlined into frames (read-exposed regions travel with the request;
// writable regions come back with the response). True one-sided RDMA
// needs NIC support that a Unix socket cannot express.
//
// Hostfile format: one "<endpoint-id> <socket-path>" per line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/fabric.h"
#include "net/frame_codec.h"
#include "net/transport.h"

namespace gekko::net {

struct SocketFabricOptions {
  /// Daemon role: serve on the hostfile entry for `self_id`.
  /// Client role (self_id == kInvalidEndpoint): connect-only.
  EndpointId self_id = kInvalidEndpoint;
  /// Upper bound for one wire frame, enforced on BOTH sides: the
  /// sender fails oversized frames with Errc::overflow before any
  /// bytes hit the wire (instead of silently killing the peer's
  /// connection), and the receiver drops connections that announce a
  /// larger frame. All processes sharing a hostfile must agree.
  std::uint32_t max_frame_bytes = 1u << 30;
};

class SocketFabric final : public HostedFabric {
 public:
  /// Parse a hostfile and construct a fabric for one process.
  static Result<std::unique_ptr<SocketFabric>> create(
      const std::filesystem::path& hostfile, SocketFabricOptions options);

  ~SocketFabric() override;
  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  /// One endpoint per process (one Engine). Daemon role: starts the
  /// listener on its hostfile socket. Client role: connect-only id.
  std::pair<EndpointId, std::shared_ptr<Inbox>> register_endpoint() override;

  Status send(EndpointId dest, Message msg) override;
  void deregister(EndpointId id) override;

  /// Unregister the writable bulk region for `seq`. Synchronizes with
  /// the reader threads: once this returns, no late kBulkResponseData
  /// frame can write into the caller's buffer.
  void cancel(std::uint64_t seq) override;

  Status bulk_pull(const BulkRegion& region, std::size_t offset,
                   std::span<std::uint8_t> out) override;
  Status bulk_push(const BulkRegion& region, std::size_t offset,
                   std::span<const std::uint8_t> data) override;

  [[nodiscard]] TrafficStats stats() const override;

  /// Endpoint ids of all daemons listed in the hostfile, ascending.
  [[nodiscard]] std::vector<EndpointId> daemon_ids() const override {
    std::vector<EndpointId> out;
    out.reserve(hosts_.size());
    for (const auto& [id, path] : hosts_) out.push_back(id);
    return out;
  }

  /// Write a hostfile for `n` daemons with sockets under `dir`.
  static Result<std::filesystem::path> write_hostfile(
      const std::filesystem::path& dir, std::uint32_t n);

 private:
  explicit SocketFabric(SocketFabricOptions options);

  struct Connection {
    int fd = -1;
    /// Dialed daemon id (outgoing only; accepted conns stay invalid).
    EndpointId peer = kInvalidEndpoint;
    /// Set when the reader loop exits or a write fails: the link is
    /// unusable and the next send() to `peer` must redial.
    std::atomic<bool> dead{false};
    /// Serializes whole frames onto the socket (one writer at a time);
    /// the fd itself is only written under it.
    Mutex write_mutex{"net.socket.write", lockdep::rank::kSocketWrite};
    std::thread reader;
  };

  Status start_listener_();
  void accept_loop_(int listen_fd);
  void reader_loop_(std::shared_ptr<Connection> conn);
  /// Route one decoded frame: apply response bulk (killing the
  /// connection on out-of-range ranges), stash the reply route, push
  /// to the inbox, which runs the engine on this reader thread.
  /// False = connection must die.
  bool deliver_frame_(const std::shared_ptr<Connection>& conn,
                      wire::DecodedFrame decoded);
  Result<std::shared_ptr<Connection>> connect_to_(EndpointId dest);
  Status write_frame_(Connection& conn, const Message& msg,
                      const BulkRegion* bulk_out);
  /// Remove a dead connection from the routing maps, fail every
  /// in-flight entry tied to it, and park it for joining. Safe from
  /// any thread, including the connection's own reader.
  void evict_(const std::shared_ptr<Connection>& conn);
  void park_zombie_locked_(const std::shared_ptr<Connection>& conn);
  void kill_connection_(EndpointId dest, const Message& msg);
  void shutdown_();

  SocketFabricOptions options_;
  std::map<EndpointId, std::string> hosts_;  // daemon id -> socket path
  EndpointId self_ = kInvalidEndpoint;
  std::shared_ptr<Inbox> inbox_;

  int listen_fd_ = -1;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  Mutex conn_mutex_{"net.socket.conn", lockdep::rank::kSocketConn};
  std::map<EndpointId, std::shared_ptr<Connection>> outgoing_
      GEKKO_GUARDED_BY(conn_mutex_);
  std::vector<std::shared_ptr<Connection>> incoming_
      GEKKO_GUARDED_BY(conn_mutex_);
  /// Evicted connections whose reader threads still need joining
  /// (a thread cannot join itself); reaped in shutdown_().
  std::vector<std::shared_ptr<Connection>> zombies_
      GEKKO_GUARDED_BY(conn_mutex_);

  // Request context on the serving side: the response for a request
  // goes back over the connection it arrived on, carrying the
  // (possibly written) owned bulk buffer. Keyed by (requester id, seq)
  // — seq alone collides across client processes, which each count
  // sequences from 1.
  struct PendingReply {
    std::shared_ptr<Connection> conn;
    BulkRegion writable_bulk;  // owned region, if the request had one
  };
  using ReplyKey = std::pair<EndpointId, std::uint64_t>;
  Mutex reply_mutex_{"net.socket.reply", lockdep::rank::kSocketReply};
  std::map<ReplyKey, PendingReply> pending_replies_
      GEKKO_GUARDED_BY(reply_mutex_);

  // Requesting side: writable regions waiting for response bulk,
  // tied to the connection the request left on so a dead link fails
  // them instead of leaking them.
  struct PendingWritable {
    BulkRegion region;
    std::shared_ptr<Connection> conn;
  };
  Mutex bulk_mutex_{"net.socket.bulk", lockdep::rank::kSocketBulk};
  std::map<std::uint64_t, PendingWritable> pending_writable_
      GEKKO_GUARDED_BY(bulk_mutex_);

  mutable Mutex stats_mutex_{"net.socket.stats", lockdep::rank::kSocketStats};
  TrafficStats stats_ GEKKO_GUARDED_BY(stats_mutex_){};

  // Transport-level telemetry (global registry, cached at construction;
  // incremented lock-free on the data path).
  struct SocketMetrics {
    metrics::Counter* frames_out;
    metrics::Counter* frames_in;
    metrics::Counter* bytes_out;
    metrics::Counter* bytes_in;
    metrics::Counter* dials;
    metrics::Counter* redials;
    metrics::Counter* evictions;
    /// Bulk payload segments gathered zero-copy by sendmsg (counts
    /// external iovec entries, not scratch/header pieces).
    metrics::Counter* writev_segments;
  };
  SocketMetrics m_;
};

}  // namespace gekko::net
