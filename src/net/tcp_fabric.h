// Multi-process fabric over TCP with an epoll readiness loop.
//
// Where SocketFabric (socket_fabric.h) runs one blocking reader thread
// per connection — fine for a handful of local processes, fatal for
// thousands of clients — TcpFabric multiplexes every connection onto a
// small pool of event-loop threads, the Mercury design point for
// extreme-scale services ("RPC Approach for Extreme-scale Services",
// PAPERS.md):
//
//  - nonblocking sockets registered with one epoll instance per loop
//    thread; each connection is owned by exactly one loop,
//  - per-connection read buffers with partial-frame reassembly (a
//    frame may arrive across any number of readiness events),
//  - per-connection send queues: when the socket is idle a frame is
//    written inline from the sender's thread (zero-copy iovec gather);
//    when it is backed up, frames are flattened onto the queue and the
//    event loop coalesces the whole backlog into single sendmsg
//    calls (net.tcp.coalesced_frames counts frames that shared one
//    flush with others).
//
// The wire format is byte-identical to SocketFabric's (shared
// wire::frame codec, 33-byte minimum frame), so everything above the
// transport — redial/eviction, FaultInjector, trace-id propagation —
// behaves the same. Hostfile lines carry "host:port" addresses:
//
//   0 127.0.0.1:9230
//   1 10.0.0.7:9230
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/fabric.h"
#include "net/frame_codec.h"
#include "net/transport.h"

namespace gekko::net {

struct TcpFabricOptions {
  /// Daemon role: serve on the hostfile entry for `self_id`.
  /// Client role (self_id == kInvalidEndpoint): connect-only.
  EndpointId self_id = kInvalidEndpoint;
  /// Upper bound for one wire frame, enforced on both sides (see
  /// SocketFabricOptions::max_frame_bytes).
  std::uint32_t max_frame_bytes = 1u << 30;
  /// Event-loop threads multiplexing all connections (0 = 2). Two
  /// suffice for a node: a loop completes responses and queues requests
  /// on the engine's handler pool, where the actual RPC work runs.
  std::size_t event_loops = 2;
  int listen_backlog = 128;
};

class TcpFabric final : public HostedFabric {
 public:
  /// Parse a hostfile of "<id> <host>:<port>" lines and construct a
  /// fabric for one process. Event loops start immediately.
  static Result<std::unique_ptr<TcpFabric>> create(
      const std::filesystem::path& hostfile, TcpFabricOptions options);

  ~TcpFabric() override;
  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  std::pair<EndpointId, std::shared_ptr<Inbox>> register_endpoint() override;
  Status send(EndpointId dest, Message msg) override;
  void deregister(EndpointId id) override;
  void cancel(std::uint64_t seq) override;
  Status bulk_pull(const BulkRegion& region, std::size_t offset,
                   std::span<std::uint8_t> out) override;
  Status bulk_push(const BulkRegion& region, std::size_t offset,
                   std::span<const std::uint8_t> data) override;
  [[nodiscard]] TrafficStats stats() const override;

  [[nodiscard]] std::vector<EndpointId> daemon_ids() const override {
    std::vector<EndpointId> out;
    out.reserve(hosts_.size());
    for (const auto& [id, addr] : hosts_) out.push_back(id);
    return out;
  }

  /// Write a hostfile for `n` daemons on 127.0.0.1, picking currently
  /// free ports (each probed by binding port 0). Ports are released
  /// before this returns, so a well-timed other process could steal
  /// one — fine for tests and single-node benches, real deployments
  /// write their own hostfile with administered ports.
  static Result<std::filesystem::path> write_hostfile(
      const std::filesystem::path& dir, std::uint32_t n);

 private:
  class EventLoop;

  struct Conn {
    ~Conn();
    int fd = -1;
    /// Dialed daemon id (outgoing only; accepted conns stay invalid).
    EndpointId peer = kInvalidEndpoint;
    /// Set when the link is unusable; the next send() to `peer`
    /// redials.
    std::atomic<bool> dead{false};
    /// The loop that owns readiness for this fd.
    EventLoop* loop = nullptr;

    // Read-side reassembly state. Touched ONLY by the owning loop
    // thread (each fd lives in exactly one epoll set), so it needs no
    // lock.
    std::vector<std::uint8_t> rd;
    std::size_t rd_pos = 0;

    // Send queue. Senders append (or write inline when empty); the
    // event loop drains on EPOLLOUT.
    Mutex out_mutex{"net.tcp.out", lockdep::rank::kTcpOut};
    std::vector<std::uint8_t> out GEKKO_GUARDED_BY(out_mutex);
    std::size_t out_pos GEKKO_GUARDED_BY(out_mutex) = 0;
    /// Frames currently queued (feeds the coalescing metric).
    std::uint64_t out_frames GEKKO_GUARDED_BY(out_mutex) = 0;
    bool epollout_armed GEKKO_GUARDED_BY(out_mutex) = false;
  };

  explicit TcpFabric(TcpFabricOptions options);

  Status start_loops_();
  Status start_listener_();
  /// Loop-thread callbacks.
  void accept_ready_();
  void on_readable_(const std::shared_ptr<Conn>& conn);
  void on_writable_(const std::shared_ptr<Conn>& conn);
  /// Parse every complete frame out of conn->rd; false = corrupt
  /// stream, kill the connection.
  bool drain_frames_(const std::shared_ptr<Conn>& conn);
  bool deliver_frame_(const std::shared_ptr<Conn>& conn,
                      wire::DecodedFrame decoded);

  Result<std::shared_ptr<Conn>> connect_to_(EndpointId dest);
  /// Queue or inline-write one encoded frame.
  Status send_frame_(Conn& conn, const wire::EncodedFrame& frame);
  EventLoop* pick_loop_();

  /// Sever + deregister + fail everything tied to this connection.
  /// Safe from any thread, including loop threads.
  void kill_conn_(const std::shared_ptr<Conn>& conn);
  void evict_(const std::shared_ptr<Conn>& conn);
  void kill_connection_(EndpointId dest, const Message& msg);
  void shutdown_();

  [[nodiscard]] bool stopping_now_() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  TcpFabricOptions options_;
  std::map<EndpointId, std::string> hosts_;  // daemon id -> host:port
  EndpointId self_ = kInvalidEndpoint;
  std::shared_ptr<Inbox> inbox_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<std::size_t> next_loop_{0};

  Mutex conn_mutex_{"net.tcp.conn", lockdep::rank::kTcpConn};
  std::map<EndpointId, std::shared_ptr<Conn>> outgoing_
      GEKKO_GUARDED_BY(conn_mutex_);
  std::vector<std::shared_ptr<Conn>> incoming_ GEKKO_GUARDED_BY(conn_mutex_);

  // Serving side: response routes (see socket_fabric.h — identical
  // contract, keyed by (requester id, seq)).
  struct PendingReply {
    std::shared_ptr<Conn> conn;
    BulkRegion writable_bulk;
  };
  using ReplyKey = std::pair<EndpointId, std::uint64_t>;
  Mutex reply_mutex_{"net.tcp.reply", lockdep::rank::kTcpReply};
  std::map<ReplyKey, PendingReply> pending_replies_
      GEKKO_GUARDED_BY(reply_mutex_);

  // Requesting side: writable regions awaiting response bulk.
  struct PendingWritable {
    BulkRegion region;
    std::shared_ptr<Conn> conn;
  };
  Mutex bulk_mutex_{"net.tcp.bulk", lockdep::rank::kTcpBulk};
  std::map<std::uint64_t, PendingWritable> pending_writable_
      GEKKO_GUARDED_BY(bulk_mutex_);

  mutable Mutex stats_mutex_{"net.tcp.stats", lockdep::rank::kTcpStats};
  TrafficStats stats_ GEKKO_GUARDED_BY(stats_mutex_){};

  // net.tcp.* families mirror net.socket.* (global registry, cached at
  // construction; incremented lock-free on the data path).
  struct TcpMetrics {
    metrics::Counter* frames_out;
    metrics::Counter* frames_in;
    metrics::Counter* bytes_out;
    metrics::Counter* bytes_in;
    metrics::Counter* dials;
    metrics::Counter* redials;
    metrics::Counter* evictions;
    /// Bulk payload segments gathered zero-copy by inline sendmsg.
    metrics::Counter* writev_segments;
    /// Event-loop queue flushes, and frames that went out sharing a
    /// flush with at least one other frame (write coalescing).
    metrics::Counter* flushes;
    metrics::Counter* coalesced_frames;
  };
  TcpMetrics m_;
};

}  // namespace gekko::net
