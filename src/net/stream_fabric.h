// Multi-process fabric over stream sockets with an epoll readiness loop.
//
// One fabric serves both address families a hostfile can name:
// Unix-domain socket paths for processes on one node (what `gkfsd`, the
// preload shim and the in-process cluster use by default) and
// "host:port" TCP addresses across nodes. create() decides the family
// once per hostfile, which also picks the metric prefix (net.uds.* or
// net.tcp.*). Beyond that only four places look at it: the socket
// address build, TCP_NODELAY (TCP only), and on UDS unlinking a stale
// socket before bind and the fabric's own socket at shutdown.
//
// Every connection is multiplexed onto a small pool of event-loop
// threads, the Mercury design point for extreme-scale services ("RPC
// Approach for Extreme-scale Services", PAPERS.md):
//
//  - nonblocking sockets registered with one epoll instance per loop
//    thread; each connection is owned by exactly one loop,
//  - per-connection read buffers with partial-frame reassembly (a
//    frame may arrive across any number of readiness events),
//  - per-connection send queues: when the socket is idle a frame is
//    written inline from the sender's thread (zero-copy iovec gather);
//    when it is backed up, frames are flattened onto the queue and the
//    event loop coalesces the whole backlog into single sendmsg
//    calls (`coalesced_frames` counts frames that shared one flush
//    with others).
//
// Bulk transfer uses Mercury's send/recv fallback shape: bulk data is
// inlined into frames (read-exposed regions travel with the request;
// writable regions come back with the response). Frames use the shared
// wire::frame codec (33-byte minimum frame). Hostfile lines:
//
//   0 /tmp/gkfs/gkfsd.0.sock          (UDS)
//   0 127.0.0.1:9230                  (TCP)
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

class StreamFabric final : public Fabric {
 public:
  /// Parse a hostfile and construct a fabric for one process. The
  /// address family comes from the hostfile (options.transport, when
  /// not autodetect, must agree with it). Event loops start
  /// immediately.
  static Result<std::unique_ptr<StreamFabric>> create(
      const std::filesystem::path& hostfile, const MakeFabricOptions& options);

  ~StreamFabric() override;
  StreamFabric(const StreamFabric&) = delete;
  StreamFabric& operator=(const StreamFabric&) = delete;

  /// One endpoint per process (one Engine). Daemon role: starts the
  /// listener on its hostfile address. Client role: connect-only id.
  std::pair<EndpointId, std::shared_ptr<Inbox>> register_endpoint() override;
  Status send(EndpointId dest, Message msg) override;
  void deregister(EndpointId id) override;
  /// Synchronizes with the event loops: once this returns, no late
  /// kBulkResponseData frame can write into the caller's buffer.
  void cancel(std::uint64_t seq) override;
  Status bulk_pull(const BulkRegion& region, std::size_t offset,
                   std::span<std::uint8_t> out) override;
  Status bulk_push(const BulkRegion& region, std::size_t offset,
                   std::span<const std::uint8_t> data) override;
  [[nodiscard]] TrafficStats stats() const override;

  /// Endpoint ids of all daemons listed in the hostfile, ascending.
  [[nodiscard]] std::vector<EndpointId> daemon_ids() const {
    std::vector<EndpointId> out;
    out.reserve(hosts_.size());
    for (const auto& [id, addr] : hosts_) out.push_back(id);
    return out;
  }

  /// Write a hostfile for `n` daemons. uds: `dir/hosts.txt` naming
  /// `dir/gkfsd.<i>.sock`. tcp: `dir/tcp_hosts.txt` on 127.0.0.1 with
  /// currently free ports (each probed by binding port 0; released
  /// before this returns, so a well-timed other process could steal
  /// one — fine for tests and single-node benches, real deployments
  /// write their own hostfile with administered ports).
  static Result<std::filesystem::path> write_hostfile(
      const std::filesystem::path& dir, std::uint32_t n, Transport transport);

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
    Mutex out_mutex{"net.stream.out", lockdep::rank::kStreamOut};
    std::vector<std::uint8_t> out GEKKO_GUARDED_BY(out_mutex);
    std::size_t out_pos GEKKO_GUARDED_BY(out_mutex) = 0;
    /// Frames currently queued (feeds the coalescing metric).
    std::uint64_t out_frames GEKKO_GUARDED_BY(out_mutex) = 0;
    bool epollout_armed GEKKO_GUARDED_BY(out_mutex) = false;
  };

  /// `options.transport` is the hostfile's family, never autodetect.
  explicit StreamFabric(const MakeFabricOptions& options);

  Status start_loops_();
  Status start_listener_();
  /// Loop-thread callbacks.
  void accept_ready_();
  void on_readable_(const std::shared_ptr<Conn>& conn);
  void on_writable_(const std::shared_ptr<Conn>& conn);
  /// Parse every complete frame out of conn->rd; false = corrupt
  /// stream, kill the connection.
  bool drain_frames_(const std::shared_ptr<Conn>& conn);
  /// Route one decoded frame: apply response bulk (false on an
  /// out-of-range range), stash the reply route, push to the inbox,
  /// which runs the engine on this loop thread. False = connection
  /// must die.
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

  MakeFabricOptions options_;  // transport: uds or tcp, never autodetect
  std::map<EndpointId, std::string> hosts_;  // daemon id -> address
  EndpointId self_ = kInvalidEndpoint;
  std::shared_ptr<Inbox> inbox_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<std::size_t> next_loop_{0};

  Mutex conn_mutex_{"net.stream.conn", lockdep::rank::kStreamConn};
  std::map<EndpointId, std::shared_ptr<Conn>> outgoing_
      GEKKO_GUARDED_BY(conn_mutex_);
  std::vector<std::shared_ptr<Conn>> incoming_ GEKKO_GUARDED_BY(conn_mutex_);

  // Serving side: the response for a request goes back over the
  // connection it arrived on, carrying the (possibly written) owned
  // bulk buffer. Keyed by (requester id, seq) — seq alone collides
  // across client processes, which each count sequences from 1.
  struct PendingReply {
    std::shared_ptr<Conn> conn;
    BulkRegion writable_bulk;  // owned region, if the request had one
  };
  using ReplyKey = std::pair<EndpointId, std::uint64_t>;
  Mutex reply_mutex_{"net.stream.reply", lockdep::rank::kStreamReply};
  std::map<ReplyKey, PendingReply> pending_replies_
      GEKKO_GUARDED_BY(reply_mutex_);

  // Requesting side: writable regions waiting for response bulk, tied
  // to the connection the request left on so a dead link fails them
  // instead of leaking them.
  struct PendingWritable {
    BulkRegion region;
    std::shared_ptr<Conn> conn;
  };
  Mutex bulk_mutex_{"net.stream.bulk", lockdep::rank::kStreamBulk};
  std::map<std::uint64_t, PendingWritable> pending_writable_
      GEKKO_GUARDED_BY(bulk_mutex_);

  mutable Mutex stats_mutex_{"net.stream.stats", lockdep::rank::kStreamStats};
  TrafficStats stats_ GEKKO_GUARDED_BY(stats_mutex_){};

  // net.tcp.* or net.uds.* (prefix picked at construction; global
  // registry, cached; incremented lock-free on the data path).
  struct StreamMetrics {
    metrics::Counter* frames_out;
    metrics::Counter* frames_in;
    metrics::Counter* bytes_out;
    metrics::Counter* bytes_in;
    metrics::Counter* dials;
    metrics::Counter* redials;
    metrics::Counter* evictions;
    /// Bulk payload segments handed to an inline gathered sendmsg
    /// (zero-copy; a full socket queues the unsent tail).
    metrics::Counter* writev_segments;
    /// Event-loop queue flushes, and frames that went out sharing a
    /// flush with at least one other frame (write coalescing).
    metrics::Counter* flushes;
    metrics::Counter* coalesced_frames;
  };
  StreamMetrics m_;
};

/// Read + parse the hostfile and construct the fabric for its address
/// family (StreamFabric::create). A hostfile that mixes socket paths
/// and host:port lines, or an explicit transport that contradicts the
/// hostfile, fails with invalid_argument naming the offending address.
Result<std::unique_ptr<StreamFabric>> make_fabric(
    const std::filesystem::path& hostfile, const MakeFabricOptions& options);

}  // namespace gekko::net
