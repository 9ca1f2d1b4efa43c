// Fabric interface + the in-process loopback implementation.
//
// A Fabric is what Mercury's transport layer is to GekkoFS: endpoints
// register, messages are delivered reliably to inboxes, and bulk
// regions support one-sided-style transfers. Two implementations:
//  - LoopbackFabric (here): all endpoints in one process; bulk ops are
//    memcpys. Used by tests, benches, and the in-process cluster.
//  - StreamFabric (stream_fabric.h): endpoints across PROCESSES with a
//    hostfile, for real `gkfsd` daemons, over Unix-domain sockets or
//    TCP, multiplexed onto a few epoll event loops. Bulk data is
//    inlined into frames (Mercury's send/recv fallback path when RDMA
//    is unavailable).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/message.h"

namespace gekko::net {

/// Traffic counters, per endpoint and global.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t bulk_bytes_pulled = 0;
  std::uint64_t bulk_bytes_pushed = 0;
};

/// One-shot fault decision for a single send(). Fields combine: e.g.
/// kill_connection + drop simulates a daemon dying mid-RPC (the link is
/// severed AND the in-flight message is lost).
struct FaultAction {
  /// Message vanishes; the sender still observes success (a real lossy
  /// fabric cannot report loss either).
  bool drop = false;
  /// Deliver the message twice (retransmission race).
  bool duplicate = false;
  /// Sever the transport link the message would travel over BEFORE
  /// transmitting. StreamFabric shuts the connection down (the next
  /// send redials); the loopback fabric has no connections and treats
  /// this as dropping the message.
  bool kill_connection = false;
  /// Sleep this long on the sender's thread before transmitting.
  std::chrono::milliseconds delay{0};
};

/// Deterministic fault hook consulted on every send(): tests script
/// per-message drops, delays, duplicates, and connection kills — the
/// lifecycle events libfabric surfaces to Mercury, reproduced without
/// a flaky network.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultAction on_send(EndpointId dest, const Message& msg) = 0;
};

/// Wraps a callable as an injector (test shorthand).
class CallbackFaultInjector final : public FaultInjector {
 public:
  using Fn = std::function<FaultAction(EndpointId, const Message&)>;
  explicit CallbackFaultInjector(Fn fn) : fn_(std::move(fn)) {}
  FaultAction on_send(EndpointId dest, const Message& msg) override {
    return fn_(dest, msg);
  }

 private:
  Fn fn_;
};

class Inbox;

/// Abstract transport. All methods are thread-safe.
class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Register a new endpoint; returns its id and inbox.
  virtual std::pair<EndpointId, std::shared_ptr<Inbox>>
  register_endpoint() = 0;

  /// Deliver a message to `dest`'s inbox.
  virtual Status send(EndpointId dest, Message msg) = 0;

  /// Remove an endpoint; its inbox closes.
  virtual void deregister(EndpointId id) = 0;

  /// One-sided-style transfer out of an exposed region.
  virtual Status bulk_pull(const BulkRegion& region, std::size_t offset,
                           std::span<std::uint8_t> out) = 0;

  /// One-sided-style transfer into an exposed writable region.
  virtual Status bulk_push(const BulkRegion& region, std::size_t offset,
                           std::span<const std::uint8_t> data) = 0;

  /// Abandon interest in the response to request `seq`: unregister any
  /// writable bulk region tied to it so a late response can no longer
  /// write into caller memory. Guarantees that once cancel() returns,
  /// no further transport-side write to that region happens (any write
  /// already in progress completes first). Unknown seqs are a no-op.
  virtual void cancel(std::uint64_t seq) { (void)seq; }

  /// Install (nullptr = clear) a fault hook consulted on every send.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  [[nodiscard]] virtual TrafficStats stats() const = 0;

 protected:
  Fabric();

  /// Healthy action when no injector is installed. Thread-safe.
  /// Non-trivial actions bump the `net.fault_injector.fires` counter.
  FaultAction consult_injector_(EndpointId dest, const Message& msg);

 private:
  mutable Mutex injector_mutex_{"net.fault_injector",
                                lockdep::rank::kFabricInjector};
  std::shared_ptr<FaultInjector> injector_ GEKKO_GUARDED_BY(injector_mutex_);
  metrics::Counter* fault_fires_;  // global registry, cached
};

/// An endpoint's receive side. Every fabric delivers through push(),
/// on the thread that has the message: the loopback sender or the
/// stream fabric's event loop. Once a receiver is attached,
/// push() hands it the message right there, so a response wakes its
/// caller directly (Mercury's HG_Trigger also runs callbacks on the
/// thread that triggers them). Until then messages queue, and tests
/// that own no engine poll them with receive().
class Inbox {
 public:
  using Receiver = std::function<void(Message)>;

  /// Deliver one message. False once closed.
  bool push(Message msg);

  /// Attach the receiver and hand it every queued message, each exactly
  /// once. No-op when a receiver is attached already or the inbox is
  /// closed.
  void attach(Receiver receiver);

  /// Reject further pushes, then wait until no delivery into the
  /// receiver is running. Must not be called from inside a delivery.
  void close();

  /// Poll the queue of an inbox with no receiver. receive() blocks
  /// until a message arrives or the inbox closes and drains.
  std::optional<Message> receive();
  std::optional<Message> try_receive();

 private:
  void end_delivery_();

  Mutex mutex_{"net.inbox", lockdep::rank::kInbox};
  CondVar cv_;
  Receiver receiver_ GEKKO_GUARDED_BY(mutex_);
  std::deque<Message> queued_ GEKKO_GUARDED_BY(mutex_);
  /// Calls into receiver_ running now; close() waits for zero.
  std::size_t delivering_ GEKKO_GUARDED_BY(mutex_) = 0;
  bool closed_ GEKKO_GUARDED_BY(mutex_) = false;
};

/// All endpoints in one process; delivery runs on the sender's thread.
class LoopbackFabric final : public Fabric {
 public:
  LoopbackFabric();
  LoopbackFabric(const LoopbackFabric&) = delete;
  LoopbackFabric& operator=(const LoopbackFabric&) = delete;

  std::pair<EndpointId, std::shared_ptr<Inbox>> register_endpoint() override;

  /// Dropped-by-fault messages report success (like a real lossy
  /// fabric — the sender can't tell).
  Status send(EndpointId dest, Message msg) override;

  void deregister(EndpointId id) override;

  Status bulk_pull(const BulkRegion& region, std::size_t offset,
                   std::span<std::uint8_t> out) override;
  Status bulk_push(const BulkRegion& region, std::size_t offset,
                   std::span<const std::uint8_t> data) override;

  [[nodiscard]] TrafficStats stats() const override;
  [[nodiscard]] std::size_t endpoint_count() const;

 private:
  mutable Mutex mutex_{"net.loopback", lockdep::rank::kLoopback};
  std::vector<std::shared_ptr<Inbox>> inboxes_
      GEKKO_GUARDED_BY(mutex_);  // index == EndpointId
  TrafficStats stats_ GEKKO_GUARDED_BY(mutex_){};
  std::atomic<std::uint64_t> bulk_pulled_{0};
  std::atomic<std::uint64_t> bulk_pushed_{0};
  // Registry mirrors of TrafficStats (global registry, cached).
  struct LoopbackMetrics {
    metrics::Counter* messages;
    metrics::Counter* bytes;
    metrics::Counter* drops;
    metrics::Counter* bulk_pulled_bytes;
    metrics::Counter* bulk_pushed_bytes;
  };
  LoopbackMetrics m_;
};

}  // namespace gekko::net
