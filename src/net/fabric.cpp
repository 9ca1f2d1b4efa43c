// relaxed-ok: bulk_pulled_/bulk_pushed_ are standalone byte counters
// mirrored into TrafficStats; no other data is published through them.
#include "net/fabric.h"

#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/thread_annotations.h"
#include "net/frame_codec.h"

namespace gekko::net {

Fabric::Fabric()
    : fault_fires_(
          &metrics::Registry::global().counter("net.fault_injector.fires")) {}

void Fabric::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  LockGuard lock(injector_mutex_);
  injector_ = std::move(injector);
}

FaultAction Fabric::consult_injector_(EndpointId dest, const Message& msg) {
  std::shared_ptr<FaultInjector> injector;
  {
    LockGuard lock(injector_mutex_);
    injector = injector_;
  }
  if (!injector) return {};
  FaultAction action = injector->on_send(dest, msg);
  if (action.drop || action.duplicate || action.kill_connection ||
      action.delay.count() > 0) {
    fault_fires_->inc();
  }
  return action;
}

bool Inbox::push(Message msg) {
  const Receiver* receiver = nullptr;
  {
    LockGuard lock(mutex_);
    if (closed_) return false;
    if (!receiver_) {
      queued_.push_back(std::move(msg));
      cv_.notify_all();
      return true;
    }
    // receiver_ stays put while delivering_ > 0: attach() never
    // replaces it and close() clears it only once the count drains.
    receiver = &receiver_;
    ++delivering_;
  }
  (*receiver)(std::move(msg));
  end_delivery_();
  return true;
}

void Inbox::attach(Receiver receiver) {
  std::deque<Message> backlog;
  const Receiver* attached = nullptr;
  {
    LockGuard lock(mutex_);
    if (closed_ || receiver_) return;
    receiver_ = std::move(receiver);
    attached = &receiver_;
    backlog.swap(queued_);
    ++delivering_;
  }
  for (Message& msg : backlog) (*attached)(std::move(msg));
  end_delivery_();
}

void Inbox::end_delivery_() {
  LockGuard lock(mutex_);
  if (--delivering_ == 0 && closed_) cv_.notify_all();
}

void Inbox::close() {
  UniqueLock lock(mutex_);
  closed_ = true;
  cv_.notify_all();  // wakes receive() pollers
  cv_.wait(lock, [&]() GEKKO_REQUIRES(mutex_) { return delivering_ == 0; });
  receiver_ = nullptr;  // drops what the engine's callback captured
}

std::optional<Message> Inbox::receive() {
  UniqueLock lock(mutex_);
  cv_.wait(lock, [&]() GEKKO_REQUIRES(mutex_) {
    return !queued_.empty() || closed_;
  });
  if (queued_.empty()) return std::nullopt;
  Message msg = std::move(queued_.front());
  queued_.pop_front();
  return msg;
}

std::optional<Message> Inbox::try_receive() {
  LockGuard lock(mutex_);
  if (queued_.empty()) return std::nullopt;
  Message msg = std::move(queued_.front());
  queued_.pop_front();
  return msg;
}

LoopbackFabric::LoopbackFabric() {
  auto& reg = metrics::Registry::global();
  m_.messages = &reg.counter("net.loopback.messages");
  m_.bytes = &reg.counter("net.loopback.payload_bytes");
  m_.drops = &reg.counter("net.loopback.drops");
  m_.bulk_pulled_bytes = &reg.counter("net.loopback.bulk_pulled_bytes");
  m_.bulk_pushed_bytes = &reg.counter("net.loopback.bulk_pushed_bytes");
}

std::pair<EndpointId, std::shared_ptr<Inbox>>
LoopbackFabric::register_endpoint() {
  LockGuard lock(mutex_);
  auto inbox = std::make_shared<Inbox>();
  inboxes_.push_back(inbox);
  return {static_cast<EndpointId>(inboxes_.size() - 1), inbox};
}

Status LoopbackFabric::send(EndpointId dest, Message msg) {
  const FaultAction fault = consult_injector_(dest, msg);
  if (fault.delay.count() > 0) {
    std::this_thread::sleep_for(fault.delay);  // blocking-ok: scripted fault delay runs on the injecting sender's thread by design
  }
  std::shared_ptr<Inbox> inbox;
  {
    LockGuard lock(mutex_);
    if (dest >= inboxes_.size() || !inboxes_[dest]) {
      return Status{Errc::disconnected, "unknown endpoint"};
    }
    // Loopback has no connections; kill_connection degrades to losing
    // the message (the closest observable effect).
    if (fault.drop || fault.kill_connection) {
      ++stats_.messages_dropped;
      m_.drops->inc();
      return Status::ok();  // silent loss, sender can't observe it
    }
    ++stats_.messages_sent;
    stats_.payload_bytes += msg.payload.size();
    m_.messages->inc();
    m_.bytes->inc(msg.payload.size());
    inbox = inboxes_[dest];
  }
  // status-ignored-ok: injected duplicate; a closing inbox may refuse it
  if (fault.duplicate) (void)inbox->push(msg);
  if (!inbox->push(std::move(msg))) {
    return Status{Errc::disconnected, "endpoint shutting down"};
  }
  return Status::ok();
}

void LoopbackFabric::deregister(EndpointId id) {
  std::shared_ptr<Inbox> inbox;
  {
    LockGuard lock(mutex_);
    if (id >= inboxes_.size()) return;
    inbox = std::move(inboxes_[id]);
    inboxes_[id] = nullptr;
  }
  if (inbox) inbox->close();
}

Status LoopbackFabric::bulk_pull(const BulkRegion& region, std::size_t offset,
                         std::span<std::uint8_t> out) {
  if (!region.valid()) return Status{Errc::invalid_argument, "invalid bulk"};
  if (!wire::range_in_bounds(offset, out.size(), region.size())) {
    return Status{Errc::overflow, "bulk pull out of range"};
  }
  std::memcpy(out.data(), region.read_ptr() + offset, out.size());
  bulk_pulled_.fetch_add(out.size(), std::memory_order_relaxed);
  m_.bulk_pulled_bytes->inc(out.size());
  return Status::ok();
}

Status LoopbackFabric::bulk_push(const BulkRegion& region, std::size_t offset,
                         std::span<const std::uint8_t> data) {
  if (!region.valid() || !region.writable()) {
    return Status{Errc::invalid_argument, "bulk region not writable"};
  }
  if (!wire::range_in_bounds(offset, data.size(), region.size())) {
    return Status{Errc::overflow, "bulk push out of range"};
  }
  std::memcpy(region.write_ptr() + offset, data.data(), data.size());
  bulk_pushed_.fetch_add(data.size(), std::memory_order_relaxed);
  m_.bulk_pushed_bytes->inc(data.size());
  return Status::ok();
}

TrafficStats LoopbackFabric::stats() const {
  LockGuard lock(mutex_);
  TrafficStats s = stats_;
  s.bulk_bytes_pulled = bulk_pulled_.load(std::memory_order_relaxed);
  s.bulk_bytes_pushed = bulk_pushed_.load(std::memory_order_relaxed);
  return s;
}

std::size_t LoopbackFabric::endpoint_count() const {
  LockGuard lock(mutex_);
  std::size_t n = 0;
  for (const auto& p : inboxes_) {
    if (p) ++n;
  }
  return n;
}

}  // namespace gekko::net
