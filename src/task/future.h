// Eventual<T>: one-shot synchronization cell, after ABT_eventual /
// margo_request. The fabric thread that delivers an RPC's response sets
// the eventual; the caller waits (with optional deadline).
#pragma once

#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "common/thread_annotations.h"

namespace gekko::task {

template <typename T>
class EventualState {
 public:
  void set(T value) GEKKO_EXCLUDES(mutex_) {
    {
      LockGuard lock(mutex_);
      assert(!value_.has_value() && "eventual set twice");
      value_.emplace(std::move(value));
    }
    cv_.notify_all();
  }

  /// Blocks until set.
  T wait() GEKKO_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    cv_.wait(lock,
             [&]() GEKKO_REQUIRES(mutex_) { return value_.has_value(); });
    return std::move(*value_);
  }

  /// Blocks until set or timeout. nullopt on timeout (value stays unset
  /// and may still arrive later; the state is shared_ptr-owned so a late
  /// set() is safe).
  std::optional<T> wait_for(std::chrono::nanoseconds timeout)
      GEKKO_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    if (!cv_.wait_for(lock, timeout, [&]() GEKKO_REQUIRES(mutex_) {
          return value_.has_value();
        })) {
      return std::nullopt;
    }
    return std::move(*value_);
  }

  [[nodiscard]] bool ready() const GEKKO_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    return value_.has_value();
  }

 private:
  mutable Mutex mutex_{"task.eventual", lockdep::rank::kEventual};
  CondVar cv_;
  std::optional<T> value_ GEKKO_GUARDED_BY(mutex_);
};

/// Shared handle; copyable between setter and waiter.
template <typename T>
class Eventual {
 public:
  Eventual() : state_(std::make_shared<EventualState<T>>()) {}

  void set(T value) const { state_->set(std::move(value)); }
  T wait() const { return state_->wait(); }
  std::optional<T> wait_for(std::chrono::nanoseconds timeout) const {
    return state_->wait_for(timeout);
  }
  [[nodiscard]] bool ready() const { return state_->ready(); }

 private:
  std::shared_ptr<EventualState<T>> state_;
};

/// Countdown latch for fan-out RPC patterns (e.g. readdir broadcast).
class Latch {
 public:
  explicit Latch(std::size_t count) : remaining_(count) {}

  void count_down() GEKKO_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    if (remaining_ > 0) --remaining_;
    if (remaining_ == 0) cv_.notify_all();
  }

  void wait() GEKKO_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    cv_.wait(lock, [&]() GEKKO_REQUIRES(mutex_) { return remaining_ == 0; });
  }

  bool wait_for(std::chrono::nanoseconds timeout) GEKKO_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    return cv_.wait_for(
        lock, timeout, [&]() GEKKO_REQUIRES(mutex_) { return remaining_ == 0; });
  }

 private:
  Mutex mutex_{"task.latch", lockdep::rank::kLatch};
  CondVar cv_;
  std::size_t remaining_ GEKKO_GUARDED_BY(mutex_);
};

}  // namespace gekko::task
