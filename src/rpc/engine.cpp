// relaxed-ok: see engine.h — counters and metrics slot pointers only.
#include "rpc/engine.h"

#include <algorithm>
#include <thread>

#include "common/flight_recorder.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace gekko::rpc {
namespace {

/// Outcomes worth re-sending an idempotent rpc for: the request may
/// never have reached the daemon, or the daemon may be back already.
bool transient(Errc code) {
  return code == Errc::timed_out || code == Errc::disconnected ||
         code == Errc::again;
}

}  // namespace

Engine::Engine(net::Fabric& fabric, EngineOptions options)
    : fabric_(fabric),
      options_(std::move(options)),
      registry_(options_.registry ? options_.registry
                                  : &metrics::Registry::global()),
      tracer_(options_.tracer ? options_.tracer : &metrics::Tracer::global()),
      self_(net::kInvalidEndpoint),
      agg_sent_(&registry_->counter("rpc.requests_sent")),
      agg_handled_(&registry_->counter("rpc.requests_handled")),
      agg_retries_(&registry_->counter("rpc.retries")),
      agg_timeouts_(&registry_->counter("rpc.timeouts")),
      agg_refused_(&registry_->counter("rpc.requests_refused")) {
  auto [id, inbox] = fabric_.register_endpoint();
  self_ = id;
  inbox_ = std::move(inbox);
  // The process's first engine names the node for trace spans (a
  // daemon's daemon id, a client's salted endpoint id).
  tracer_->set_node_id_if_unset(static_cast<std::uint32_t>(self_));
  if (!options_.start_paused) start();
}

void Engine::start() {
  if (inbox_ == nullptr) return;  // the fabric refused the endpoint
  inbox_->attach([this](net::Message msg) { deliver_(std::move(msg)); });
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  // Closes the inbox, which waits out every running delivery: after
  // this nothing reaches dispatch_request_ or complete_response_.
  fabric_.deregister(self_);
  task::Pool* pool = nullptr;
  {
    LockGuard lock(rpc_mutex_);
    pool = handler_pool_.get();
  }
  if (pool != nullptr) pool->shutdown();  // drains queued handlers
  // Fail any still-pending forwards.
  LockGuard lock(pending_mutex_);
  for (auto& [seq, eventual] : pending_) {
    eventual.set(Status{Errc::disconnected, "engine shutdown"});
  }
  pending_.clear();
}

void Engine::register_rpc(std::uint16_t rpc_id, std::string name,
                          Handler handler) {
  auto hm = std::make_shared<HandlerMetrics>();
  const std::string base = "rpc.handler." + name + ".";
  hm->handled = &registry_->counter(base + "handled");
  hm->errors = &registry_->counter(base + "errors");
  hm->latency = &registry_->histogram(base + "latency");
  hm->queue = &registry_->histogram(base + "queue");
  hm->inflight = &registry_->gauge(base + "inflight");
  LockGuard lock(rpc_mutex_);
  if (handler_pool_ == nullptr) {
    handler_pool_ = std::make_unique<task::Pool>(
        options_.handler_threads, options_.name + "-handlers");
  }
  rpcs_[rpc_id] = RpcEntry{std::move(name), std::move(handler), std::move(hm)};
}

std::string Engine::rpc_name_(std::uint16_t rpc_id) const {
  if (options_.rpc_name) {
    std::string name = options_.rpc_name(rpc_id);
    if (!name.empty()) return name;
  }
  return "id" + std::to_string(rpc_id);
}

Engine::CallerMetrics* Engine::caller_metrics_for_(std::uint16_t rpc_id) {
  const std::size_t slot =
      std::min<std::size_t>(rpc_id, kCallerSlots - 1);
  CallerMetrics* m = caller_slots_[slot].load(std::memory_order_acquire);
  if (m != nullptr) return m;
  LockGuard lock(metrics_mutex_);
  m = caller_slots_[slot].load(std::memory_order_relaxed);
  if (m != nullptr) return m;
  const std::string base = "rpc.caller." + rpc_name_(rpc_id) + ".";
  auto owned = std::make_unique<CallerMetrics>();
  owned->sent = &registry_->counter(base + "sent");
  owned->ok = &registry_->counter(base + "ok");
  owned->errors = &registry_->counter(base + "errors");
  owned->retries = &registry_->counter(base + "retries");
  owned->timeouts = &registry_->counter(base + "timeouts");
  owned->latency = &registry_->histogram(base + "latency");
  owned->inflight = &registry_->gauge(base + "inflight");
  m = owned.get();
  caller_owned_.push_back(std::move(owned));
  caller_slots_[slot].store(m, std::memory_order_release);
  return m;
}

Result<std::vector<std::uint8_t>> Engine::forward(
    net::EndpointId dest, std::uint16_t rpc_id,
    std::vector<std::uint8_t> payload, net::BulkRegion bulk,
    std::chrono::milliseconds timeout) {
  const auto per_attempt =
      timeout.count() > 0 ? timeout : options_.rpc_timeout;
  const std::uint32_t attempts =
      (options_.max_attempts > 1 && options_.retryable &&
       options_.retryable(rpc_id))
          ? options_.max_attempts
          : 1;
  std::chrono::milliseconds backoff = options_.retry_backoff;
  // All attempts of one logical call share one trace id (from the
  // caller's context if a client op span is active, else minted by the
  // first begin); each re-send is a fresh caller span tagged attempt=N
  // so assembled trees show the retries instead of orphan traces.
  const trace::SpanContext ctx = trace::current();
  std::uint64_t trace_id = ctx.trace_id;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const bool last = attempt + 1 >= attempts;
    std::vector<std::uint8_t> body;
    if (last) {
      body = std::move(payload);
    } else {
      body = payload;  // keep a copy while retries remain
    }
    PendingCall call = begin_forward_traced_(dest, rpc_id, std::move(body),
                                             bulk, trace_id, ctx.span_id,
                                             attempt);
    trace_id = call.trace_id;
    auto result = finish(call, per_attempt);
    if (result.is_ok() || last || !transient(result.code())) return result;
    retries_.fetch_add(1, std::memory_order_relaxed);
    agg_retries_->inc();
    caller_metrics_for_(rpc_id)->retries->inc();
    flight::record_traced(flight::Subsys::engine, flight::ev::engine_retry,
                          call.trace_id, attempt + 1, rpc_id);
    GEKKO_WARN("rpc") << options_.name << ": rpc " << rpc_id << " to "
                      << dest << " " << errc_name(result.code())
                      << ", retry " << (attempt + 1) << "/" << (attempts - 1)
                      << " after backoff";
    std::this_thread::sleep_for(jittered_(backoff, call.seq));  // blocking-ok: retry backoff runs on the blocked caller's thread, never on delivery/handler threads
    backoff = std::min(backoff * 2, options_.retry_backoff_max);
  }
}

std::chrono::milliseconds Engine::jittered_(std::chrono::milliseconds base,
                                            std::uint64_t seed) const {
  if (base.count() <= 0) return base;
  // Deterministic jitter in [base/2, base]: decorrelates a burst of
  // clients retrying against the same recovering daemon, while keeping
  // test runs replayable.
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(self_) << 32));
  const auto half = base.count() / 2;
  const auto span = static_cast<std::uint64_t>(base.count() - half + 1);
  return std::chrono::milliseconds(
      half + static_cast<std::int64_t>(sm.next() % span));
}

Engine::PendingCall Engine::begin_forward(net::EndpointId dest,
                                          std::uint16_t rpc_id,
                                          std::vector<std::uint8_t> payload,
                                          net::BulkRegion bulk) {
  // Continue the calling thread's trace when one is active (client op
  // fan-out: every per-daemon call shares the op's trace id and
  // parents under its span).
  const trace::SpanContext ctx = trace::current();
  return begin_forward_traced_(dest, rpc_id, std::move(payload),
                               std::move(bulk), ctx.trace_id, ctx.span_id,
                               /*attempt=*/0);
}

Engine::PendingCall Engine::begin_forward_traced_(
    net::EndpointId dest, std::uint16_t rpc_id,
    std::vector<std::uint8_t> payload, net::BulkRegion bulk,
    std::uint64_t trace_id, std::uint64_t parent_span_id,
    std::uint32_t attempt) {
  PendingCall call;
  call.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  call.rpc_id = rpc_id;
  if (trace_id != 0) {
    call.trace_id = trace_id;
  } else {
    // Fresh trace: unique per call (seq is engine-unique, self_ makes
    // it process-unique on a shared fabric). Forced non-zero: 0 =
    // untraced.
    call.trace_id =
        mix64((static_cast<std::uint64_t>(self_) << 32) ^ call.seq);
    if (call.trace_id == 0) call.trace_id = 1;
  }
  call.span_id = trace::new_span_id();
  call.parent_span_id = parent_span_id;
  call.attempt = attempt;
  call.start_ns = metrics::now_ns();
  call.metrics = caller_metrics_for_(rpc_id);
  call.metrics->sent->inc();
  call.metrics->inflight->add(1);
  agg_sent_->inc();
  {
    LockGuard lock(pending_mutex_);
    pending_.emplace(call.seq, call.eventual);
  }
  // Crash-visible shadow of pending_: the fatal-signal handler walks
  // this table where it cannot take pending_mutex_.
  flight::inflight_begin(call.seq, rpc_id, dest, call.trace_id);

  net::Message msg;
  msg.kind = net::MessageKind::request;
  msg.rpc_id = rpc_id;
  msg.seq = call.seq;
  msg.trace_id = call.trace_id;
  msg.parent_span = call.span_id;  // serving-side spans parent here
  msg.source = self_;
  msg.payload = std::move(payload);
  msg.bulk = bulk;

  if (Status st = fabric_.send(dest, std::move(msg)); !st.is_ok()) {
    LockGuard lock(pending_mutex_);
    pending_.erase(call.seq);
    flight::inflight_end(call.seq);
    call.send_status = st;
    call.metrics->inflight->sub(1);
    call.metrics->errors->inc();
    call.metrics = nullptr;  // settled here; finish() must not re-count
  }
  return call;
}

Result<std::vector<std::uint8_t>> Engine::finish(PendingCall& call) {
  return finish(call, options_.rpc_timeout);
}

Result<std::vector<std::uint8_t>> Engine::finish(
    PendingCall& call, std::chrono::milliseconds timeout) {
  if (!call.send_status.is_ok()) return call.send_status;
  auto result = call.eventual.wait_for(timeout);
  {
    LockGuard lock(pending_mutex_);
    pending_.erase(call.seq);
  }
  flight::inflight_end(call.seq);
  // Settle caller-side accounting exactly once (metrics is nulled
  // below; a double finish() records nothing further).
  CallerMetrics* cm = call.metrics;
  call.metrics = nullptr;
  if (cm != nullptr) {
    const std::uint64_t dur = metrics::now_ns() - call.start_ns;
    cm->inflight->sub(1);
    cm->latency->record(dur);
    tracer_->record("rpc.caller", call.trace_id, call.span_id,
                    call.parent_span_id, call.rpc_id, call.attempt,
                    call.start_ns, dur);
    if (!result.has_value()) {
      cm->timeouts->inc();
      cm->errors->inc();
      agg_timeouts_->inc();
    } else if (result->is_ok()) {
      cm->ok->inc();
    } else {
      cm->errors->inc();
    }
  }
  if (!result.has_value()) {
    flight::record_traced(flight::Subsys::engine, flight::ev::engine_timeout,
                          call.trace_id, call.seq, call.rpc_id);
    // Deadline passed: revoke the transport's claim on any writable
    // bulk region BEFORE returning, so a late response cannot scribble
    // into a buffer the caller is about to reuse.
    fabric_.cancel(call.seq);
    return Status{Errc::timed_out,
                  "rpc seq " + std::to_string(call.seq) + " timed out"};
  }
  return std::move(*result);
}

void Engine::deliver_(net::Message msg) {
  if (msg.kind == net::MessageKind::request) {
    dispatch_request_(std::move(msg));
  } else {
    complete_response_(std::move(msg));
  }
}

void Engine::respond_(const net::Message& request,
                      std::vector<std::uint8_t> payload) {
  net::Message resp;
  resp.kind = net::MessageKind::response;
  resp.seq = request.seq;
  resp.trace_id = request.trace_id;
  resp.source = self_;
  resp.payload = std::move(payload);
  // status-ignored-ok: best-effort reply; the caller times out regardless
  (void)fabric_.send(request.source, std::move(resp));
}

void Engine::dispatch_request_(net::Message msg) {
  // Delivering thread: the message's trace, not this thread's context.
  flight::record_traced(flight::Subsys::engine, flight::ev::engine_dispatch,
                        msg.trace_id, msg.seq, msg.rpc_id);
  Handler handler;
  std::shared_ptr<HandlerMetrics> hm;
  std::string rpc_label;
  task::Pool* pool = nullptr;
  {
    LockGuard lock(rpc_mutex_);
    auto it = rpcs_.find(msg.rpc_id);
    if (it != rpcs_.end()) {
      handler = it->second.handler;
      hm = it->second.metrics;
      rpc_label = it->second.name;
      pool = handler_pool_.get();
    }
  }
  if (!handler) {
    // Counted, and logged once per engine: a peer sending unknown ids
    // must not turn the delivering event loop into a log writer.
    agg_refused_->inc();
    if (!refusal_logged_.exchange(true, std::memory_order_relaxed)) {
      GEKKO_WARN("rpc") << options_.name << ": no handler for rpc id "
                        << msg.rpc_id << " (further refusals only counted "
                        << "in rpc.requests_refused)";
    }
    // Answered inline: on loopback this delivers into the caller's
    // engine from here, one level deep.
    respond_(msg, frame_error(Errc::not_supported));
    return;
  }

  const std::uint64_t t_enq = metrics::now_ns();
  auto shared_msg = std::make_shared<net::Message>(std::move(msg));
  const bool posted = pool->post([this, handler = std::move(handler), hm,
                                  t_enq, shared_msg,
                                  rpc_label = std::move(rpc_label)] {
    // Attribute queueing (dispatch → handler pool pickup) and service
    // time separately: a slow op whose queue span dominates is starved
    // for handler threads, not slow to serve.
    const std::uint64_t t_start = metrics::now_ns();
    hm->queue->record(t_start - t_enq);
    hm->inflight->add(1);
    // The service span is minted before the handler runs so the
    // handler's own child spans (io slices, storage, WAL) can parent
    // under it via the thread-local context. Handlers that fan work to
    // other threads deposit per-stage times for the watchdog line.
    const std::uint64_t service_span = trace::new_span_id();
    trace::stages_reset();
    trace::stage_add("queue", t_start - t_enq);
    Result<std::vector<std::uint8_t>> result = [&] {
      trace::ContextGuard guard(
          trace::enabled()
              ? trace::SpanContext{shared_msg->trace_id, service_span}
              : trace::SpanContext{});
      return handler(*shared_msg);
    }();
    const std::uint64_t t_done = metrics::now_ns();
    hm->inflight->sub(1);
    hm->latency->record(t_done - t_start);
    hm->handled->inc();
    if (!result.is_ok()) hm->errors->inc();
    tracer_->record("rpc.queue", shared_msg->trace_id, trace::new_span_id(),
                    shared_msg->parent_span, shared_msg->rpc_id, 0, t_enq,
                    t_start - t_enq);
    tracer_->record("rpc.service", shared_msg->trace_id, service_span,
                    shared_msg->parent_span, shared_msg->rpc_id, 0, t_start,
                    t_done - t_start);
    // Serving-side slow-op watchdog: one line with the queue/service
    // split plus whatever stages the handler deposited (io, bulk).
    const std::uint64_t threshold = trace::slow_op_threshold_ns();
    if (threshold != 0 && t_done - t_enq > threshold) {
      trace::log_slow_op(options_.name.c_str(),
                         rpc_label.empty() ? rpc_name_(shared_msg->rpc_id)
                                           : rpc_label,
                         shared_msg->trace_id, t_done - t_enq,
                         {{"service", t_done - t_start}});
    }
    handled_.fetch_add(1, std::memory_order_relaxed);
    agg_handled_->inc();
    respond_(*shared_msg, result.is_ok() ? frame_ok(std::move(*result))
                                         : frame_error(result.code()));
  });
  if (!posted) respond_(*shared_msg, frame_error(Errc::disconnected));
}

void Engine::complete_response_(net::Message msg) {
  task::Eventual<Result<std::vector<std::uint8_t>>> eventual;
  {
    LockGuard lock(pending_mutex_);
    auto it = pending_.find(msg.seq);
    if (it == pending_.end()) return;  // late response after timeout
    eventual = it->second;
    pending_.erase(it);
  }
  if (msg.payload.empty()) {
    eventual.set(Status{Errc::corruption, "empty response frame"});
    return;
  }
  const auto code = static_cast<Errc>(msg.payload[0]);
  if (code != Errc::ok) {
    eventual.set(Status{code});
    return;
  }
  msg.payload.erase(msg.payload.begin());
  eventual.set(std::move(msg.payload));
}

}  // namespace gekko::rpc
