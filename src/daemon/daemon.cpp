// relaxed-ok: IoStageNs io/bulk tallies are plain accumulators; the
// io_pool_ Eventual join that precedes reading them is the
// synchronization point, so the loads cannot observe torn sums.
#include "daemon/daemon.h"

#include <chrono>
#include <thread>
#include <vector>

#include "common/crash.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/prometheus.h"
#include "common/trace.h"
#include "common/units.h"
#include "kv/cache.h"
#include "net/frame_codec.h"
#include "proto/messages.h"
#include "task/future.h"

namespace gekko::daemon {

using proto::RpcId;

Result<std::unique_ptr<GekkoDaemon>> GekkoDaemon::start(
    net::Fabric& fabric, const std::filesystem::path& root,
    DaemonOptions options) {
  std::unique_ptr<GekkoDaemon> d(new GekkoDaemon(std::move(options)));
  d->fabric_ = &fabric;
  d->registry_ = d->options_.registry != nullptr
                     ? d->options_.registry
                     : &metrics::Registry::global();

  // Default a modest block cache so SST reads (stat storms) hit memory
  // and `kv.cache.*` metrics are meaningful out of the box.
  if (d->options_.kv_options.block_cache == nullptr) {
    d->options_.kv_options.block_cache =
        std::make_shared<kv::BlockCache>(8_MiB);
  }

  auto metadata = MetadataBackend::open(root / "metadata",
                                        d->options_.kv_options);
  if (!metadata) return metadata.status();
  d->metadata_ = std::move(*metadata);

  storage::ChunkStorageOptions storage_opts;
  storage_opts.fd_cache_capacity = d->options_.fd_cache_capacity;
  auto data = storage::ChunkStorage::open(root / "chunks",
                                          d->options_.chunk_size,
                                          storage_opts);
  if (!data) return data.status();
  d->data_ = std::make_unique<storage::ChunkStorage>(std::move(*data));

  if (d->options_.io_threads > 0) {
    d->io_pool_ =
        std::make_unique<task::Pool>(d->options_.io_threads, "iostreams");
  }
  d->io_queue_ = &d->registry_->histogram("daemon.io.queue");
  d->io_service_ = &d->registry_->histogram("daemon.io.service");

  rpc::EngineOptions rpc_opts = d->options_.rpc_options;
  rpc_opts.handler_threads = d->options_.handler_threads;
  if (rpc_opts.name == "engine") rpc_opts.name = "gkfs-daemon";
  if (rpc_opts.registry == nullptr) rpc_opts.registry = d->registry_;
  if (!rpc_opts.rpc_name) rpc_opts.rpc_name = proto::rpc_name;
  // Paused: the listener binds here (clients may connect and queue
  // requests) but nothing dispatches until every handler is in place —
  // otherwise a fast client can have its first rpc bounced with
  // not_supported during daemon startup.
  rpc_opts.start_paused = true;
  d->engine_ = std::make_unique<rpc::Engine>(fabric, rpc_opts);
  if (d->engine_->endpoint() == net::kInvalidEndpoint) {
    // A hosted fabric refuses the endpoint when its listener cannot
    // start (the fabric logs why, e.g. the address is in use).
    return Status{Errc::io_error, "endpoint registration failed"};
  }
  d->register_handlers_();
  d->engine_->start();

  // Telemetry sampler: periodic Registry -> History pump feeding the
  // metric_history RPC. pre_sample republishes backend absolutes so
  // the time series sees storage/kv gauges move between RPC dumps.
  metrics::SamplerOptions sampler_opts;
  sampler_opts.interval_ms =
      d->options_.sample_interval_ms.has_value()
          ? *d->options_.sample_interval_ms
          : metrics::sample_interval_ms_from_env(1000);
  sampler_opts.retention = d->options_.sample_retention;
  sampler_opts.pre_sample = [daemon = d.get()] {
    daemon->publish_backend_metrics_();
    // Keep the crash module's double-buffered snapshot fresh: this is
    // the [metrics] section a fatal-signal postmortem embeds (the
    // handler itself can serialize nothing).
    crash::publish_metrics_json(daemon->metrics_json());
  };
  d->sampler_ = std::make_unique<metrics::Sampler>(*d->registry_,
                                                   std::move(sampler_opts));
  d->sampler_->start();

  if (d->options_.metrics_http_port >= 0) {
    net::HttpExporterOptions http_opts;
    http_opts.port = static_cast<std::uint16_t>(d->options_.metrics_http_port);
    http_opts.registry = d->registry_;
    const std::string node_label =
        std::to_string(static_cast<std::uint32_t>(d->engine_->endpoint()));
    auto exporter = net::HttpExporter::create(
        std::move(http_opts),
        [daemon = d.get(), node_label](const std::string& path) {
          if (path == "/metrics") {
            daemon->publish_backend_metrics_();
            prom::RenderOptions render_opts;
            render_opts.labels["node"] = node_label;
            return net::HttpResponse{
                200, "text/plain; version=0.0.4; charset=utf-8",
                prom::render(*daemon->registry_, render_opts)};
          }
          if (path == "/healthz") {
            return net::HttpResponse{200, "text/plain", "ok\n"};
          }
          return net::HttpResponse{404, "text/plain", "not found\n"};
        });
    if (!exporter) return exporter.status();
    d->http_ = std::move(*exporter);
  }

  GEKKO_INFO("daemon") << "daemon up at endpoint " << d->engine_->endpoint()
                       << " root=" << root.string();
  return d;
}

GekkoDaemon::~GekkoDaemon() { shutdown(); }

void GekkoDaemon::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  // Exporter first (no new scrapes), then the engine: joining the
  // handler pool waits out every in-flight chunk handler, and each of
  // those has already joined its own slice tasks — so by the time the
  // io pool shuts down it is quiescent. The sampler stops last: its
  // final sample captures the fully-settled counters.
  if (http_) http_->stop();
  if (engine_) engine_->shutdown();
  if (io_pool_) io_pool_->shutdown();
  if (sampler_) sampler_->stop();
}

void GekkoDaemon::register_handlers_() {
  // Each handler is wrapped with daemon-level service accounting
  // (`daemon.<op>.ops/.errors/.latency`). The engine separately tracks
  // rpc.handler.* including queueing — the daemon view is pure service
  // time of the op against kv/storage.
  auto bind = [this](RpcId id, const char* name,
                     Result<std::vector<std::uint8_t>> (GekkoDaemon::*fn)(
                         const net::Message&)) {
    const std::string base = std::string("daemon.") + name + ".";
    auto* ops = &registry_->counter(base + "ops");
    auto* errors = &registry_->counter(base + "errors");
    auto* latency = &registry_->histogram(base + "latency");
    engine_->register_rpc(
        proto::to_wire(id), name,
        [this, fn, ops, errors, latency](const net::Message& msg) {
          const std::uint64_t t0 = metrics::now_ns();
          auto result = (this->*fn)(msg);
          latency->record(metrics::now_ns() - t0);
          ops->inc();
          if (!result.is_ok()) errors->inc();
          return result;
        });
  };
  bind(RpcId::create, "create", &GekkoDaemon::on_create_);
  bind(RpcId::stat, "stat", &GekkoDaemon::on_stat_);
  bind(RpcId::remove_metadata, "remove_metadata",
       &GekkoDaemon::on_remove_metadata_);
  bind(RpcId::remove_data, "remove_data", &GekkoDaemon::on_remove_data_);
  bind(RpcId::update_size, "update_size", &GekkoDaemon::on_update_size_);
  bind(RpcId::truncate_metadata, "truncate_metadata",
       &GekkoDaemon::on_truncate_metadata_);
  bind(RpcId::truncate_data, "truncate_data",
       &GekkoDaemon::on_truncate_data_);
  bind(RpcId::write_chunks, "write_chunks", &GekkoDaemon::on_write_chunks_);
  bind(RpcId::read_chunks, "read_chunks", &GekkoDaemon::on_read_chunks_);
  bind(RpcId::get_dirents, "get_dirents", &GekkoDaemon::on_get_dirents_);
  bind(RpcId::batch_create, "batch_create", &GekkoDaemon::on_batch_create_);
  bind(RpcId::batch_stat, "batch_stat", &GekkoDaemon::on_batch_stat_);
  bind(RpcId::batch_remove, "batch_remove", &GekkoDaemon::on_batch_remove_);
  bind(RpcId::daemon_stat, "daemon_stat", &GekkoDaemon::on_daemon_stat_);
  bind(RpcId::trace_dump, "trace_dump", &GekkoDaemon::on_trace_dump_);
  bind(RpcId::flight_dump, "flight_dump", &GekkoDaemon::on_flight_dump_);
  bind(RpcId::heartbeat, "heartbeat", &GekkoDaemon::on_heartbeat_);
  bind(RpcId::metric_history, "metric_history",
       &GekkoDaemon::on_metric_history_);
}

namespace {
std::string_view payload_view(const net::Message& msg) {
  return std::string_view(reinterpret_cast<const char*>(msg.payload.data()),
                          msg.payload.size());
}
}  // namespace

Result<std::vector<std::uint8_t>> GekkoDaemon::on_create_(
    const net::Message& msg) {
  auto req = proto::CreateRequest::decode(payload_view(msg));
  if (!req) return req.status();
  proto::Metadata md;
  md.type = static_cast<proto::FileType>(req->type);
  md.mode = req->mode;
  md.ctime_ns = md.mtime_ns = req->ctime_ns;
  GEKKO_RETURN_IF_ERROR(metadata_->create(req->path, md));
  return std::vector<std::uint8_t>{};
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_stat_(
    const net::Message& msg) {
  auto req = proto::PathRequest::decode(payload_view(msg));
  if (!req) return req.status();
  auto md = metadata_->get(req->path);
  if (!md) return md.status();
  return proto::StatResponse{*md}.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_remove_metadata_(
    const net::Message& msg) {
  auto req = proto::PathRequest::decode(payload_view(msg));
  if (!req) return req.status();
  auto md = metadata_->remove(req->path);
  if (!md) return md.status();
  return proto::StatResponse{*md}.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_remove_data_(
    const net::Message& msg) {
  auto req = proto::PathRequest::decode(payload_view(msg));
  if (!req) return req.status();
  GEKKO_RETURN_IF_ERROR(data_->remove_all(req->path));
  return std::vector<std::uint8_t>{};
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_update_size_(
    const net::Message& msg) {
  auto req = proto::UpdateSizeRequest::decode(payload_view(msg));
  if (!req) return req.status();
  GEKKO_RETURN_IF_ERROR(
      metadata_->update_size(req->path, req->observed_size, req->mtime_ns));
  return std::vector<std::uint8_t>{};
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_truncate_metadata_(
    const net::Message& msg) {
  auto req = proto::TruncateRequest::decode(payload_view(msg));
  if (!req) return req.status();
  // set_size checks existence (ENOENT) and refuses directories under the
  // kv write lock, so an unlink racing the truncate cannot be undone.
  GEKKO_RETURN_IF_ERROR(metadata_->set_size(req->path, req->new_size));
  return std::vector<std::uint8_t>{};
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_truncate_data_(
    const net::Message& msg) {
  auto req = proto::TruncateRequest::decode(payload_view(msg));
  if (!req) return req.status();
  const std::uint32_t cs = options_.chunk_size;
  const std::uint64_t last_chunk = req->new_size / cs;
  const auto last_bytes = static_cast<std::uint32_t>(req->new_size % cs);
  GEKKO_RETURN_IF_ERROR(data_->truncate(req->path, last_chunk, last_bytes));
  return std::vector<std::uint8_t>{};
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_write_chunks_(
    const net::Message& msg) {
  return chunk_io_(msg, /*is_write=*/true);
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_read_chunks_(
    const net::Message& msg) {
  return chunk_io_(msg, /*is_write=*/false);
}

Status GekkoDaemon::slice_io_(const proto::ChunkIoRequest& req,
                              const proto::ChunkSlice& slice,
                              const net::Message& msg, bool is_write,
                              IoStageNs& stages) {
  // Grow-only bounce buffer, reused across slices AND requests on this
  // worker. make_unique_for_overwrite skips value-initialization — every
  // byte is overwritten by the bulk pull / chunk read before use
  // (read_chunk zero-fills sparse tails itself).
  thread_local std::unique_ptr<std::uint8_t[]> buf;
  thread_local std::size_t buf_cap = 0;
  if (buf_cap < slice.length) {
    buf = std::make_unique_for_overwrite<std::uint8_t[]>(slice.length);
    buf_cap = slice.length;
  }
  const std::span<std::uint8_t> span(buf.get(), slice.length);

  // Black-box markers around the slice: a daemon that dies mid-io
  // shows an unmatched io_begin for the exact chunk in its postmortem.
  flight::record(flight::Subsys::daemon, flight::ev::daemon_io_begin,
                 slice.chunk_id, static_cast<std::uint32_t>(slice.length));

  std::uint64_t t = metrics::now_ns();
  // Stage accounting: `bulk` is time moving bytes across the fabric
  // (pull/push), `io` is time against the chunk store plus any modeled
  // device wait. Accumulated per request for the slow-op breakdown.
  if (is_write) {
    // One-sided pull from the client's exposed region (RDMA read).
    GEKKO_RETURN_IF_ERROR(fabric_->bulk_pull(msg.bulk, slice.bulk_offset,
                                             span));
    std::uint64_t now = metrics::now_ns();
    stages.bulk.fetch_add(now - t, std::memory_order_relaxed);
    t = now;
    GEKKO_RETURN_IF_ERROR(data_->write_chunk(
        req.path, slice.chunk_id, slice.offset_in_chunk,
        std::span<const std::uint8_t>(span)));
  } else {
    GEKKO_RETURN_IF_ERROR(data_->read_chunk(req.path, slice.chunk_id,
                                            slice.offset_in_chunk, span)
                              .status());
  }

  if (options_.device_model != nullptr) {
    // Hardware substitution (DESIGN §1): charge the modeled SSD service
    // time for this op. Sub-chunk slices pay the random-access penalty.
    const bool random = slice.offset_in_chunk != 0 ||
                        slice.length != options_.chunk_size;
    const double secs =
        is_write ? options_.device_model->write_time(slice.length, random)
                 : options_.device_model->read_time(slice.length, random);
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  }
  {
    const std::uint64_t now = metrics::now_ns();
    stages.io.fetch_add(now - t, std::memory_order_relaxed);
    t = now;
  }

  if (!is_write) {
    // One-sided push into the client's buffer (RDMA write).
    GEKKO_RETURN_IF_ERROR(fabric_->bulk_push(
        msg.bulk, slice.bulk_offset, std::span<const std::uint8_t>(span)));
    stages.bulk.fetch_add(metrics::now_ns() - t, std::memory_order_relaxed);
  }
  flight::record(flight::Subsys::daemon, flight::ev::daemon_io_end,
                 slice.chunk_id, static_cast<std::uint32_t>(slice.length));
  return Status::ok();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::chunk_io_(
    const net::Message& msg, bool is_write) {
  auto req = proto::ChunkIoRequest::decode(payload_view(msg));
  if (!req) return req.status();

  // Validate every slice against the chunk geometry and the request's
  // bulk region BEFORE any buffer is sized from a wire-supplied length
  // and before any slice runs, so a bad slice never leaves the request
  // half-applied. The bulk check is overflow-safe: an offset near 2^64
  // must not wrap past the region's end.
  const std::uint64_t cs = options_.chunk_size;
  for (const auto& slice : req->slices) {
    if (slice.length > cs ||
        static_cast<std::uint64_t>(slice.offset_in_chunk) + slice.length >
            cs) {
      return Status{Errc::invalid_argument, "slice crosses chunk boundary"};
    }
    if (!net::wire::range_in_bounds(slice.bulk_offset, slice.length,
                                    msg.bulk.size())) {
      return Status{Errc::invalid_argument, "slice outside bulk region"};
    }
  }

  // The handler thread's span context (the RPC service span): io
  // tasks run on OTHER threads, so each captures it by value and
  // re-installs it — every slice becomes a child span of the service
  // span, carrying the parent RPC's trace id across the pool boundary.
  const trace::SpanContext ctx = trace::current();
  IoStageNs stages;

  std::uint64_t total = 0;
  if (io_pool_ == nullptr || req->slices.size() < 2) {
    // Serial path: no pool (io_threads=0) or nothing to overlap.
    for (const auto& slice : req->slices) {
      const std::uint64_t t0 = metrics::now_ns();
      Status st = slice_io_(*req, slice, msg, is_write, stages);
      if (ctx.active()) {
        engine_->tracer().record("daemon.io.slice", ctx.trace_id,
                                 trace::new_span_id(), ctx.span_id,
                                 msg.rpc_id, 0, t0, metrics::now_ns() - t0);
      }
      GEKKO_RETURN_IF_ERROR(st);
      total += slice.length;
    }
    trace::stage_add("io", stages.io.load(std::memory_order_relaxed));
    trace::stage_add("bulk", stages.bulk.load(std::memory_order_relaxed));
    return proto::ChunkIoResponse{total}.encode();
  }

  // Fan out: one task per slice (the paper's one-ULT-per-chunk-op
  // model). The handler blocks on the eventuals, so req/msg/stages
  // outlive every task — ALL eventuals must be awaited even after an
  // error.
  std::vector<task::Eventual<Status>> done(req->slices.size());
  for (std::size_t i = 0; i < req->slices.size(); ++i) {
    const std::uint64_t posted_ns = metrics::now_ns();
    auto ev = done[i];
    const bool queued = io_pool_->post([this, &r = *req, &msg, &stages, i,
                                        is_write, posted_ns, ctx, ev] {
      io_queue_->record(metrics::now_ns() - posted_ns);
      const std::uint64_t t0 = metrics::now_ns();
      trace::ContextGuard guard(ctx);
      Status st = slice_io_(r, r.slices[i], msg, is_write, stages);
      const std::uint64_t t1 = metrics::now_ns();
      if (ctx.active()) {
        engine_->tracer().record("daemon.io.slice", ctx.trace_id,
                                 trace::new_span_id(), ctx.span_id,
                                 msg.rpc_id, 0, t0, t1 - t0);
      }
      // Record before set(): once the last eventual fires the
      // handler may respond, and a caller snapshotting the registry
      // right after the RPC must already see every sample.
      io_service_->record(t1 - t0);
      ev.set(std::move(st));
    });
    if (!queued) ev.set(Status{Errc::again, "io pool shut down"});
  }

  Status first = Status::ok();
  for (std::size_t i = 0; i < done.size(); ++i) {
    Status s = done[i].wait();
    if (first.is_ok() && !s.is_ok()) first = std::move(s);
  }
  // Fold the per-request io/bulk totals into this handler thread's
  // stage pad: the engine's slow-op line then shows queue/service/io/
  // bulk for this op without any cross-thread logging.
  trace::stage_add("io", stages.io.load(std::memory_order_relaxed));
  trace::stage_add("bulk", stages.bulk.load(std::memory_order_relaxed));
  GEKKO_RETURN_IF_ERROR(first);
  for (const auto& slice : req->slices) total += slice.length;
  return proto::ChunkIoResponse{total}.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_get_dirents_(
    const net::Message& msg) {
  auto req = proto::DirentsRequest::decode(payload_view(msg));
  if (!req) return req.status();
  auto entries = metadata_->dirents(req->dir_path);
  if (!entries) return entries.status();
  proto::DirentsResponse resp;
  resp.entries = std::move(*entries);
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_batch_create_(
    const net::Message& msg) {
  auto req = proto::BatchCreateRequest::decode(payload_view(msg));
  if (!req) return req.status();
  std::vector<std::pair<std::string, proto::Metadata>> entries;
  entries.reserve(req->entries.size());
  for (auto& e : req->entries) {
    proto::Metadata md;
    md.type = static_cast<proto::FileType>(e.type);
    md.mode = e.mode;
    md.ctime_ns = md.mtime_ns = e.ctime_ns;
    entries.emplace_back(std::move(e.path), md);
  }
  std::vector<Errc> out;
  GEKKO_RETURN_IF_ERROR(metadata_->create_batch(entries, &out));
  proto::BatchCreateResponse resp;
  resp.statuses.reserve(out.size());
  for (const Errc e : out) {
    resp.statuses.push_back(proto::batch_status_from_errc(e));
  }
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_batch_stat_(
    const net::Message& msg) {
  auto req = proto::BatchPathRequest::decode(payload_view(msg));
  if (!req) return req.status();
  std::vector<Errc> out;
  std::vector<proto::Metadata> mds;
  GEKKO_RETURN_IF_ERROR(metadata_->stat_batch(req->paths, &out, &mds));
  proto::BatchStatResponse resp;
  resp.entries.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    proto::BatchStatResponse::Entry e;
    e.status = proto::batch_status_from_errc(out[i]);
    if (out[i] == Errc::ok) e.metadata = std::move(mds[i]);
    resp.entries.push_back(std::move(e));
  }
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_batch_remove_(
    const net::Message& msg) {
  auto req = proto::BatchPathRequest::decode(payload_view(msg));
  if (!req) return req.status();
  std::vector<Errc> out;
  std::vector<proto::Metadata> old_mds;
  GEKKO_RETURN_IF_ERROR(metadata_->remove_batch(req->paths, &out, &old_mds));
  proto::BatchRemoveResponse resp;
  resp.entries.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    proto::BatchRemoveResponse::Entry e;
    e.status = proto::batch_status_from_errc(out[i]);
    if (out[i] == Errc::ok) {
      e.old_size = old_mds[i].size;
      e.was_directory = old_mds[i].is_directory() ? 1 : 0;
    }
    resp.entries.push_back(e);
  }
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_daemon_stat_(
    const net::Message& msg) {
  (void)msg;
  proto::DaemonStatResponse resp;
  auto count = metadata_->entry_count();
  if (!count) return count.status();
  resp.metadata_entries = *count;
  const auto cs = data_->stats();
  resp.chunks_written = cs.chunks_written;
  resp.chunks_read = cs.chunks_read;
  resp.bytes_written = cs.bytes_written;
  resp.bytes_read = cs.bytes_read;
  resp.metrics_json = metrics_json();
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_trace_dump_(
    const net::Message& msg) {
  (void)msg;
  proto::TraceDumpResponse resp;
  metrics::Tracer& tracer = engine_->tracer();
  resp.node_id = static_cast<std::uint32_t>(engine_->endpoint());
  resp.capture_ns = metrics::now_ns();
  resp.recorded = tracer.recorded();
  resp.capacity = tracer.capacity();
  const std::vector<metrics::TraceSpan> spans = tracer.dump();
  resp.spans.reserve(spans.size());
  for (const metrics::TraceSpan& s : spans) {
    resp.spans.push_back(trace::to_span(s));
  }
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_flight_dump_(
    const net::Message& msg) {
  (void)msg;
  proto::FlightDumpResponse resp;
  resp.node_id = static_cast<std::uint32_t>(engine_->endpoint());
  resp.capture_ns = metrics::now_ns();
  flight::RingStats stats;
  resp.events = flight::snapshot(&stats);
  resp.recorded = stats.recorded;
  resp.capacity = stats.capacity;
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_heartbeat_(
    const net::Message& msg) {
  (void)msg;
  proto::HeartbeatResponse resp;
  resp.node_id = static_cast<std::uint32_t>(engine_->endpoint());
  resp.capture_ns = metrics::now_ns();
  resp.requests_handled = engine_->requests_handled();
  return resp.encode();
}

Result<std::vector<std::uint8_t>> GekkoDaemon::on_metric_history_(
    const net::Message& msg) {
  auto req = proto::MetricHistoryRequest::decode(payload_view(msg));
  if (!req) return req.status();
  proto::MetricHistoryResponse resp;
  resp.node_id = static_cast<std::uint32_t>(engine_->endpoint());
  resp.captured_ns = metrics::now_ns();
  resp.interval_ms = sampler_ ? sampler_->interval_ms() : 0;
  if (sampler_) {
    const auto views = sampler_->history().families(req->prefix);
    resp.families.reserve(views.size());
    for (const auto& [name, view] : views) {
      proto::MetricFamilyHistory f;
      f.name = name;
      f.recorded = view.recorded;
      f.capacity = view.capacity;
      f.samples.reserve(view.samples.size());
      for (const metrics::SamplePoint& p : view.samples) {
        f.samples.emplace_back(p.captured_ns, p.value);
      }
      resp.families.push_back(std::move(f));
    }
  }
  return resp.encode();
}

void GekkoDaemon::publish_backend_metrics_() {
  const auto cs = data_->stats();
  registry_->gauge("storage.chunks_written").set(
      static_cast<std::int64_t>(cs.chunks_written));
  registry_->gauge("storage.chunks_read").set(
      static_cast<std::int64_t>(cs.chunks_read));
  registry_->gauge("storage.bytes_written").set(
      static_cast<std::int64_t>(cs.bytes_written));
  registry_->gauge("storage.bytes_read").set(
      static_cast<std::int64_t>(cs.bytes_read));
  registry_->gauge("storage.chunks_removed").set(
      static_cast<std::int64_t>(cs.chunks_removed));
  registry_->gauge("storage.fd_cache.hits").set(
      static_cast<std::int64_t>(cs.fd_cache_hits));
  registry_->gauge("storage.fd_cache.misses").set(
      static_cast<std::int64_t>(cs.fd_cache_misses));
  registry_->gauge("storage.fd_cache.evictions").set(
      static_cast<std::int64_t>(cs.fd_cache_evictions));
  registry_->gauge("storage.fd_cache.open").set(
      static_cast<std::int64_t>(data_->fd_cache_open()));

  const auto ks = metadata_->db().stats();
  registry_->gauge("kv.puts").set(static_cast<std::int64_t>(ks.puts));
  registry_->gauge("kv.gets").set(static_cast<std::int64_t>(ks.gets));
  registry_->gauge("kv.deletes").set(static_cast<std::int64_t>(ks.deletes));
  registry_->gauge("kv.merges").set(static_cast<std::int64_t>(ks.merges));
  registry_->gauge("kv.merge_operands_folded").set(
      static_cast<std::int64_t>(ks.merge_operands_folded));
  registry_->gauge("kv.flushes").set(static_cast<std::int64_t>(ks.flushes));
  registry_->gauge("kv.compactions").set(
      static_cast<std::int64_t>(ks.compactions));
  registry_->gauge("kv.wal_appends").set(
      static_cast<std::int64_t>(ks.wal_appends));
  registry_->gauge("kv.wal_syncs").set(
      static_cast<std::int64_t>(ks.wal_syncs));
  // Non-zero recovered_records = this daemon came up from a dirty
  // shutdown; tail_corruptions = WALs whose torn tail was discarded.
  // Surfaced so gkfs-mon/Prometheus can flag dirty restarts per node.
  registry_->gauge("kv.wal.recovered_records").set(
      static_cast<std::int64_t>(ks.wal_recovered_records));
  registry_->gauge("kv.wal.tail_corruptions").set(
      static_cast<std::int64_t>(ks.wal_tail_corruptions));
  registry_->gauge("kv.memtable_bytes").set(
      static_cast<std::int64_t>(ks.memtable_bytes));
  registry_->gauge("kv.imm.memtables").set(
      static_cast<std::int64_t>(ks.immutable_memtables));
  registry_->gauge("kv.compact.running").set(
      static_cast<std::int64_t>(ks.compactions_running));
  registry_->gauge("kv.compact.bytes_in").set(
      static_cast<std::int64_t>(ks.compact_bytes_in));
  registry_->gauge("kv.compact.bytes_out").set(
      static_cast<std::int64_t>(ks.compact_bytes_out));
  registry_->gauge("kv.stall.stops").set(
      static_cast<std::int64_t>(ks.stall_stops));
  registry_->gauge("kv.stall.foreground_ms").set(
      static_cast<std::int64_t>(ks.stall_foreground_ms));
  registry_->gauge("kv.stall.slowdowns").set(
      static_cast<std::int64_t>(ks.stall_slowdowns));
  registry_->gauge("kv.stall.slowdown_ms").set(
      static_cast<std::int64_t>(ks.stall_slowdown_ms));

  if (const auto& cache = metadata_->db().options().block_cache) {
    registry_->gauge("kv.cache.hits").set(
        static_cast<std::int64_t>(cache->hits()));
    registry_->gauge("kv.cache.misses").set(
        static_cast<std::int64_t>(cache->misses()));
    registry_->gauge("kv.cache.bytes_used").set(
        static_cast<std::int64_t>(cache->bytes_used()));
  }
}

std::string GekkoDaemon::metrics_json() {
  publish_backend_metrics_();
  metrics::Snapshot snap = registry_->snapshot();
  // Provenance stamp: which daemon produced this snapshot (offline
  // merges of several daemons' dumps stay attributable).
  snap.node_id = static_cast<std::uint32_t>(engine_->endpoint());
  return snap.to_json();
}

}  // namespace gekko::daemon
