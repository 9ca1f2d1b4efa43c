// relaxed-ok: next_loop_ is a round-robin ticket counter; any
// interleaving yields a valid loop assignment.
#include "net/stream_fabric.h"
#include "common/flight_recorder.h"
#include "common/thread_annotations.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <limits.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <thread>

#include "common/fileio.h"
#include "common/logging.h"

namespace gekko::net {
namespace {

#ifndef IOV_MAX
#define IOV_MAX 1024
#endif

/// Split "host:port" at the LAST colon (leaves room for IPv6 hosts in
/// brackets later) and resolve to an IPv4 socket address.
Result<sockaddr_in> resolve_ipv4(const std::string& hostport) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == hostport.size()) {
    return Status{Errc::invalid_argument, "bad tcp address: " + hostport};
  }
  const std::string host = hostport.substr(0, colon);
  const std::string_view port_sv{hostport.data() + colon + 1,
                                 hostport.size() - colon - 1};
  std::uint16_t port = 0;
  auto [end, ec] =
      std::from_chars(port_sv.data(), port_sv.data() + port_sv.size(), port);
  if (ec != std::errc{} || end != port_sv.data() + port_sv.size()) {
    return Status{Errc::invalid_argument, "bad tcp port: " + hostport};
  }

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) == 1) return sa;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return Status{Errc::disconnected, "cannot resolve host: " + host};
  }
  sa.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return sa;
}

/// A socket address of either family, ready for bind()/connect().
struct SockAddr {
  sockaddr_storage storage{};
  socklen_t len = 0;

  [[nodiscard]] int family() const noexcept { return storage.ss_family; }
  [[nodiscard]] const sockaddr* get() const noexcept {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

/// The one place the address family shapes an address: a socket path
/// becomes sockaddr_un, "host:port" becomes sockaddr_in.
Result<SockAddr> make_sockaddr(Transport transport,
                               const std::string& address) {
  SockAddr out;
  if (transport == Transport::tcp) {
    auto sa = resolve_ipv4(address);
    if (!sa) return sa.status();
    std::memcpy(&out.storage, &*sa, sizeof(*sa));
    out.len = sizeof(*sa);
    return out;
  }
  auto* un = reinterpret_cast<sockaddr_un*>(&out.storage);
  un->sun_family = AF_UNIX;
  // Silently truncating would dial (or bind) a wrong, likely
  // nonexistent socket and report a confusing error instead of the
  // actual misconfiguration.
  if (address.size() >= sizeof(un->sun_path)) {
    return Status{Errc::invalid_argument, "socket path too long: " + address};
  }
  std::memcpy(un->sun_path, address.c_str(), address.size() + 1);
  out.len = sizeof(sockaddr_un);
  return out;
}

/// Pending connections a listener queues before accept().
constexpr int kListenBacklog = 128;

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

enum class WriteRc { done, again, error };

/// Nonblocking gathered send: advances `iov`/`idx` across partial
/// writes, returns `again` the moment the socket buffer fills.
WriteRc try_writev(int fd, std::vector<iovec>& iov, std::size_t& idx) {
  while (idx < iov.size()) {
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    msghdr mh{};
    mh.msg_iov = iov.data() + idx;
    mh.msg_iovlen = std::min<std::size_t>(iov.size() - idx, IOV_MAX);
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return WriteRc::again;
      return WriteRc::error;
    }
    auto advanced = static_cast<std::size_t>(n);
    while (idx < iov.size() && advanced >= iov[idx].iov_len) {
      advanced -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iov.size() && advanced > 0) {
      iov[idx].iov_base =
          static_cast<std::uint8_t*>(iov[idx].iov_base) + advanced;
      iov[idx].iov_len -= advanced;
    }
  }
  return WriteRc::done;
}

}  // namespace

StreamFabric::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

// ---------------------------------------------------------------------------
// EventLoop: one epoll instance + one thread, owning readiness for a
// subset of connections. Connections are looked up by fd under the
// loop lock, then dispatched WITHOUT it — handlers take fabric locks
// (conn/reply/bulk) and per-conn out locks freely.
// ---------------------------------------------------------------------------
class StreamFabric::EventLoop {
 public:
  explicit EventLoop(StreamFabric* owner) : owner_(owner) {}

  ~EventLoop() {
    stop();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epfd_ >= 0) ::close(epfd_);
  }

  Status init() {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) return Status{Errc::io_error, "epoll_create1()"};
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) return Status{Errc::io_error, "eventfd()"};
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return Status{Errc::io_error, "epoll_ctl(wake)"};
    }
    thread_ = std::thread([this] { run_(); });
    return Status::ok();
  }

  Status set_listener(int fd) {
    listen_fd_.store(fd, std::memory_order_release);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      listen_fd_.store(-1, std::memory_order_release);
      return Status{Errc::io_error, "epoll_ctl(listen)"};
    }
    return Status::ok();
  }

  Status add_conn(const std::shared_ptr<Conn>& conn) {
    LockGuard lock(mutex_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      return Status{Errc::io_error,
                    std::string("epoll_ctl(add): ") + std::strerror(errno)};
    }
    conns_[conn->fd] = conn;
    return Status::ok();
  }

  void remove_conn(int fd) {
    LockGuard lock(mutex_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    conns_.erase(it);
  }

  /// Toggle EPOLLOUT interest (EPOLLIN stays on). Callers hold the
  /// connection's out lock, which serializes arm/disarm decisions.
  void arm_write(int fd, bool enable) {
    epoll_event ev{};
    ev.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    (void)::write(wake_fd_, &one, sizeof(one));
    thread_.join();
  }

  /// Drop every connection reference (shutdown: after the thread is
  /// joined, so nothing dispatches anymore).
  void clear_conns() {
    LockGuard lock(mutex_);
    conns_.clear();
  }

 private:
  void run_() {
    std::array<epoll_event, 64> evs;
    while (!stop_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epfd_, evs.data(),
                                 static_cast<int>(evs.size()), -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (fd == wake_fd_) {
          std::uint64_t drained = 0;
          (void)::read(wake_fd_, &drained, sizeof(drained));
          continue;
        }
        if (fd == listen_fd_.load(std::memory_order_acquire)) {
          owner_->accept_ready_();
          continue;
        }
        std::shared_ptr<Conn> conn;
        {
          LockGuard lock(mutex_);
          auto it = conns_.find(fd);
          if (it != conns_.end()) conn = it->second;
        }
        if (!conn) continue;  // killed while the event was in flight
        if (evs[i].events & EPOLLIN) owner_->on_readable_(conn);
        if (conn->dead.load(std::memory_order_acquire)) continue;
        if (evs[i].events & EPOLLOUT) owner_->on_writable_(conn);
        if ((evs[i].events & (EPOLLERR | EPOLLHUP)) &&
            !(evs[i].events & EPOLLIN)) {
          owner_->kill_conn_(conn);
        }
      }
    }
  }

  StreamFabric* owner_;
  int epfd_ = -1;
  int wake_fd_ = -1;
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stop_{false};
  Mutex mutex_{"net.stream.loop", lockdep::rank::kStreamLoop};
  std::map<int, std::shared_ptr<Conn>> conns_ GEKKO_GUARDED_BY(mutex_);
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// StreamFabric
// ---------------------------------------------------------------------------

StreamFabric::StreamFabric(const MakeFabricOptions& options)
    : options_(options) {
  if (options_.event_loops == 0) options_.event_loops = 2;
  const std::string prefix =
      options_.transport == Transport::tcp ? "net.tcp." : "net.uds.";
  auto& reg = metrics::Registry::global();
  m_.frames_out = &reg.counter(prefix + "frames_out");
  m_.frames_in = &reg.counter(prefix + "frames_in");
  m_.bytes_out = &reg.counter(prefix + "bytes_out");
  m_.bytes_in = &reg.counter(prefix + "bytes_in");
  m_.dials = &reg.counter(prefix + "dials");
  m_.redials = &reg.counter(prefix + "redials");
  m_.evictions = &reg.counter(prefix + "evictions");
  m_.writev_segments = &reg.counter(prefix + "writev_segments");
  m_.flushes = &reg.counter(prefix + "flushes");
  m_.coalesced_frames = &reg.counter(prefix + "coalesced_frames");
}

Result<std::unique_ptr<StreamFabric>> StreamFabric::create(
    const std::filesystem::path& hostfile, const MakeFabricOptions& options) {
  auto content = io::read_file(hostfile);
  if (!content) return content.status();
  auto hosts = parse_hostfile(*content);
  if (!hosts) return hosts.status();
  auto transport = hostfile_transport(*hosts, options.transport);
  if (!transport) return transport.status();
  if (options.self_id != kInvalidEndpoint &&
      !hosts->contains(options.self_id)) {
    return Status{Errc::invalid_argument, "self_id not in hostfile"};
  }
  MakeFabricOptions resolved = options;
  resolved.transport = *transport;
  std::unique_ptr<StreamFabric> fabric(new StreamFabric(resolved));
  fabric->hosts_ = std::move(*hosts);
  GEKKO_RETURN_IF_ERROR(fabric->start_loops_());
  return fabric;
}

Result<std::unique_ptr<StreamFabric>> make_fabric(
    const std::filesystem::path& hostfile, const MakeFabricOptions& options) {
  return StreamFabric::create(hostfile, options);
}

Result<std::filesystem::path> StreamFabric::write_hostfile(
    const std::filesystem::path& dir, std::uint32_t n, Transport transport) {
  GEKKO_RETURN_IF_ERROR(io::ensure_dir(dir));
  std::string content;
  if (transport == Transport::uds) {
    for (std::uint32_t i = 0; i < n; ++i) {
      content += std::to_string(i) + " " +
                 (dir / ("gkfsd." + std::to_string(i) + ".sock")).string() +
                 "\n";
    }
    const auto path = dir / "hosts.txt";
    GEKKO_RETURN_IF_ERROR(io::write_file_atomic(path, content));
    return path;
  }
  if (transport != Transport::tcp) {
    return Status{Errc::invalid_argument, "write_hostfile needs uds or tcp"};
  }
  // Probe n free ports by binding port 0; every probe socket stays
  // open until ALL ports are picked so the kernel cannot hand the same
  // port out twice.
  std::vector<int> probes;
  Status st = Status::ok();
  for (std::uint32_t i = 0; i < n && st.is_ok(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      st = Status{Errc::io_error, "socket()"};
      break;
    }
    probes.push_back(fd);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    socklen_t len = sizeof(sa);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
      st = Status{Errc::io_error,
                  std::string("port probe: ") + std::strerror(errno)};
      break;
    }
    content += std::to_string(i) + " 127.0.0.1:" +
               std::to_string(ntohs(sa.sin_port)) + "\n";
  }
  for (const int fd : probes) ::close(fd);
  GEKKO_RETURN_IF_ERROR(st);

  const auto path = dir / "tcp_hosts.txt";
  GEKKO_RETURN_IF_ERROR(io::write_file_atomic(path, content));
  return path;
}

StreamFabric::~StreamFabric() { shutdown_(); }

Status StreamFabric::start_loops_() {
  for (std::size_t i = 0; i < options_.event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>(this);
    GEKKO_RETURN_IF_ERROR(loop->init());
    loops_.push_back(std::move(loop));
  }
  return Status::ok();
}

StreamFabric::EventLoop* StreamFabric::pick_loop_() {
  const std::size_t i =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  return loops_[i].get();
}

std::pair<EndpointId, std::shared_ptr<Inbox>>
StreamFabric::register_endpoint() {
  if (inbox_ != nullptr) {
    // One endpoint per process; repeat registration is a programming
    // error in this transport.
    GEKKO_ERROR("net.stream") << "second endpoint on a stream fabric";
    return {kInvalidEndpoint, nullptr};
  }
  inbox_ = std::make_shared<Inbox>();
  if (options_.self_id != kInvalidEndpoint) {
    self_ = options_.self_id;
    if (Status st = start_listener_(); !st.is_ok()) {
      GEKKO_ERROR("net.stream") << "listener failed: " << st.to_string();
      // Roll the registration back entirely: a retry after the caller
      // fixes the cause (missing socket dir, held port) must see the
      // real error again, not the "second endpoint" guard tripping on
      // the inbox this failed attempt left behind.
      inbox_.reset();
      self_ = kInvalidEndpoint;
      return {kInvalidEndpoint, nullptr};
    }
  } else {
    self_ = wire::derive_client_endpoint_id();
  }
  return {self_, inbox_};
}

Status StreamFabric::start_listener_() {
  const std::string& address = hosts_.at(self_);
  auto sa = make_sockaddr(options_.transport, address);
  if (!sa) return sa.status();
  // A daemon killed without shutdown leaves its socket file behind;
  // bind() would fail on it with EADDRINUSE.
  if (options_.transport == Transport::uds) (void)::unlink(address.c_str());

  listen_fd_ =
      ::socket(sa->family(), SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status{Errc::io_error, "socket()"};
  // Failure must not leak the fd nor leave listen_fd_ pointing at a
  // half-configured socket a later shutdown_() would close again.
  const auto fail = [this](Status st) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  };

  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, sa->get(), sa->len) != 0) {
    return fail(Status{Errc::io_error,
                       "bind " + address + ": " + std::strerror(errno)});
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return fail(Status{Errc::io_error, "listen()"});
  }
  // The listener lives in loop 0; there is no acceptor thread at all —
  // accepts are just another readiness event.
  if (Status st = loops_[0]->set_listener(listen_fd_); !st.is_ok()) {
    return fail(std::move(st));
  }
  return Status::ok();
}

void StreamFabric::accept_ready_() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained the backlog) or listener closed
    }
    if (options_.transport == Transport::tcp) set_nodelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->loop = pick_loop_();
    // Publish and register atomically w.r.t. kill/shutdown (kStreamLoop
    // ranks under kStreamConn for exactly this nesting).
    LockGuard lock(conn_mutex_);
    if (stopping_now_()) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
      conn->fd = -1;
      return;
    }
    incoming_.push_back(conn);
    if (!conn->loop->add_conn(conn).is_ok()) {
      std::erase(incoming_, conn);
      ::shutdown(fd, SHUT_RDWR);
    }
  }
}

void StreamFabric::on_readable_(const std::shared_ptr<Conn>& conn) {
  // rd / rd_pos are loop-thread-private (one loop owns each fd).
  bool eof = false;
  bool fatal = false;
  std::uint8_t buf[64 * 1024];
  // Read until EAGAIN; level-triggered epoll re-arms if the peer keeps
  // sending, so a hard iteration cap only bounds single-conn latency.
  for (int round = 0; round < 16; ++round) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->rd.insert(conn->rd.end(), buf, buf + n);
      m_.bytes_in->inc(static_cast<std::uint64_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fatal = true;
    break;
  }
  if (!drain_frames_(conn)) fatal = true;
  if (eof || fatal) kill_conn_(conn);
}

bool StreamFabric::drain_frames_(const std::shared_ptr<Conn>& conn) {
  auto& rd = conn->rd;
  while (rd.size() - conn->rd_pos >= wire::kLenPrefixBytes) {
    std::uint32_t frame_len = 0;
    std::memcpy(&frame_len, rd.data() + conn->rd_pos, sizeof(frame_len));
    if (frame_len < wire::kMinFrameBytes ||
        frame_len > options_.max_frame_bytes) {
      return false;  // stream framing is broken; nothing is trustable
    }
    const std::size_t total = wire::kLenPrefixBytes + frame_len;
    if (rd.size() - conn->rd_pos < total) break;  // partial frame

    const std::span<const std::uint8_t> frame{
        rd.data() + conn->rd_pos + wire::kLenPrefixBytes, frame_len};
    m_.frames_in->inc();
    wire::DecodedFrame decoded;
    if (!wire::decode_frame(frame, options_.max_frame_bytes, &decoded)
             .is_ok()) {
      return false;
    }
    if (!deliver_frame_(conn, std::move(decoded))) return false;
    conn->rd_pos += total;
  }
  // Compact the consumed prefix so the buffer tracks the partial
  // remainder, not the whole session's history.
  if (conn->rd_pos == rd.size()) {
    rd.clear();
    conn->rd_pos = 0;
  } else if (conn->rd_pos > 0) {
    rd.erase(rd.begin(),
             rd.begin() + static_cast<std::ptrdiff_t>(conn->rd_pos));
    conn->rd_pos = 0;
  }
  return true;
}

bool StreamFabric::deliver_frame_(const std::shared_ptr<Conn>& conn,
                               wire::DecodedFrame decoded) {
  Message msg = std::move(decoded.msg);
  BulkRegion writable_bulk;
  if (decoded.bulk_mode == wire::kBulkWritableSize) writable_bulk = msg.bulk;

  if (decoded.bulk_mode == wire::kBulkResponseData) {
    // Response carrying dirty ranges for one of OUR pending writable
    // regions (fan-out reads have several responses filling disjoint
    // parts of one region). Applied under bulk_mutex_, which cancel()
    // also takes, so once a cancel returns no byte lands in the
    // caller's buffer. A range outside the region is a corrupt or
    // hostile peer: kill the connection. No pending entry (cancelled
    // or timed out): the ranges are dropped.
    LockGuard lock(bulk_mutex_);
    auto it = pending_writable_.find(msg.seq);
    if (it != pending_writable_.end()) {
      if (!wire::apply_response_ranges(it->second.region, decoded.ranges)
               .is_ok()) {
        return false;
      }
      pending_writable_.erase(it);
    }
  }

  if (msg.kind == MessageKind::request) {
    PendingReply reply;
    reply.conn = conn;
    reply.writable_bulk = std::move(writable_bulk);
    LockGuard lock(reply_mutex_);
    pending_replies_[ReplyKey{msg.source, msg.seq}] = std::move(reply);
  } else {
    LockGuard lock(bulk_mutex_);
    pending_writable_.erase(msg.seq);
  }

  return inbox_ && inbox_->push(std::move(msg));
}

Status StreamFabric::send_frame_(Conn& conn, const wire::EncodedFrame& frame) {
  if (conn.dead.load(std::memory_order_acquire)) {
    return Status{Errc::disconnected, "connection dead"};
  }
  {
    LockGuard lock(conn.out_mutex);
    if (conn.out.empty() && !conn.epollout_armed) {
      // Socket idle: write inline, zero-copy, from this thread.
      std::vector<iovec> iov;
      iov.reserve(frame.segment_count() * 2 + 2);
      frame.append_iov(&iov);
      std::size_t idx = 0;
      switch (try_writev(conn.fd, iov, idx)) {
        case WriteRc::done:
          m_.writev_segments->inc(frame.segment_count());
          break;
        case WriteRc::again:
          m_.writev_segments->inc(frame.segment_count());
          // Socket buffer full mid-frame: park the unsent tail on the
          // queue and let the event loop finish it.
          for (std::size_t j = idx; j < iov.size(); ++j) {
            const auto* base = static_cast<const std::uint8_t*>(
                iov[j].iov_base);
            conn.out.insert(conn.out.end(), base, base + iov[j].iov_len);
          }
          conn.out_frames = 1;
          conn.epollout_armed = true;
          conn.loop->arm_write(conn.fd, true);
          break;
        case WriteRc::error:
          return Status{Errc::disconnected,
                        std::string("sendmsg: ") + std::strerror(errno)};
      }
    } else {
      // Socket backed up: flatten behind the queued bytes. The event
      // loop will flush the whole backlog in single sendmsg calls —
      // this queue-append IS the write coalescing.
      frame.flatten_into(&conn.out);
      ++conn.out_frames;
      if (!conn.epollout_armed) {
        conn.epollout_armed = true;
        conn.loop->arm_write(conn.fd, true);
      }
    }
  }
  m_.frames_out->inc();
  m_.bytes_out->inc(frame.wire_bytes());
  return Status::ok();
}

void StreamFabric::on_writable_(const std::shared_ptr<Conn>& conn) {
  bool broken = false;
  {
    LockGuard lock(conn->out_mutex);
    while (conn->out_pos < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_pos,
                 conn->out.size() - conn->out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        broken = true;
        break;
      }
      conn->out_pos += static_cast<std::size_t>(n);
    }
    if (!broken && conn->out_pos == conn->out.size()) {
      m_.flushes->inc();
      if (conn->out_frames > 1) m_.coalesced_frames->inc(conn->out_frames);
      conn->out.clear();
      conn->out_pos = 0;
      conn->out_frames = 0;
      conn->epollout_armed = false;
      conn->loop->arm_write(conn->fd, false);
    }
  }
  if (broken) kill_conn_(conn);
}

Result<std::shared_ptr<StreamFabric::Conn>> StreamFabric::connect_to_(
    EndpointId dest) {
  {
    LockGuard lock(conn_mutex_);
    auto it = outgoing_.find(dest);
    if (it != outgoing_.end() &&
        !it->second->dead.load(std::memory_order_acquire)) {
      return it->second;
    }
  }
  auto host = hosts_.find(dest);
  if (host == hosts_.end()) {
    return Status{Errc::disconnected, "unknown endpoint id"};
  }
  auto sa = make_sockaddr(options_.transport, host->second);
  if (!sa) return sa.status();

  const int fd = ::socket(sa->family(), SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status{Errc::io_error, "socket()"};
  // Blocking connect (the dialer wants the result synchronously), then
  // nonblocking for the event loop.
  if (::connect(fd, sa->get(), sa->len) != 0) {
    ::close(fd);
    return Status{Errc::disconnected,
                  "connect " + host->second + ": " + std::strerror(errno)};
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (options_.transport == Transport::tcp) set_nodelay(fd);
  m_.dials->inc();
  flight::record(flight::Subsys::fabric, flight::ev::fabric_connect, dest);

  LockGuard lock(conn_mutex_);
  auto it = outgoing_.find(dest);
  if (it != outgoing_.end()) {
    if (!it->second->dead.load(std::memory_order_acquire)) {
      // Lost a connect race; keep the established link.
      ::close(fd);
      return it->second;
    }
    // Replace a dead cached connection (kill_conn_ already pulled it
    // out of its event loop; the shared_ptr drop closes the fd).
    m_.redials->inc();
    flight::record(flight::Subsys::fabric, flight::ev::fabric_redial, dest);
    outgoing_.erase(it);
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->peer = dest;
  conn->loop = pick_loop_();
  if (Status st = conn->loop->add_conn(conn); !st.is_ok()) return st;
  outgoing_[dest] = conn;
  return conn;
}

void StreamFabric::kill_conn_(const std::shared_ptr<Conn>& conn) {
  const bool already = conn->dead.exchange(true, std::memory_order_acq_rel);
  ::shutdown(conn->fd, SHUT_RDWR);
  if (stopping_now_()) return;  // shutdown_() owns all cleanup
  if (!already) {
    m_.evictions->inc();
    flight::record(flight::Subsys::fabric, flight::ev::fabric_evict,
                   conn->peer);
  }
  if (conn->loop != nullptr) conn->loop->remove_conn(conn->fd);
  evict_(conn);
}

void StreamFabric::evict_(const std::shared_ptr<Conn>& conn) {
  {
    LockGuard lock(conn_mutex_);
    if (conn->peer != kInvalidEndpoint) {
      auto it = outgoing_.find(conn->peer);
      if (it != outgoing_.end() && it->second == conn) outgoing_.erase(it);
    }
    std::erase(incoming_, conn);
  }
  {
    LockGuard lock(reply_mutex_);
    std::erase_if(pending_replies_,
                  [&](const auto& kv) { return kv.second.conn == conn; });
  }
  {
    LockGuard lock(bulk_mutex_);
    std::erase_if(pending_writable_,
                  [&](const auto& kv) { return kv.second.conn == conn; });
  }
}

void StreamFabric::kill_connection_(EndpointId dest, const Message& msg) {
  flight::record(flight::Subsys::fabric, flight::ev::fabric_kill, dest,
                 static_cast<std::uint32_t>(msg.seq));
  std::shared_ptr<Conn> victim;
  if (msg.kind == MessageKind::response) {
    LockGuard lock(reply_mutex_);
    auto it = pending_replies_.find(ReplyKey{dest, msg.seq});
    if (it != pending_replies_.end()) victim = it->second.conn;
  } else {
    LockGuard lock(conn_mutex_);
    auto it = outgoing_.find(dest);
    if (it != outgoing_.end()) victim = it->second;
  }
  if (victim) kill_conn_(victim);
}

void StreamFabric::cancel(std::uint64_t seq) {
  LockGuard lock(bulk_mutex_);
  pending_writable_.erase(seq);
}

Status StreamFabric::send(EndpointId dest, Message msg) {
  {
    LockGuard lock(stats_mutex_);
    ++stats_.messages_sent;
    stats_.payload_bytes += msg.payload.size();
  }
  const FaultAction fault = consult_injector_(dest, msg);
  if (fault.kill_connection) kill_connection_(dest, msg);
  if (fault.delay.count() > 0) {
    std::this_thread::sleep_for(fault.delay);  // blocking-ok: scripted fault delay runs on the injecting sender's thread by design
  }
  if (fault.drop) {
    LockGuard lock(stats_mutex_);
    ++stats_.messages_dropped;
    return Status::ok();  // silent loss, sender can't observe it
  }

  if (msg.kind == MessageKind::response) {
    PendingReply reply;
    {
      LockGuard lock(reply_mutex_);
      auto it = pending_replies_.find(ReplyKey{dest, msg.seq});
      if (it == pending_replies_.end()) {
        return Status{Errc::disconnected, "no reply route for seq"};
      }
      reply = std::move(it->second);
      pending_replies_.erase(it);
    }
    const BulkRegion* bulk_out =
        reply.writable_bulk.valid() ? &reply.writable_bulk : nullptr;
    auto frame =
        wire::encode_frame(msg, bulk_out, self_, options_.max_frame_bytes);
    if (!frame) return frame.status();
    Status st = send_frame_(*reply.conn, *frame);
    if (st.is_ok() && fault.duplicate) {
      // status-ignored-ok: best-effort reply; a dead peer is caught by its reader
      (void)send_frame_(*reply.conn, *frame);
    }
    return st;
  }

  // Request path. A cached connection may have died since the last
  // send (daemon restart): if the write fails, evict the link and
  // redial once, transparently.
  auto frame = wire::encode_frame(msg, nullptr, self_, options_.max_frame_bytes);
  if (!frame) return frame.status();
  Status last = Status::ok();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto conn = connect_to_(dest);
    if (!conn) return conn.status();
    if (msg.bulk.valid() && msg.bulk.writable() && !msg.bulk.owned()) {
      LockGuard lock(bulk_mutex_);
      pending_writable_[msg.seq] = PendingWritable{msg.bulk, *conn};
    }
    last = send_frame_(**conn, *frame);
    if (last.is_ok()) {
      // status-ignored-ok: injected duplicate send
      if (fault.duplicate) (void)send_frame_(**conn, *frame);
      return last;
    }
    {
      LockGuard lock(bulk_mutex_);
      pending_writable_.erase(msg.seq);
    }
    if (last.code() != Errc::disconnected) return last;  // e.g. overflow
    kill_conn_(*conn);
  }
  return last;
}

void StreamFabric::deregister(EndpointId id) {
  (void)id;
  shutdown_();
}

void StreamFabric::shutdown_() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;
  }
  // Stop the loops FIRST: after the joins nothing dispatches, so the
  // rest of teardown owns every connection exclusively.
  for (auto& loop : loops_) loop->stop();
  const bool listening = listen_fd_ >= 0;
  if (listening) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Conn>> conns;
  {
    LockGuard lock(conn_mutex_);
    for (auto& [id, c] : outgoing_) conns.push_back(c);
    conns.insert(conns.end(), incoming_.begin(), incoming_.end());
    outgoing_.clear();
    incoming_.clear();
  }
  for (auto& c : conns) {
    ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& loop : loops_) loop->clear_conns();
  {
    LockGuard lock(reply_mutex_);
    pending_replies_.clear();
  }
  {
    LockGuard lock(bulk_mutex_);
    pending_writable_.clear();
  }
  if (inbox_) inbox_->close();
  if (listening && options_.transport == Transport::uds) {
    (void)::unlink(hosts_.at(self_).c_str());
  }
}

Status StreamFabric::bulk_pull(const BulkRegion& region, std::size_t offset,
                            std::span<std::uint8_t> out) {
  if (!region.valid()) return Status{Errc::invalid_argument, "invalid bulk"};
  if (!wire::range_in_bounds(offset, out.size(), region.size())) {
    return Status{Errc::overflow, "bulk pull out of range"};
  }
  std::memcpy(out.data(), region.read_ptr() + offset, out.size());
  LockGuard lock(stats_mutex_);
  stats_.bulk_bytes_pulled += out.size();
  return Status::ok();
}

Status StreamFabric::bulk_push(const BulkRegion& region, std::size_t offset,
                            std::span<const std::uint8_t> data) {
  if (!region.valid() || !region.writable()) {
    return Status{Errc::invalid_argument, "bulk region not writable"};
  }
  if (!wire::range_in_bounds(offset, data.size(), region.size())) {
    return Status{Errc::overflow, "bulk push out of range"};
  }
  std::memcpy(region.write_ptr() + offset, data.data(), data.size());
  region.record_push(offset, data.size());
  LockGuard lock(stats_mutex_);
  stats_.bulk_bytes_pushed += data.size();
  return Status::ok();
}

TrafficStats StreamFabric::stats() const {
  LockGuard lock(stats_mutex_);
  return stats_;
}

}  // namespace gekko::net
