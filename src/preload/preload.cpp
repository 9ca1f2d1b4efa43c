// LD_PRELOAD client interposition library (paper §III.B.a):
//
// "An application that uses GekkoFS must first preload the client
//  interposition library which intercepts all file system operations
//  and forwards them to a server (GekkoFS daemon), if necessary."
//
// This shim intercepts the libc calls an unmodified tool (cat, cp,
// dd, shell redirection, ...) issues, routes paths under GKFS_MOUNT
// into a GekkoFS client, and forwards everything else to the real
// libc via dlsym(RTLD_NEXT) — the dispatch test is FileMap::owns(fd)
// for descriptor calls and a prefix match for path calls, exactly the
// structure the paper describes.
//
// Deployment model (demo): the daemons run IN-PROCESS, booted lazily
// from environment variables on first use:
//   GKFS_MOUNT=/gkfs          namespace prefix to intercept
//   GKFS_ROOT=/tmp/gkfs-data  on-disk daemon state (persists!)
//   GKFS_NODES=2              daemon count
// Sequential processes share state through GKFS_ROOT (WAL/SSTs/chunks
// are durable); concurrent processes are NOT supported by the demo
// (two processes must not open the same node-local KV store).
//
// Usage (one line):
//   LD_PRELOAD=libgkfs_preload.so GKFS_MOUNT=/gkfs cp data.bin /gkfs/
//
// Known limitation (inherent to SYMBOL interposition): glibc's stdio
// performs writes through internal, non-interposable entry points, so
// shell BUILTINS (echo > /gkfs/x) cannot be redirected into GekkoFS.
// External tools calling read/write/openat through the PLT (cat, cp,
// dd, ls, stat, rm, mkdir, touch, ...) work. Production GekkoFS avoids
// this class of gap by intercepting at the SYSCALL level with
// syscall_intercept; that mechanism is orthogonal to everything this
// repository evaluates (see DESIGN.md §1).
#include <dirent.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <stdarg.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cluster/cluster.h"
#include "common/thread_annotations.h"
#include "fs/mount.h"
#include "net/stream_fabric.h"

namespace {

using gekko::Errc;

// ---------- real libc entry points ----------

template <typename Fn>
Fn real(const char* name) {
  static_assert(sizeof(Fn) == sizeof(void*));
  void* sym = ::dlsym(RTLD_NEXT, name);
  Fn fn;
  std::memcpy(&fn, &sym, sizeof(fn));
  return fn;
}

using open_fn = int (*)(const char*, int, ...);
using close_fn = int (*)(int);
using read_fn = ssize_t (*)(int, void*, size_t);
using write_fn = ssize_t (*)(int, const void*, size_t);
using pread_fn = ssize_t (*)(int, void*, size_t, off_t);
using pwrite_fn = ssize_t (*)(int, const void*, size_t, off_t);
using lseek_fn = off_t (*)(int, off_t, int);
using stat_fn = int (*)(const char*, struct stat*);
using fstat_fn = int (*)(int, struct stat*);
using unlink_fn = int (*)(const char*);
using mkdir_fn = int (*)(const char*, mode_t);
using rmdir_fn = int (*)(const char*);
using truncate_fn = int (*)(const char*, off_t);
using ftruncate_fn = int (*)(int, off_t);
using fsync_fn = int (*)(int);
using opendir_fn = DIR* (*)(const char*);
using readdir_fn = struct dirent* (*)(DIR*);
using closedir_fn = int (*)(DIR*);
using openat_fn = int (*)(int, const char*, int, ...);

// ---------- shim state ----------

struct ShimState {
  std::string mount_prefix;  // e.g. "/gkfs"
  std::unique_ptr<gekko::cluster::Cluster> cluster;        // embedded mode
  std::unique_ptr<gekko::net::StreamFabric> socket_fabric;  // attached mode
  std::unique_ptr<gekko::fs::Mount> mount;
  bool enabled = false;
  // dup2(gkfs_fd, n) aliases a LOW (kernel-range) fd to a GekkoFS fd —
  // shell redirection does exactly this with fds 0/1/2.
  gekko::Mutex alias_mutex{"preload.alias", gekko::lockdep::rank::kPreloadAlias};
  std::unordered_map<int, int> fd_aliases
      GEKKO_GUARDED_BY(alias_mutex);  // low fd -> gekko fd
};

std::once_flag g_init_once;
ShimState* g_state = nullptr;  // intentionally leaked (exit-order safety)
thread_local bool g_in_init = false;  // cluster boot re-enters open()

void init_shim() {
  g_in_init = true;
  const char* mount_prefix = ::getenv("GKFS_MOUNT");
  if (mount_prefix == nullptr || mount_prefix[0] != '/') {
    g_in_init = false;
    return;
  }

  auto state = std::make_unique<ShimState>();
  state->mount_prefix = mount_prefix;

  if (const char* hostfile = ::getenv("GKFS_HOSTFILE")) {
    // ATTACHED mode: connect to running gkfsd daemon processes over
    // Unix sockets or TCP, per the hostfile's addresses (concurrent
    // client processes are safe — the daemons own all state).
    auto fabric = gekko::net::make_fabric(hostfile, {});
    if (!fabric) {
      std::fprintf(stderr, "[gkfs-preload] hostfile: %s\n",
                   fabric.status().to_string().c_str());
      g_in_init = false;
      return;
    }
    std::vector<gekko::net::EndpointId> daemons =
        (*fabric)->daemon_ids();
    state->socket_fabric = std::move(*fabric);
    state->mount = std::make_unique<gekko::fs::Mount>(
        *state->socket_fabric, std::move(daemons));
  } else {
    // EMBEDDED mode: boot daemons in-process (sequential processes
    // only; they share state through GKFS_ROOT).
    const char* root = ::getenv("GKFS_ROOT");
    const char* nodes_env = ::getenv("GKFS_NODES");
    const std::uint32_t nodes =
        nodes_env != nullptr ? std::strtoul(nodes_env, nullptr, 10) : 2;
    gekko::cluster::ClusterOptions opts;
    opts.nodes = nodes > 0 ? nodes : 2;
    opts.root = root != nullptr ? root : "/tmp/gkfs-preload-data";
    auto cluster = gekko::cluster::Cluster::start(opts);
    if (!cluster) {
      std::fprintf(stderr, "[gkfs-preload] boot failed: %s\n",
                   cluster.status().to_string().c_str());
      g_in_init = false;
      return;
    }
    state->cluster = std::move(*cluster);
    state->mount = state->cluster->mount();
  }
  state->enabled = true;
  g_state = state.release();
  g_in_init = false;
}

bool debug_enabled() {
  static const bool on = ::getenv("GKFS_DEBUG") != nullptr;
  return on;
}

#define GKFS_SHIM_LOG(...)                                   \
  do {                                                       \
    if (debug_enabled()) {                                   \
      std::fprintf(stderr, "[gkfs] " __VA_ARGS__);           \
      std::fputc('\n', stderr);                              \
    }                                                        \
  } while (0)

ShimState* shim() {
  if (g_in_init) return nullptr;  // pass through during our own boot
  std::call_once(g_init_once, init_shim);
  return g_state;
}

/// Paths under the mount prefix are ours; returns the gekko-internal
/// path ("/gkfs/a/b" -> "/a/b") or nullopt.
std::optional<std::string> intercept_path(const char* path) {
  ShimState* s = shim();
  if (s == nullptr || !s->enabled || path == nullptr || path[0] != '/') {
    return std::nullopt;
  }
  const std::string_view p{path};
  const std::string_view prefix{s->mount_prefix};
  if (!p.starts_with(prefix)) return std::nullopt;
  if (p.size() == prefix.size()) return std::string{"/"};
  if (p[prefix.size()] != '/') return std::nullopt;
  return std::string(p.substr(prefix.size()));
}

/// Resolve an application fd to a GekkoFS fd (direct or via dup2
/// alias); -1 if the fd is not ours.
int resolve_fd(int fd) {
  if (g_state == nullptr) return -1;
  if (gekko::fs::FileMap::owns(fd)) return fd;
  gekko::LockGuard lock(g_state->alias_mutex);
  auto it = g_state->fd_aliases.find(fd);
  return it != g_state->fd_aliases.end() ? it->second : -1;
}

void drop_alias(int fd) {
  if (g_state == nullptr) return;
  gekko::LockGuard lock(g_state->alias_mutex);
  g_state->fd_aliases.erase(fd);
}

int fail_errno(Errc code) {
  errno = gekko::errc_to_errno(code);
  return -1;
}

std::uint32_t translate_flags(int oflags) {
  std::uint32_t flags = 0;
  switch (oflags & O_ACCMODE) {
    case O_RDONLY: flags |= gekko::fs::rd_only; break;
    case O_WRONLY: flags |= gekko::fs::wr_only; break;
    default: flags |= gekko::fs::rd_wr; break;
  }
  if (oflags & O_CREAT) flags |= gekko::fs::create;
  if (oflags & O_EXCL) flags |= gekko::fs::excl;
  if (oflags & O_TRUNC) flags |= gekko::fs::trunc;
  if (oflags & O_APPEND) flags |= gekko::fs::append;
  return flags;
}

void fill_stat(const gekko::proto::Metadata& md, struct stat* st) {
  std::memset(st, 0, sizeof(*st));
  st->st_mode = (md.is_directory() ? S_IFDIR : S_IFREG) | (md.mode & 07777);
  st->st_size = static_cast<off_t>(md.size);
  st->st_nlink = 1;
  st->st_blksize = 512 * 1024;
  st->st_blocks = static_cast<blkcnt_t>((md.size + 511) / 512);
  st->st_mtim.tv_sec = md.mtime_ns / 1000000000;
  st->st_mtim.tv_nsec = md.mtime_ns % 1000000000;
  st->st_ctim = st->st_mtim;
  st->st_atim = st->st_mtim;
}

// Fake DIR* encoding: heap cell holding the gekko dirfd + a dirent.
struct GkfsDir {
  std::uint32_t magic = 0x6b474653;  // "kGFS"
  int dirfd;
  struct dirent entry;
};

bool is_gkfs_dir(DIR* d) {
  // Heuristic tag check; libc DIR begins with an fd int, our magic is
  // far outside the fd range.
  return d != nullptr &&
         reinterpret_cast<GkfsDir*>(d)->magic == 0x6b474653;
}

}  // namespace

// ---------- interposed entry points ----------

extern "C" {

// Forward declarations: some interposers delegate to others (e.g.
// unlinkat -> unlink), and definition order below is grouped by theme.
int unlink(const char* path);
int rmdir(const char* path);
int mkdir(const char* path, mode_t mode);
int access(const char* path, int mode);
int dup(int fd);
int stat(const char* path, struct stat* st);

int open(const char* path, int oflags, ...) {
  mode_t mode = 0;
  if (oflags & O_CREAT) {
    va_list args;
    va_start(args, oflags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  if (auto internal = intercept_path(path)) {
    auto fd = g_state->mount->open(*internal, translate_flags(oflags),
                                   mode != 0 ? mode : 0644);
    GKFS_SHIM_LOG("open(%s, %#x) -> %d", path, oflags,
                  fd.is_ok() ? *fd : -1);
    if (!fd) return fail_errno(fd.code());
    return *fd;
  }
  static open_fn next = real<open_fn>("open");
  return (oflags & O_CREAT) ? next(path, oflags, mode) : next(path, oflags);
}

int open64(const char* path, int oflags, ...) {
  mode_t mode = 0;
  if (oflags & O_CREAT) {
    va_list args;
    va_start(args, oflags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  return open(path, oflags, mode);
}

int openat(int dirfd, const char* path, int oflags, ...) {
  mode_t mode = 0;
  if (oflags & O_CREAT) {
    va_list args;
    va_start(args, oflags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  // Absolute paths (and AT_FDCWD) under the prefix are ours; coreutils
  // route almost everything through openat(AT_FDCWD, ...).
  if (path != nullptr && path[0] == '/') {
    if (intercept_path(path)) return open(path, oflags, mode);
  }
  static openat_fn next = real<openat_fn>("openat");
  return (oflags & O_CREAT) ? next(dirfd, path, oflags, mode)
                            : next(dirfd, path, oflags);
}

int close(int fd) {
  static close_fn next = real<close_fn>("close");
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    if (gfd == fd) {
      // Mount::close releases the fd even when it reports an error.
      gekko::Status st = g_state->mount->close(fd);
      if (!st.is_ok()) return fail_errno(st.code());
    } else {
      (void)g_state->mount->close(gfd);  // status-ignored-ok: the alias owns its dup
      drop_alias(fd);
      (void)next(fd);  // status-ignored-ok: release the /dev/null kernel placeholder
    }
    return 0;
  }
  return next(fd);
}

ssize_t read(int fd, void* buf, size_t count) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    auto n = g_state->mount->read(
        gfd, std::span<std::uint8_t>(static_cast<std::uint8_t*>(buf), count));
    if (!n) return fail_errno(n.code());
    return static_cast<ssize_t>(*n);
  }
  static read_fn next = real<read_fn>("read");
  return next(fd, buf, count);
}

ssize_t write(int fd, const void* buf, size_t count) {
  if (fd < 3 && resolve_fd(fd) < 0 && g_state != nullptr) {
    GKFS_SHIM_LOG("write(%d) passthrough", fd);
  }
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    auto n = g_state->mount->write(
        gfd, std::span<const std::uint8_t>(
                 static_cast<const std::uint8_t*>(buf), count));
    if (!n) return fail_errno(n.code());
    return static_cast<ssize_t>(*n);
  }
  static write_fn next = real<write_fn>("write");
  return next(fd, buf, count);
}

ssize_t pread(int fd, void* buf, size_t count, off_t offset) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    auto n = g_state->mount->pread(
        gfd, std::span<std::uint8_t>(static_cast<std::uint8_t*>(buf), count),
        static_cast<std::uint64_t>(offset));
    if (!n) return fail_errno(n.code());
    return static_cast<ssize_t>(*n);
  }
  static pread_fn next = real<pread_fn>("pread");
  return next(fd, buf, count, offset);
}

ssize_t pwrite(int fd, const void* buf, size_t count, off_t offset) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    auto n = g_state->mount->pwrite(
        gfd, std::span<const std::uint8_t>(
                 static_cast<const std::uint8_t*>(buf), count),
        static_cast<std::uint64_t>(offset));
    if (!n) return fail_errno(n.code());
    return static_cast<ssize_t>(*n);
  }
  static pwrite_fn next = real<pwrite_fn>("pwrite");
  return next(fd, buf, count, offset);
}

off_t lseek(int fd, off_t offset, int whence) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    gekko::fs::Mount::Whence w = gekko::fs::Mount::Whence::set;
    if (whence == SEEK_CUR) w = gekko::fs::Mount::Whence::cur;
    if (whence == SEEK_END) w = gekko::fs::Mount::Whence::end;
    auto pos = g_state->mount->lseek(gfd, offset, w);
    if (!pos) return fail_errno(pos.code());
    return static_cast<off_t>(*pos);
  }
  static lseek_fn next = real<lseek_fn>("lseek");
  return next(fd, offset, whence);
}

int stat(const char* path, struct stat* st) {
  if (auto internal = intercept_path(path)) {
    auto md = g_state->mount->stat(*internal);
    if (!md) return fail_errno(md.code());
    fill_stat(*md, st);
    return 0;
  }
  static stat_fn next = real<stat_fn>("stat");
  return next(path, st);
}

int lstat(const char* path, struct stat* st) {
  if (intercept_path(path)) return stat(path, st);  // no symlinks in gkfs
  static stat_fn next = real<stat_fn>("lstat");
  return next(path, st);
}

int fstat(int fd, struct stat* st) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    auto md = g_state->mount->fstat(gfd);
    if (!md) return fail_errno(md.code());
    fill_stat(*md, st);
    return 0;
  }
  static fstat_fn next = real<fstat_fn>("fstat");
  return next(fd, st);
}

int unlink(const char* path) {
  if (auto internal = intercept_path(path)) {
    gekko::Status st = g_state->mount->unlink(*internal);
    if (!st.is_ok()) return fail_errno(st.code());
    return 0;
  }
  static unlink_fn next = real<unlink_fn>("unlink");
  return next(path);
}

int mkdir(const char* path, mode_t mode) {
  if (auto internal = intercept_path(path)) {
    gekko::Status st = g_state->mount->mkdir(*internal, mode);
    if (!st.is_ok()) return fail_errno(st.code());
    return 0;
  }
  static mkdir_fn next = real<mkdir_fn>("mkdir");
  return next(path, mode);
}

int rmdir(const char* path) {
  if (auto internal = intercept_path(path)) {
    gekko::Status st = g_state->mount->rmdir(*internal);
    if (!st.is_ok()) return fail_errno(st.code());
    return 0;
  }
  static rmdir_fn next = real<rmdir_fn>("rmdir");
  return next(path);
}

int truncate(const char* path, off_t length) {
  if (auto internal = intercept_path(path)) {
    gekko::Status st = g_state->mount->truncate(
        *internal, static_cast<std::uint64_t>(length));
    if (!st.is_ok()) return fail_errno(st.code());
    return 0;
  }
  static truncate_fn next = real<truncate_fn>("truncate");
  return next(path, length);
}

int ftruncate(int fd, off_t length) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    auto file = g_state->mount->file_map().file(gfd);
    if (!file) return fail_errno(Errc::bad_fd);
    gekko::Status st = g_state->mount->truncate(
        file->path, static_cast<std::uint64_t>(length));
    if (!st.is_ok()) return fail_errno(st.code());
    return 0;
  }
  static ftruncate_fn next = real<ftruncate_fn>("ftruncate");
  return next(fd, length);
}

int fsync(int fd) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    gekko::Status st = g_state->mount->fsync(gfd);
    if (!st.is_ok()) return fail_errno(st.code());
    return 0;
  }
  static fsync_fn next = real<fsync_fn>("fsync");
  return next(fd);
}

int fdatasync(int fd) { return fsync(fd); }

// rename across or inside the GekkoFS namespace: unsupported by design.
int renameat2(int, const char* from, int, const char* to, unsigned int);

int renameat(int fromfd, const char* from, int tofd, const char* to) {
  return renameat2(fromfd, from, tofd, to, 0);
}

int renameat2(int fromfd, const char* from, int tofd, const char* to,
              unsigned int flags) {
  const bool from_gkfs =
      from != nullptr && from[0] == '/' && intercept_path(from).has_value();
  const bool to_gkfs =
      to != nullptr && to[0] == '/' && intercept_path(to).has_value();
  if (from_gkfs || to_gkfs) {
    errno = ENOTSUP;
    return -1;
  }
  static auto next = real<int (*)(int, const char*, int, const char*,
                                  unsigned int)>("renameat2");
  return next(fromfd, from, tofd, to, flags);
}

int rename(const char* from, const char* to) {
  const bool from_gkfs = intercept_path(from).has_value();
  const bool to_gkfs = intercept_path(to).has_value();
  if (from_gkfs || to_gkfs) {
    errno = ENOTSUP;
    return -1;
  }
  static auto next = real<int (*)(const char*, const char*)>("rename");
  return next(from, to);
}

DIR* opendir(const char* path) {
  if (auto internal = intercept_path(path)) {
    auto dirfd = g_state->mount->opendir(*internal);
    if (!dirfd) {
      errno = gekko::errc_to_errno(dirfd.code());
      return nullptr;
    }
    auto* handle = new GkfsDir();
    handle->dirfd = *dirfd;
    return reinterpret_cast<DIR*>(handle);
  }
  static opendir_fn next = real<opendir_fn>("opendir");
  return next(path);
}

struct dirent* readdir(DIR* dir) {
  if (is_gkfs_dir(dir)) {
    auto* handle = reinterpret_cast<GkfsDir*>(dir);
    auto entry = g_state->mount->readdir(handle->dirfd);
    if (!entry || !entry->has_value()) return nullptr;
    std::memset(&handle->entry, 0, sizeof(handle->entry));
    std::snprintf(handle->entry.d_name, sizeof(handle->entry.d_name), "%s",
                  (*entry)->name.c_str());
    handle->entry.d_type =
        (*entry)->type == gekko::proto::FileType::directory ? DT_DIR
                                                            : DT_REG;
    return &handle->entry;
  }
  static readdir_fn next = real<readdir_fn>("readdir");
  return next(dir);
}

int closedir(DIR* dir) {
  if (is_gkfs_dir(dir)) {
    auto* handle = reinterpret_cast<GkfsDir*>(dir);
    // status-ignored-ok: teardown of a handle being freed
    (void)g_state->mount->closedir(handle->dirfd);
    delete handle;
    return 0;
  }
  static closedir_fn next = real<closedir_fn>("closedir");
  return next(dir);
}

int dup(int fd) {
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    // Share the open-file description through the FileMap (POSIX dup
    // shares the offset).
    auto file = g_state->mount->file_map().file(gfd);
    if (!file) return fail_errno(Errc::bad_fd);
    return const_cast<gekko::fs::FileMap&>(g_state->mount->file_map())
        .insert_file(std::move(file));
  }
  static auto next = real<int (*)(int)>("dup");
  return next(fd);
}

int dup2(int oldfd, int newfd) {
  GKFS_SHIM_LOG("dup2(%d, %d) gfd=%d", oldfd, newfd, resolve_fd(oldfd));
  static auto next = real<int (*)(int, int)>("dup2");
  if (const int gfd = resolve_fd(oldfd); gfd >= 0) {
    if (newfd == oldfd) return newfd;
    // Shell redirection: stdout/stderr now point at a GekkoFS file.
    (void)close(newfd);  // status-ignored-ok: evicting whatever was there (real or alias)
    // Pin `newfd` at the KERNEL level with a /dev/null placeholder so
    // the kernel never reissues this number while our alias lives —
    // otherwise a later real open() could collide with it.
    static open_fn ropen = real<open_fn>("open");
    const int placeholder = ropen("/dev/null", O_RDONLY);
    if (placeholder >= 0) {
      if (placeholder != newfd) {
        next(placeholder, newfd);
        static close_fn rclose = real<close_fn>("close");
        rclose(placeholder);
      }
    }
    // Duplicate the open-file description (POSIX dup2): the caller
    // may close the original fd and keep using the duplicate.
    auto file = g_state->mount->file_map().file(gfd);
    if (!file) return fail_errno(Errc::bad_fd);
    const int gdup =
        const_cast<gekko::fs::FileMap&>(g_state->mount->file_map())
            .insert_file(std::move(file));
    gekko::LockGuard lock(g_state->alias_mutex);
    g_state->fd_aliases[newfd] = gdup;
    return newfd;
  }
  drop_alias(newfd);  // real dup2 implicitly closes an aliased target
  return next(oldfd, newfd);
}

int fcntl(int fd, int cmd, ...) {
  va_list args;
  va_start(args, cmd);
  void* arg = va_arg(args, void*);
  va_end(args);
  if (const int gfd = resolve_fd(fd); gfd >= 0) {
    GKFS_SHIM_LOG("fcntl(%d, %d)", fd, cmd);
    switch (cmd) {
      case F_DUPFD:
      case F_DUPFD_CLOEXEC:
        return dup(gfd);
      case F_GETFL: {
        auto file = g_state->mount->file_map().file(gfd);
        if (!file) return fail_errno(Errc::bad_fd);
        int fl = 0;
        if (file->readable() && file->writable()) {
          fl = O_RDWR;
        } else if (file->writable()) {
          fl = O_WRONLY;
        }
        if (file->appending()) fl |= O_APPEND;
        return fl;
      }
      case F_GETFD:
        return 0;
      case F_SETFD:
      case F_SETFL:
        return 0;  // CLOEXEC/nonblock are meaningless for gekko fds
      default:
        errno = EINVAL;
        return -1;
    }
  }
  static auto next = real<int (*)(int, int, ...)>("fcntl");
  return next(fd, cmd, arg);
}

int fcntl64(int fd, int cmd, ...) {
  va_list args;
  va_start(args, cmd);
  void* arg = va_arg(args, void*);
  va_end(args);
  if (resolve_fd(fd) >= 0) {
    return fcntl(fd, cmd, arg);
  }
  static auto next = real<int (*)(int, int, ...)>("fcntl64");
  return next(fd, cmd, arg);
}

ssize_t writev(int fd, const struct iovec* iov, int iovcnt) {
  GKFS_SHIM_LOG("writev(%d, cnt=%d) gfd=%d", fd, iovcnt, resolve_fd(fd));
  if (resolve_fd(fd) >= 0) {
    ssize_t total = 0;
    for (int i = 0; i < iovcnt; ++i) {
      const ssize_t n = write(fd, iov[i].iov_base, iov[i].iov_len);
      if (n < 0) return total > 0 ? total : n;
      total += n;
      if (static_cast<size_t>(n) < iov[i].iov_len) break;
    }
    return total;
  }
  static auto next =
      real<ssize_t (*)(int, const struct iovec*, int)>("writev");
  return next(fd, iov, iovcnt);
}

ssize_t readv(int fd, const struct iovec* iov, int iovcnt) {
  if (resolve_fd(fd) >= 0) {
    ssize_t total = 0;
    for (int i = 0; i < iovcnt; ++i) {
      const ssize_t n = read(fd, iov[i].iov_base, iov[i].iov_len);
      if (n < 0) return total > 0 ? total : n;
      total += n;
      if (static_cast<size_t>(n) < iov[i].iov_len) break;
    }
    return total;
  }
  static auto next =
      real<ssize_t (*)(int, const struct iovec*, int)>("readv");
  return next(fd, iov, iovcnt);
}

int fstatat(int dirfd, const char* path, struct stat* st, int flags) {
  if (path != nullptr && path[0] == '/' && intercept_path(path)) {
    return stat(path, st);
  }
  static auto next =
      real<int (*)(int, const char*, struct stat*, int)>("fstatat");
  return next(dirfd, path, st, flags);
}

int statx(int dirfd, const char* path, int flags, unsigned int mask,
          struct statx* stxbuf) {
  const bool self_fd =
      (flags & AT_EMPTY_PATH) != 0 && resolve_fd(dirfd) >= 0;
  if (self_fd ||
      (path != nullptr && path[0] == '/' && intercept_path(path))) {
    gekko::Result<gekko::proto::Metadata> md = gekko::Errc::not_found;
    if (self_fd) {
      md = g_state->mount->fstat(resolve_fd(dirfd));
    } else {
      auto internal = intercept_path(path);
      md = g_state->mount->stat(*internal);
    }
    if (!md) return fail_errno(md.code());
    std::memset(stxbuf, 0, sizeof(*stxbuf));
    stxbuf->stx_mask = mask & (STATX_TYPE | STATX_MODE | STATX_SIZE |
                               STATX_MTIME | STATX_NLINK);
    stxbuf->stx_mode = static_cast<std::uint16_t>(
        (md->is_directory() ? S_IFDIR : S_IFREG) | (md->mode & 07777));
    stxbuf->stx_size = md->size;
    stxbuf->stx_nlink = 1;
    stxbuf->stx_blksize = 512 * 1024;
    stxbuf->stx_mtime.tv_sec = md->mtime_ns / 1000000000;
    stxbuf->stx_mtime.tv_nsec =
        static_cast<std::uint32_t>(md->mtime_ns % 1000000000);
    stxbuf->stx_ctime = stxbuf->stx_mtime;
    return 0;
  }
  static auto next = real<int (*)(int, const char*, int, unsigned int,
                                  struct statx*)>("statx");
  return next(dirfd, path, flags, mask, stxbuf);
}

// touch: creation happens via openat(O_CREAT); the subsequent
// timestamp update is accepted and ignored (GekkoFS keeps coarse
// mtimes maintained by writes, not utimensat).
int utimensat(int dirfd, const char* path, const struct timespec* times,
              int flags) {
  if (path != nullptr && path[0] == '/' && intercept_path(path)) {
    auto internal = intercept_path(path);
    auto md = g_state->mount->stat(*internal);
    if (!md) return fail_errno(md.code());
    return 0;
  }
  static auto next = real<int (*)(int, const char*, const struct timespec*,
                                  int)>("utimensat");
  return next(dirfd, path, times, flags);
}

// No permission enforcement in GekkoFS (paper §III.A): accept chmod.
int chmod(const char* path, mode_t mode) {
  if (intercept_path(path)) return 0;
  static auto next = real<int (*)(const char*, mode_t)>("chmod");
  return next(path, mode);
}

int fchmod(int fd, mode_t mode) {
  if (resolve_fd(fd) >= 0) return 0;
  static auto next = real<int (*)(int, mode_t)>("fchmod");
  return next(fd, mode);
}

int unlinkat(int dirfd, const char* path, int flags) {
  if (path != nullptr && path[0] == '/' && intercept_path(path)) {
    if (flags & AT_REMOVEDIR) {
      return rmdir(path);
    }
    return unlink(path);
  }
  static auto next = real<int (*)(int, const char*, int)>("unlinkat");
  return next(dirfd, path, flags);
}

int mkdirat(int dirfd, const char* path, mode_t mode) {
  if (path != nullptr && path[0] == '/' && intercept_path(path)) {
    return mkdir(path, mode);
  }
  static auto next = real<int (*)(int, const char*, mode_t)>("mkdirat");
  return next(dirfd, path, mode);
}

int faccessat(int dirfd, const char* path, int mode, int flags) {
  if (path != nullptr && path[0] == '/' && intercept_path(path)) {
    return access(path, mode);
  }
  static auto next =
      real<int (*)(int, const char*, int, int)>("faccessat");
  return next(dirfd, path, mode, flags);
}

int access(const char* path, int mode) {
  if (auto internal = intercept_path(path)) {
    auto md = g_state->mount->stat(*internal);
    if (!md) return fail_errno(md.code());
    return 0;  // no permission enforcement in GekkoFS
  }
  static auto next = real<int (*)(const char*, int)>("access");
  return next(path, mode);
}

}  // extern "C"
