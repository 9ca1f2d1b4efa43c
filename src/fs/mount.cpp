// relaxed-ok: mount op tallies are standalone counters read only by
// stats(); no other data is published through them.
#include "fs/mount.h"

#include "common/path.h"

namespace gekko::fs {

Mount::Mount(net::Fabric& fabric, std::vector<net::EndpointId> daemons,
             client::ClientOptions options)
    : client_(fabric, std::move(daemons), std::move(options)) {}

Result<std::shared_ptr<OpenFile>> Mount::checked_file_(int fd) const {
  auto file = files_.file(fd);
  if (!file) return Status{Errc::bad_fd, "fd " + std::to_string(fd)};
  return file;
}

// ---------- lifecycle ----------

Result<int> Mount::open(std::string_view raw_path, std::uint32_t flags,
                        std::uint32_t mode) {
  auto normalized = path::normalize(raw_path);
  if (!normalized) return normalized.status();
  const std::string& p = *normalized;

  // Access-mode sanity: exactly one of rd_only/wr_only/rd_wr.
  const int modes = ((flags & rd_only) != 0) + ((flags & wr_only) != 0) +
                    ((flags & rd_wr) != 0);
  if (modes != 1) {
    return Status{Errc::invalid_argument, "exactly one access mode required"};
  }

  proto::FileType type = proto::FileType::regular;
  if (flags & create) {
    // create-vs-unlink races: "exists" followed by a failed stat means
    // another client removed the file in between — retry the create
    // (POSIX O_CREAT semantics, bounded).
    Status st = Status::ok();
    for (int attempt = 0; attempt < 8; ++attempt) {
      st = client_.create(p, proto::FileType::regular, mode);
      if (st.is_ok()) break;
      if (st.code() != Errc::exists) return st;
      if (flags & excl) return Errc::exists;
      auto md = client_.stat(p);
      if (md.is_ok()) {
        type = md->type;
        st = Status::ok();
        break;
      }
      if (md.code() != Errc::not_found) return md.status();
      st = md.status();  // lost the race; loop and re-create
    }
    if (!st.is_ok()) return st;
  } else {
    auto md = client_.stat(p);
    if (!md) return md.status();
    type = md->type;
  }
  if (type == proto::FileType::directory && ((flags & (wr_only | rd_wr)))) {
    return Errc::is_directory;
  }

  if ((flags & trunc) && type == proto::FileType::regular) {
    GEKKO_RETURN_IF_ERROR(client_.truncate(p, 0));
  }

  auto file = std::make_shared<OpenFile>();
  file->path = p;
  file->flags = flags;
  file->type = type;
  return files_.insert_file(std::move(file));
}

Status Mount::close(int fd) {
  auto file = files_.file(fd);
  // Like POSIX close(), release the descriptor even when the close
  // itself reports an error: a retried close must see bad_fd.
  if (!files_.erase(fd)) return Errc::bad_fd;
  // close() is the durability point for cached size updates.
  if (file) return client_.flush_size(file->path);
  return Status::ok();
}

// ---------- I/O ----------

Result<std::size_t> Mount::pwrite(int fd, std::span<const std::uint8_t> data,
                                  std::uint64_t offset) {
  GEKKO_ASSIGN_OR_RETURN(auto file, checked_file_(fd));
  if (!file->writable()) return Errc::bad_fd;
  return client_.write(file->path, offset, data);
}

Result<std::size_t> Mount::pread(int fd, std::span<std::uint8_t> out,
                                 std::uint64_t offset) {
  GEKKO_ASSIGN_OR_RETURN(auto file, checked_file_(fd));
  if (!file->readable()) return Errc::bad_fd;
  return client_.read(file->path, offset, out);
}

Result<std::size_t> Mount::write(int fd, std::span<const std::uint8_t> data) {
  GEKKO_ASSIGN_OR_RETURN(auto file, checked_file_(fd));
  if (!file->writable()) return Errc::bad_fd;

  std::uint64_t offset;
  if (file->appending()) {
    auto md = client_.stat(file->path);
    if (!md) return md.status();
    offset = md->size;
  } else {
    offset = file->position.load(std::memory_order_relaxed);
  }
  auto written = client_.write(file->path, offset, data);
  if (!written) return written.status();
  file->position.store(offset + *written, std::memory_order_relaxed);
  return written;
}

Result<std::size_t> Mount::read(int fd, std::span<std::uint8_t> out) {
  GEKKO_ASSIGN_OR_RETURN(auto file, checked_file_(fd));
  if (!file->readable()) return Errc::bad_fd;
  const std::uint64_t offset = file->position.load(std::memory_order_relaxed);
  auto n = client_.read(file->path, offset, out);
  if (!n) return n.status();
  file->position.store(offset + *n, std::memory_order_relaxed);
  return n;
}

Result<std::uint64_t> Mount::lseek(int fd, std::int64_t offset,
                                   Whence whence) {
  GEKKO_ASSIGN_OR_RETURN(auto file, checked_file_(fd));
  std::int64_t base = 0;
  switch (whence) {
    case Whence::set:
      base = 0;
      break;
    case Whence::cur:
      base = static_cast<std::int64_t>(
          file->position.load(std::memory_order_relaxed));
      break;
    case Whence::end: {
      auto md = client_.stat(file->path);
      if (!md) return md.status();
      base = static_cast<std::int64_t>(md->size);
      break;
    }
  }
  const std::int64_t target = base + offset;
  if (target < 0) return Errc::invalid_argument;
  file->position.store(static_cast<std::uint64_t>(target),
                       std::memory_order_relaxed);
  return static_cast<std::uint64_t>(target);
}

Status Mount::fsync(int fd) {
  GEKKO_ASSIGN_OR_RETURN(auto file, checked_file_(fd));
  // Data is written synchronously; only cached size updates may be
  // outstanding.
  return client_.flush_size(file->path);
}

// ---------- metadata ----------

Result<proto::Metadata> Mount::stat(std::string_view raw_path) {
  auto normalized = path::normalize(raw_path);
  if (!normalized) return normalized.status();
  if (*normalized == "/") {
    // The root exists implicitly (it has no KV record of its own).
    proto::Metadata md;
    md.type = proto::FileType::directory;
    md.mode = 0755;
    return md;
  }
  return client_.stat(*normalized);
}

Result<proto::Metadata> Mount::fstat(int fd) {
  GEKKO_ASSIGN_OR_RETURN(auto file, checked_file_(fd));
  return client_.stat(file->path);
}

Status Mount::unlink(std::string_view raw_path) {
  auto normalized = path::normalize(raw_path);
  if (!normalized) return normalized.status();
  auto md = client_.stat(*normalized);
  if (!md) return md.status();
  if (md->is_directory()) return Errc::is_directory;
  return client_.remove(*normalized);
}

Status Mount::truncate(std::string_view raw_path, std::uint64_t size) {
  auto normalized = path::normalize(raw_path);
  if (!normalized) return normalized.status();
  return client_.truncate(*normalized, size);
}

// ---------- directories ----------

Status Mount::mkdir(std::string_view raw_path, std::uint32_t mode) {
  auto normalized = path::normalize(raw_path);
  if (!normalized) return normalized.status();
  if (*normalized == "/") return Errc::exists;
  return client_.create(*normalized, proto::FileType::directory, mode);
}

Status Mount::rmdir(std::string_view raw_path) {
  auto normalized = path::normalize(raw_path);
  if (!normalized) return normalized.status();
  if (*normalized == "/") return Errc::busy;
  return client_.rmdir(*normalized);
}

Result<int> Mount::opendir(std::string_view raw_path) {
  auto normalized = path::normalize(raw_path);
  if (!normalized) return normalized.status();

  if (*normalized != "/") {
    auto md = client_.stat(*normalized);
    if (!md) return md.status();
    if (!md->is_directory()) return Errc::not_directory;
  }
  // Snapshot the (eventually consistent) merged listing at open time —
  // GekkoFS "does not guarantee to return the current state of the
  // directory" (paper §III.A).
  auto entries = client_.readdir(*normalized);
  if (!entries) return entries.status();

  auto dir = std::make_shared<OpenDir>();
  dir->path = *normalized;
  dir->entries = std::move(*entries);
  return files_.insert_dir(std::move(dir));
}

Result<std::optional<proto::Dirent>> Mount::readdir(int dirfd) {
  auto dir = files_.dir(dirfd);
  if (!dir) return Status{Errc::bad_fd, "dirfd " + std::to_string(dirfd)};
  if (dir->cursor >= dir->entries.size()) {
    return std::optional<proto::Dirent>{};
  }
  return std::optional<proto::Dirent>{dir->entries[dir->cursor++]};
}

Status Mount::closedir(int dirfd) {
  if (!files_.dir(dirfd)) return Errc::bad_fd;
  files_.erase(dirfd);
  return Status::ok();
}

}  // namespace gekko::fs
