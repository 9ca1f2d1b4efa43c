// Daemon-side metadata service over the local KV store.
//
// Keys are normalized absolute paths; values are packed Metadata
// records. The flat keyspace *is* the namespace: creating a million
// files in one directory touches a million independent keys spread
// over all daemons — no directory inode, no lock (paper §II).
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "kv/db.h"
#include "proto/metadata.h"

namespace gekko::daemon {

class MetadataBackend {
 public:
  static Result<std::unique_ptr<MetadataBackend>> open(
      const std::filesystem::path& dir, kv::Options options = {});

  /// Create a metadata record; Errc::exists if the path already exists.
  Status create(std::string_view path, const proto::Metadata& md);

  Result<proto::Metadata> get(std::string_view path);

  /// Remove and return the old record (the client uses its size to
  /// decide whether chunk cleanup RPCs are needed), read by the same
  /// locked lookup that removes it, so a concurrent size update is
  /// either in the returned size or refused. Errc::not_found if absent.
  Result<proto::Metadata> remove(std::string_view path);

  /// Batched create: ONE KV lock acquisition and WAL commit for the
  /// whole batch. Per-entry outcome (ok / exists) lands in `out` in
  /// request order; a non-ok return means the shared commit failed and
  /// nothing was applied.
  Status create_batch(
      const std::vector<std::pair<std::string, proto::Metadata>>& entries,
      std::vector<Errc>* out);

  /// Batched stat. Reads are already lock-free against the KV store, so
  /// this is a loop — the win is the single RPC, not the KV access.
  /// mds[i] is valid iff (*out)[i] == Errc::ok.
  Status stat_batch(const std::vector<std::string>& paths,
                    std::vector<Errc>* out,
                    std::vector<proto::Metadata>* mds);

  /// Batched remove-if-present; old records (for chunk cleanup
  /// decisions) land in `old_mds`, valid iff the entry's Errc is ok.
  Status remove_batch(const std::vector<std::string>& paths,
                      std::vector<Errc>* out,
                      std::vector<proto::Metadata>* old_mds);

  /// Contention-free size fold (merge operand, see metadata_merge.h).
  /// Applies only to a live path: Errc::not_found for a missing or
  /// unlinked one, and nothing is written (a late write never
  /// resurrects an unlinked file).
  Status update_size(std::string_view path, std::uint64_t observed_size,
                     std::int64_t mtime_ns);

  /// Set exact size (truncate), as a merge conditional on the path
  /// existing and not being a directory (Errc::not_found /
  /// Errc::is_directory), checked under the kv write lock.
  Status set_size(std::string_view path, std::uint64_t new_size);

  /// Direct children of `dir` stored on THIS daemon (one shard of the
  /// eventual-consistency readdir broadcast).
  Result<std::vector<proto::Dirent>> dirents(std::string_view dir);

  Result<std::uint64_t> entry_count();

  [[nodiscard]] kv::DB& db() noexcept { return *db_; }

 private:
  explicit MetadataBackend(std::unique_ptr<kv::DB> db)
      : db_(std::move(db)) {}

  std::unique_ptr<kv::DB> db_;
};

}  // namespace gekko::daemon
