#include "daemon/metadata_backend.h"

#include "common/path.h"
#include "daemon/metadata_merge.h"

namespace gekko::daemon {

Result<std::unique_ptr<MetadataBackend>> MetadataBackend::open(
    const std::filesystem::path& dir, kv::Options options) {
  if (!options.merge_operator) {
    options.merge_operator = std::make_shared<MetadataMergeOperator>();
  }
  auto db = kv::DB::open(dir, std::move(options));
  if (!db) return db.status();
  return std::unique_ptr<MetadataBackend>(
      new MetadataBackend(std::move(*db)));
}

Status MetadataBackend::create(std::string_view path,
                               const proto::Metadata& md) {
  return db_->insert(path, md.encode());
}

Result<proto::Metadata> MetadataBackend::get(std::string_view path) {
  auto value = db_->get(path);
  if (!value) return value.status();
  return proto::Metadata::decode(*value);
}

Result<proto::Metadata> MetadataBackend::remove(std::string_view path) {
  auto value = db_->remove_existing(path);
  if (!value) return value.status();
  return proto::Metadata::decode(*value);
}

Status MetadataBackend::create_batch(
    const std::vector<std::pair<std::string, proto::Metadata>>& entries,
    std::vector<Errc>* out) {
  std::vector<std::pair<std::string, std::string>> kvs;
  kvs.reserve(entries.size());
  for (const auto& [path, md] : entries) {
    kvs.emplace_back(path, md.encode());
  }
  return db_->insert_many(kvs, out);
}

Status MetadataBackend::stat_batch(const std::vector<std::string>& paths,
                                   std::vector<Errc>* out,
                                   std::vector<proto::Metadata>* mds) {
  out->assign(paths.size(), Errc::ok);
  mds->assign(paths.size(), proto::Metadata{});
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto md = get(paths[i]);
    if (md) {
      (*mds)[i] = std::move(*md);
    } else {
      (*out)[i] = md.code();
    }
  }
  return Status::ok();
}

Status MetadataBackend::remove_batch(const std::vector<std::string>& paths,
                                     std::vector<Errc>* out,
                                     std::vector<proto::Metadata>* old_mds) {
  std::vector<std::string> old_values;
  GEKKO_RETURN_IF_ERROR(db_->remove_many(paths, out, &old_values));
  old_mds->assign(paths.size(), proto::Metadata{});
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if ((*out)[i] != Errc::ok) continue;
    auto md = proto::Metadata::decode(old_values[i]);
    if (!md) {
      (*out)[i] = md.code();
      continue;
    }
    (*old_mds)[i] = std::move(*md);
  }
  return Status::ok();
}

Status MetadataBackend::update_size(std::string_view path,
                                    std::uint64_t observed_size,
                                    std::int64_t mtime_ns) {
  return db_->merge_existing(
      path, encode_size_operand(SizeOp::grow_to, observed_size, mtime_ns));
}

Status MetadataBackend::set_size(std::string_view path,
                                 std::uint64_t new_size) {
  return db_->merge_existing(
      path, encode_size_operand(SizeOp::set_to, new_size, 0),
      [](std::string_view value) -> Status {
        auto md = proto::Metadata::decode(value);
        if (!md) return md.status();
        if (md->is_directory()) return Errc::is_directory;
        return Status::ok();
      });
}

Result<std::vector<proto::Dirent>> MetadataBackend::dirents(
    std::string_view dir) {
  std::string prefix{dir};
  if (prefix.back() != '/') prefix += '/';

  std::vector<proto::Dirent> out;
  Status scan_error = Status::ok();
  GEKKO_RETURN_IF_ERROR(db_->scan_prefix(
      prefix, [&](std::string_view key, std::string_view value) {
        if (!path::is_direct_child(key, dir)) return true;  // grandchild
        auto md = proto::Metadata::decode(value);
        if (!md) {
          scan_error = md.status();
          return false;
        }
        out.push_back(proto::Dirent{std::string(path::basename(key)),
                                    md->type});
        return true;
      }));
  GEKKO_RETURN_IF_ERROR(scan_error);
  return out;
}

Result<std::uint64_t> MetadataBackend::entry_count() {
  return db_->count_range("", "");
}

}  // namespace gekko::daemon
