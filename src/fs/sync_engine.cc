#include "src/fs/sync_engine.h"

#include "src/base/strings.h"

namespace flux {

void SyncStats::Accumulate(const SyncStats& other) {
  files_total += other.files_total;
  files_up_to_date += other.files_up_to_date;
  files_linked += other.files_linked;
  files_copied += other.files_copied;
  bytes_total += other.bytes_total;
  bytes_linked += other.bytes_linked;
  bytes_up_to_date += other.bytes_up_to_date;
  bytes_copied_raw += other.bytes_copied_raw;
  bytes_transferred += other.bytes_transferred;
  metadata_bytes += other.metadata_bytes;
}

namespace {

std::string JoinPath(const std::string& root, std::string_view relative) {
  if (relative.empty()) {
    return root;
  }
  if (root == "/") {
    return "/" + std::string(relative);
  }
  return root + "/" + std::string(relative);
}

}  // namespace

Result<SyncStats> SyncTree(const SimFilesystem& src,
                           const std::string& src_root, SimFilesystem& dst,
                           const std::string& dst_root,
                           const SyncOptions& options) {
  if (!src.Exists(src_root)) {
    return NotFound("sync source missing: " + src_root);
  }
  FLUX_ASSIGN_OR_RETURN(auto files, src.WalkFiles(src_root));
  FLUX_RETURN_IF_ERROR(dst.Mkdirs(dst_root));

  SyncStats stats;
  for (const auto& file : files) {
    // Relative path under the source root.
    std::string_view rel(file.path);
    if (rel.size() > src_root.size() && StrStartsWith(rel, src_root)) {
      rel.remove_prefix(src_root.size());
      if (!rel.empty() && rel[0] == '/') {
        rel.remove_prefix(1);
      }
    } else if (rel == src_root) {
      // Source root itself is a file.
      rel = std::string_view(file.path).substr(file.path.rfind('/') + 1);
    }

    const std::string dst_path = JoinPath(dst_root, rel);
    ++stats.files_total;
    stats.bytes_total += file.size;
    stats.metadata_bytes += options.per_file_metadata_bytes;

    // Already up to date?
    if (dst.IsFile(dst_path)) {
      auto dst_hash = dst.FileHash(dst_path);
      auto dst_size = dst.FileSize(dst_path);
      if (dst_hash.ok() && dst_size.ok() &&
          dst_hash.value() == file.content_hash &&
          dst_size.value() == file.size) {
        ++stats.files_up_to_date;
        stats.bytes_up_to_date += file.size;
        continue;
      }
    }

    // Identical file available under link_dest?
    if (options.link_dest.has_value()) {
      const std::string candidate = JoinPath(*options.link_dest, rel);
      if (dst.IsFile(candidate)) {
        auto cand_hash = dst.FileHash(candidate);
        auto cand_size = dst.FileSize(candidate);
        if (cand_hash.ok() && cand_size.ok() &&
            cand_hash.value() == file.content_hash &&
            cand_size.value() == file.size) {
          if (dst.Exists(dst_path)) {
            FLUX_RETURN_IF_ERROR(dst.Remove(dst_path));
          }
          FLUX_RETURN_IF_ERROR(dst.Link(candidate, dst_path));
          ++stats.files_linked;
          stats.bytes_linked += file.size;
          continue;
        }
      }
    }

    // Copy (transfer) the content: the destination holds the source's Blob,
    // and the wire carries its compressed size, counted once per content.
    FLUX_ASSIGN_OR_RETURN(std::shared_ptr<const Blob> content,
                          src.ReadFile(file.path));
    const uint64_t wire =
        options.compress ? content->CompressedSize() : content->size();
    FLUX_RETURN_IF_ERROR(dst.WriteFile(dst_path, std::move(content)));
    ++stats.files_copied;
    stats.bytes_copied_raw += file.size;
    stats.bytes_transferred += wire;
  }
  return stats;
}

}  // namespace flux
