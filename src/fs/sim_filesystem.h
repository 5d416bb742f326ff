// In-memory filesystem substrate.
//
// Each simulated device owns a SimFilesystem holding its system partition
// (framework libraries, vendor GL libraries), data partition (APKs, app data
// directories) and SD card. The filesystem supports hard links, which the
// pairing phase depends on: rsync --link-dest semantics hard-link files that
// are byte-identical on the guest instead of transferring them (§3.1).
//
// File bytes are immutable Blobs shared by reference. A synced copy holds
// its source's Blob (the host stores and digests the bytes once, as
// rsync's hard links let the paper's devices do), yet stays its own inode:
// writing a file swaps in a new Blob for that inode alone, so no other
// file ever sees the write. Hard links share the inode itself.
//
// Paths are absolute, '/'-separated, with no "." / ".." components.
#ifndef FLUX_SRC_FS_SIM_FILESYSTEM_H_
#define FLUX_SRC_FS_SIM_FILESYSTEM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/result.h"

namespace flux {

// One file content: the bytes, never changed after construction, plus two
// memos computed on first use on the calling thread. Syncs hand a Blob on
// instead of copying it, so every inode holding the bytes of one write
// shares one Blob, and each memo is computed once per write rather than
// once per copy.
class Blob {
 public:
  explicit Blob(Bytes bytes) : bytes_(std::move(bytes)) {}

  const uint8_t* data() const { return bytes_.data(); }
  uint64_t size() const { return bytes_.size(); }
  Bytes::const_iterator begin() const { return bytes_.begin(); }
  Bytes::const_iterator end() const { return bytes_.end(); }
  ByteSpan span() const { return ByteSpan(bytes_.data(), bytes_.size()); }

  // FluxHash64 of the bytes. Only compared for equality (sync up-to-date
  // and link-dest checks, APK verification, TreeSize dedup), never
  // serialized or printed.
  uint64_t Hash() const;

  // LzCompressedSize of the bytes, counted on the shared pool: the size a
  // compressed sync charges for sending them.
  uint64_t CompressedSize() const;

 private:
  const Bytes bytes_;
  mutable std::optional<uint64_t> hash_;
  mutable std::optional<uint64_t> compressed_size_;
};

// A file: one Blob plus its link count. Multiple directory entries may
// share one Inode (hard links).
class Inode {
 public:
  explicit Inode(std::shared_ptr<const Blob> blob) : blob_(std::move(blob)) {}

  const std::shared_ptr<const Blob>& blob() const { return blob_; }
  uint64_t size() const { return blob_->size(); }
  uint64_t ContentHash() const { return blob_->Hash(); }

  // Replaces this inode's content; the old Blob is left to its other
  // holders.
  void SetBlob(std::shared_ptr<const Blob> blob) { blob_ = std::move(blob); }

  int link_count() const { return link_count_; }
  void AddLink() { ++link_count_; }
  void DropLink() { --link_count_; }

 private:
  std::shared_ptr<const Blob> blob_;
  int link_count_ = 0;
};

struct FileInfo {
  std::string path;   // absolute path
  uint64_t size = 0;
  uint64_t content_hash = 0;
  int link_count = 1;
};

class SimFilesystem {
 public:
  SimFilesystem();

  // Creates a directory and all missing parents.
  Status Mkdirs(std::string_view path);

  // Creates or replaces a regular file (parents must exist unless
  // `create_parents`). The Blob overload installs existing content without
  // copying it; the others wrap their bytes in a new Blob.
  Status WriteFile(std::string_view path, std::shared_ptr<const Blob> blob,
                   bool create_parents = true);
  Status WriteFile(std::string_view path, Bytes content,
                   bool create_parents = true);
  Status WriteFile(std::string_view path, std::string_view content,
                   bool create_parents = true);

  // Reads a file's content. The Blob stays valid and unchanged for as long
  // as the caller holds it, whatever later happens to the file.
  Result<std::shared_ptr<const Blob>> ReadFile(std::string_view path) const;

  // Hard-links `existing` (a regular file) at `link_path`.
  Status Link(std::string_view existing, std::string_view link_path,
              bool create_parents = true);

  // Removes a file (dropping one link) or an empty directory.
  Status Remove(std::string_view path);

  // Removes a directory tree recursively; ok if missing.
  Status RemoveTree(std::string_view path);

  bool Exists(std::string_view path) const;
  bool IsDirectory(std::string_view path) const;
  bool IsFile(std::string_view path) const;

  Result<uint64_t> FileSize(std::string_view path) const;
  Result<uint64_t> FileHash(std::string_view path) const;

  // True if both paths are links to the same inode.
  bool SameInode(std::string_view a, std::string_view b) const;

  // Lists immediate children names of a directory (sorted).
  Result<std::vector<std::string>> List(std::string_view path) const;

  // All regular files under `root` (depth-first, sorted paths).
  Result<std::vector<FileInfo>> WalkFiles(std::string_view root) const;

  // Sum of file sizes under root, counting each inode once (hard links do
  // not double-count) when `unique_inodes` is true.
  Result<uint64_t> TreeSize(std::string_view root,
                            bool unique_inodes = false) const;

  // Number of regular-file entries under root.
  Result<uint64_t> TreeFileCount(std::string_view root) const;

 private:
  struct Node {
    bool is_dir = false;
    std::shared_ptr<Inode> inode;           // regular files only
    std::map<std::string, Node> children;   // directories only
  };

  static Result<std::vector<std::string>> SplitPath(std::string_view path);
  const Node* FindNode(std::string_view path) const;
  Node* FindNode(std::string_view path);
  Result<Node*> EnsureDir(const std::vector<std::string>& components);

  void WalkFilesImpl(const Node& node, std::string& path,
                     std::vector<FileInfo>& out) const;

  Node root_;
};

}  // namespace flux

#endif  // FLUX_SRC_FS_SIM_FILESYSTEM_H_
