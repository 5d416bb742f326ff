// rsync-style tree synchronization with --link-dest semantics.
//
// Pairing (§3.1) synchronizes the home device's core frameworks, libraries
// and APKs to a private location on the guest's data partition. Because most
// framework files are byte-identical across devices running the same Android
// build, rsync's --link-dest mode hard-links identical files against the
// guest's own system partition instead of transferring them; only the delta
// crosses the network, compressed.
//
// SyncEngine reproduces exactly that accounting:
//   - up-to-date: destination already has the file with matching content;
//   - linked:     a file at the same relative path under link_dest matches
//                 by content hash -> hard link, no bytes transferred;
//   - copied:     content is transferred (optionally compressed). The
//                 destination file holds the source's Blob rather than a
//                 copy of its bytes, and the wire charge is the Blob's
//                 memoized compressed size, so syncing one content to
//                 several places stores and counts it once.
#ifndef FLUX_SRC_FS_SYNC_ENGINE_H_
#define FLUX_SRC_FS_SYNC_ENGINE_H_

#include <optional>
#include <string>

#include "src/base/result.h"
#include "src/fs/sim_filesystem.h"

namespace flux {

struct SyncStats {
  uint64_t files_total = 0;
  uint64_t files_up_to_date = 0;
  uint64_t files_linked = 0;
  uint64_t files_copied = 0;

  uint64_t bytes_total = 0;        // sum of source file sizes
  uint64_t bytes_linked = 0;       // satisfied via hard links
  uint64_t bytes_up_to_date = 0;   // already present at destination
  uint64_t bytes_copied_raw = 0;   // raw size of transferred files
  uint64_t bytes_transferred = 0;  // on-the-wire (compressed if enabled)

  // Per-file hash exchange cost, modeling rsync's checksum negotiation.
  uint64_t metadata_bytes = 0;

  // Total bytes that actually cross the network for this sync.
  uint64_t WireBytes() const { return bytes_transferred + metadata_bytes; }

  void Accumulate(const SyncStats& other);
};

struct SyncOptions {
  // Hard-link identical files found under this root on the destination
  // filesystem (rsync --link-dest).
  std::optional<std::string> link_dest;
  // Compress file contents before counting transfer bytes (rsync -z).
  bool compress = true;
  // Bytes of metadata exchanged per examined file (path + checksums).
  uint64_t per_file_metadata_bytes = 64;
};

// Synchronizes the tree rooted at `src_root` on `src` into `dst_root` on
// `dst`. Destination files not present in the source are left alone (the
// pairing store is additive; APK updates rewrite in place).
Result<SyncStats> SyncTree(const SimFilesystem& src, const std::string& src_root,
                           SimFilesystem& dst, const std::string& dst_root,
                           const SyncOptions& options = {});

}  // namespace flux

#endif  // FLUX_SRC_FS_SYNC_ENGINE_H_
