// Per-process virtual memory model.
//
// CRIA's checkpoint image size is dominated by the process's memory
// segments, so the simulation represents them with real byte content: Dalvik
// heap and anonymous mappings carry synthetic semi-compressible data that
// flows through the LZ codec and the network model. File-backed, read-only
// mappings (the APK, framework libraries) are *not* serialized — they are
// re-mapped from the paired filesystem on restore, exactly why pairing syncs
// those files ahead of time. Vendor-library mappings (GPU) are flagged so
// CRIA can verify they were unloaded (eglUnload) before checkpoint.
#ifndef FLUX_SRC_KERNEL_ADDRESS_SPACE_H_
#define FLUX_SRC_KERNEL_ADDRESS_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/result.h"

namespace flux {

enum class SegmentKind : uint8_t {
  kAnonPrivate = 0,   // heap, stacks: content checkpointed
  kFileBackedRo,      // APK / libs: re-mapped by path on restore
  kFileBackedRw,      // data files mapped writable: dirty content checkpointed
  kAshmem,            // named shared memory: checkpointed with its name
  kPmem,              // physically contiguous (GPU/camera): must be freed
  kVendorLibrary,     // device-specific GL library text: must be unloaded
};

std::string_view SegmentKindName(SegmentKind kind);

struct MemorySegment {
  std::string name;        // e.g. "[heap]", "dalvik-main", "/system/lib/libgl.so"
  SegmentKind kind = SegmentKind::kAnonPrivate;
  uint64_t start = 0;      // virtual address
  Bytes content;           // empty for kFileBackedRo / kVendorLibrary
  uint64_t mapped_size = 0;  // full size even when content is not held
  std::string backing_path;  // for file-backed segments
  // Write generation at which this segment was last dirtied (mapping counts
  // as a write). Compared against an epoch from AddressSpace::BeginEpoch:
  // `dirty_gen >= epoch` means "written since that epoch". Opening an
  // epoch is therefore O(1) — no per-segment bit to clear.
  uint64_t dirty_gen = 0;

  uint64_t size() const {
    return content.empty() ? mapped_size : content.size();
  }

  // True if the segment's bytes are part of a checkpoint image.
  bool checkpointed() const {
    switch (kind) {
      case SegmentKind::kAnonPrivate:
      case SegmentKind::kFileBackedRw:
      case SegmentKind::kAshmem:
        return true;
      case SegmentKind::kFileBackedRo:
      case SegmentKind::kPmem:
      case SegmentKind::kVendorLibrary:
        return false;
    }
    return false;
  }
};

class AddressSpace {
 public:
  // Maps a new segment at the next free address; returns its start. The
  // fresh segment is stamped with the current write generation (its entire
  // content is "dirty" relative to any earlier epoch).
  uint64_t Map(MemorySegment segment);

  // ----- dirty-segment tracking (pre-copy, DESIGN.md §10) -----
  //
  // A monotonic write generation plus a per-segment stamp replace classic
  // dirty bits: starting a new epoch is one increment, and "dirtied since
  // epoch E" is `segment.dirty_gen >= E`. Pre-copy's final stop-and-copy
  // opens an epoch right before its cut and re-cuts if a write landed
  // since. Several epochs can be live at once, which plain clear-on-read
  // bits cannot express.

  // The current write generation; writes stamp this value.
  uint64_t generation() const { return generation_; }

  // Starts a new dirty epoch and returns it: segments written from this
  // point on satisfy `dirty_gen >= epoch`.
  uint64_t BeginEpoch() { return ++generation_; }

  // Raises the write generation to at least `generation` (keeps the
  // address spaces of a multi-process app on one common epoch).
  void AlignGeneration(uint64_t generation) {
    if (generation > generation_) {
      generation_ = generation;
    }
  }

  // Overwrites `data.size()` bytes at `offset` within the segment mapped at
  // `start`, stamping the segment dirty at the current generation. The
  // write must land inside the segment's existing content.
  Status Write(uint64_t start, uint64_t offset, ByteSpan data);

  // Marks a whole segment dirty at the current generation without changing
  // its content (for callers that mutate `segments()` in place).
  Status Touch(uint64_t start);

  // Checkpointable content bytes of segments dirtied since `epoch`.
  uint64_t DirtyBytesSince(uint64_t epoch) const;

  // Number of checkpointed segments dirtied since `epoch`.
  int DirtySegmentsSince(uint64_t epoch) const;

  // Unmaps the segment starting at `start`.
  Status Unmap(uint64_t start);

  // Unmaps all segments of a given kind; returns how many were removed.
  int UnmapAllOfKind(SegmentKind kind);

  MemorySegment* Find(uint64_t start);
  MemorySegment* FindByName(std::string_view name);

  const std::vector<MemorySegment>& segments() const { return segments_; }
  std::vector<MemorySegment>& segments() { return segments_; }

  // Total mapped bytes / bytes that would enter a checkpoint image.
  uint64_t TotalMapped() const;
  uint64_t CheckpointableBytes() const;

  bool HasKind(SegmentKind kind) const;

 private:
  std::vector<MemorySegment> segments_;
  uint64_t next_addr_ = 0x4000'0000;
  // Write generation counter; starts at 1 so a freshly mapped segment
  // (dirty_gen = 1) reads as dirty against the never-begun epoch 0.
  uint64_t generation_ = 1;
};

}  // namespace flux

#endif  // FLUX_SRC_KERNEL_ADDRESS_SPACE_H_
