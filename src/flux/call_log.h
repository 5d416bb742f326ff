// The per-app call log kept by Selective Record (§3.2).
//
// An ordered list of recorded service calls. The record engine prunes it in
// place as @drop rules fire, so at migration time it contains exactly the
// calls whose effects are still live in system services — the paper reports
// the compressed log plus data-dir sync never exceeded 200 KB.
//
// Fast lane (record path): every entry carries the interned ids of its
// interface and method, and the log maintains a per-(interface_id, node_id)
// bucket index over entry slots. @drop pruning visits only the bucket a new
// call can legally prune (same interface, same target node) instead of
// scanning the whole log, removal tombstones the slot (payload freed
// immediately, slot reclaimed by amortized compaction), and WireSize() is
// maintained incrementally. The serialized format is unchanged (strings
// only; ids are re-interned on deserialize), so logs are byte-compatible
// with pre-index checkpoints.
#ifndef FLUX_SRC_FLUX_CALL_LOG_H_
#define FLUX_SRC_FLUX_CALL_LOG_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/archive.h"
#include "src/base/sim_clock.h"
#include "src/binder/parcel.h"

namespace flux {

struct CallRecord {
  uint64_t seq = 0;
  SimTime time = 0;
  std::string service;    // ServiceManager name; empty for anonymous nodes
  std::string interface;  // AIDL interface name
  std::string method;
  // Interned ids of `interface`/`method` (src/base/interner.h). Filled by
  // CallLog::Append when left 0; never serialized.
  uint32_t interface_id = 0;
  uint32_t method_id = 0;
  uint64_t node_id = 0;   // home-device node the call targeted
  Parcel args;            // the app's view (named values)
  Parcel reply;           // post-translation into the app
  bool oneway = false;
  // Cached serialized footprint of this entry (strings + parcels + fixed
  // framing); computed on append, never serialized.
  uint64_t wire_bytes = 0;
};

class CallLog {
 public:
  void Append(CallRecord record);

  // Removes entries matching `predicate`; returns how many were dropped.
  // Scans the whole log — @drop pruning should use PruneBucket.
  int RemoveIf(const std::function<bool(const CallRecord&)>& predicate);

  // Indexed pruning: runs `predicate` over only the live entries whose
  // (interface_id, node_id) equal the new call's, tombstoning matches.
  // Returns how many were dropped. Stale bucket positions are compacted out
  // in the same pass; nothing is allocated and no other bucket is touched.
  template <typename Predicate>
  int PruneBucket(uint32_t interface_id, uint64_t node_id,
                  Predicate&& predicate) {
    auto it = buckets_.find(BucketKey{interface_id, node_id});
    if (it == buckets_.end()) {
      return 0;
    }
    std::vector<uint32_t>& bucket = it->second;
    size_t write = 0;
    int removed = 0;
    for (size_t read = 0; read < bucket.size(); ++read) {
      const uint32_t slot = bucket[read];
      if (dead_[slot]) {
        continue;  // tombstoned by an earlier pass: drop the stale position
      }
      if (predicate(slots_[slot])) {
        MarkDead(slot);
        ++removed;
        continue;
      }
      bucket[write++] = slot;
    }
    bucket.resize(write);
    if (removed > 0) {
      CompactIfWorthwhile();
    }
    return removed;
  }

  // Live entries in append order. Compacts tombstones first, so the
  // reference is only valid until the next mutation (as before).
  const std::vector<CallRecord>& entries() const {
    Compact();
    return slots_;
  }
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }
  void Clear();

  // Re-keys the log onto another device's Binder nodes after a migration
  // (`mapping`: old node id -> new, as CRIA restore and replay built it).
  // The target of every anonymous-node call (empty service name) and every
  // node-space object ref in call args is rewritten; ids without a mapping
  // are kept. Order, sequence numbers and WireSize() are unchanged.
  void RemapNodes(const std::map<uint64_t, uint64_t>& mapping);

  // Serialized footprint (drives transfer accounting); O(1), maintained on
  // append and removal.
  uint64_t WireSize() const { return wire_size_; }

  void Serialize(ArchiveWriter& out) const;
  static Result<CallLog> Deserialize(ArchiveReader& in);

 private:
  struct BucketKey {
    uint32_t interface_id = 0;
    uint64_t node_id = 0;
    bool operator==(const BucketKey&) const = default;
  };
  struct BucketKeyHash {
    size_t operator()(const BucketKey& key) const {
      uint64_t x = (static_cast<uint64_t>(key.interface_id) << 32) ^
                   (key.node_id * 0x9E3779B97F4A7C15ull);
      x ^= x >> 33;
      return static_cast<size_t>(x);
    }
  };

  // Interns missing ids, computes wire_bytes, appends, and indexes.
  void IndexNewEntry(CallRecord&& record);
  // Tombstones a slot: releases its payload and maintains counters.
  void MarkDead(uint32_t slot);
  // Amortized slot reclamation: compacts once tombstones outnumber live
  // entries, so each drop pays O(1) amortized.
  void CompactIfWorthwhile();
  // Removes all tombstones (order-preserving) and reindexes. Const because
  // read paths (entries()) may trigger it; logically the log is unchanged.
  void Compact() const;
  void RebuildBuckets() const;

  uint64_t next_seq_ = 1;
  uint64_t wire_size_ = 0;
  size_t live_count_ = 0;
  mutable size_t dead_count_ = 0;
  // Append-order slot arena; dead_[i] marks tombstones awaiting compaction.
  mutable std::vector<CallRecord> slots_;
  mutable std::vector<uint8_t> dead_;
  // (interface_id, node_id) -> live slot indices, ascending (may contain
  // stale positions of tombstoned slots until the next scan or compaction).
  mutable std::unordered_map<BucketKey, std::vector<uint32_t>, BucketKeyHash>
      buckets_;
};

}  // namespace flux

#endif  // FLUX_SRC_FLUX_CALL_LOG_H_
