#include "src/flux/call_log.h"

#include <algorithm>

#include "src/base/interner.h"

namespace flux {

void CallLog::Append(CallRecord record) {
  record.seq = next_seq_++;
  IndexNewEntry(std::move(record));
}

void CallLog::IndexNewEntry(CallRecord&& record) {
  Interner& interner = Interner::Global();
  if (record.interface_id == 0) {
    record.interface_id = interner.Intern(record.interface);
  }
  if (record.method_id == 0) {
    record.method_id = interner.Intern(record.method);
  }
  record.wire_bytes = 48 + record.service.size() + record.interface.size() +
                      record.method.size() + record.args.WireSize() +
                      record.reply.WireSize();
  wire_size_ += record.wire_bytes;
  ++live_count_;
  buckets_[BucketKey{record.interface_id, record.node_id}].push_back(
      static_cast<uint32_t>(slots_.size()));
  slots_.push_back(std::move(record));
  dead_.push_back(0);
}

int CallLog::RemoveIf(const std::function<bool(const CallRecord&)>& predicate) {
  int removed = 0;
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (!dead_[i] && predicate(slots_[i])) {
      MarkDead(i);
      ++removed;
    }
  }
  if (removed > 0) {
    Compact();
  }
  return removed;
}

void CallLog::MarkDead(uint32_t slot) {
  wire_size_ -= slots_[slot].wire_bytes;
  --live_count_;
  ++dead_count_;
  dead_[slot] = 1;
  slots_[slot] = CallRecord{};  // release parcels/strings immediately
}

void CallLog::CompactIfWorthwhile() {
  // Each compaction of n slots is paid for by at least n/2 prior drops, so
  // pruning stays O(bucket) amortized; the floor keeps tiny logs from
  // compacting (and reindexing) on every drop.
  if (dead_count_ > live_count_ && dead_count_ > 32) {
    Compact();
  }
}

void CallLog::Compact() const {
  if (dead_count_ == 0) {
    return;
  }
  size_t write = 0;
  for (size_t read = 0; read < slots_.size(); ++read) {
    if (dead_[read]) {
      continue;
    }
    if (write != read) {
      slots_[write] = std::move(slots_[read]);
    }
    ++write;
  }
  slots_.resize(write);
  dead_.assign(write, 0);
  dead_count_ = 0;
  RebuildBuckets();
}

void CallLog::RebuildBuckets() const {
  // Vectors keep their capacity across rebuilds; compaction is amortized, so
  // the string-free full reindex never dominates the record path.
  for (auto& [key, indices] : buckets_) {
    (void)key;
    indices.clear();
  }
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    buckets_[BucketKey{slots_[i].interface_id, slots_[i].node_id}].push_back(i);
  }
}

void CallLog::RemapNodes(const std::map<uint64_t, uint64_t>& mapping) {
  Compact();
  auto remap = [&mapping](uint64_t& node) {
    if (auto it = mapping.find(node); it != mapping.end()) {
      node = it->second;
    }
  };
  for (CallRecord& record : slots_) {
    if (record.service.empty()) {
      remap(record.node_id);
    }
    const Parcel& args = record.args;
    for (size_t i = 0; i < args.size(); ++i) {
      // Probe read-only first: args parcels are copy-on-write, and most
      // calls carry no object refs at all.
      const auto* ref = std::get_if<ParcelObjectRef>(&args.at(i));
      if (ref != nullptr && ref->space == ParcelObjectRef::Space::kNode) {
        remap(std::get<ParcelObjectRef>(record.args.at(i)).value);
      }
    }
  }
  RebuildBuckets();
}

void CallLog::Clear() {
  slots_.clear();
  dead_.clear();
  buckets_.clear();
  wire_size_ = 0;
  live_count_ = 0;
  dead_count_ = 0;
}

void CallLog::Serialize(ArchiveWriter& out) const {
  out.PutU64(live_count_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (dead_[i]) {
      continue;
    }
    const CallRecord& entry = slots_[i];
    out.PutU64(entry.seq);
    out.PutU64(entry.time);
    out.PutString(entry.service);
    out.PutString(entry.interface);
    out.PutString(entry.method);
    out.PutU64(entry.node_id);
    out.PutBool(entry.oneway);
    ArchiveWriter args;
    entry.args.Serialize(args);
    out.PutSection(args);
    ArchiveWriter reply;
    entry.reply.Serialize(reply);
    out.PutSection(reply);
  }
}

Result<CallLog> CallLog::Deserialize(ArchiveReader& in) {
  CallLog log;
  uint64_t count = 0;
  FLUX_RETURN_IF_ERROR(in.GetU64(count));
  uint64_t max_seq = 0;
  for (uint64_t i = 0; i < count; ++i) {
    CallRecord entry;
    FLUX_RETURN_IF_ERROR(in.GetU64(entry.seq));
    FLUX_RETURN_IF_ERROR(in.GetU64(entry.time));
    FLUX_RETURN_IF_ERROR(in.GetString(entry.service));
    FLUX_RETURN_IF_ERROR(in.GetString(entry.interface));
    FLUX_RETURN_IF_ERROR(in.GetString(entry.method));
    FLUX_RETURN_IF_ERROR(in.GetU64(entry.node_id));
    FLUX_RETURN_IF_ERROR(in.GetBool(entry.oneway));
    ArchiveReader args_section({});
    FLUX_RETURN_IF_ERROR(in.GetSection(args_section));
    FLUX_ASSIGN_OR_RETURN(entry.args, Parcel::Deserialize(args_section));
    ArchiveReader reply_section({});
    FLUX_RETURN_IF_ERROR(in.GetSection(reply_section));
    FLUX_ASSIGN_OR_RETURN(entry.reply, Parcel::Deserialize(reply_section));
    max_seq = std::max(max_seq, entry.seq);
    // Re-interns ids for this process; the wire format never carries them.
    log.IndexNewEntry(std::move(entry));
  }
  log.next_seq_ = max_seq + 1;
  return log;
}

}  // namespace flux
