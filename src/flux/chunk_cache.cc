#include "src/flux/chunk_cache.h"

#include <algorithm>
#include <cstring>

#include "src/base/thread_pool.h"

namespace flux {

ChunkCache::Content::Content(ByteSpan bytes) : size_(bytes.size()) {
  if (!is_inline()) {
    heap_ = new uint8_t[size_];
  }
  if (size_ != 0) {
    std::memcpy(data(), bytes.data(), size_);
  }
}

ChunkCache::Content& ChunkCache::Content::operator=(Content&& other) noexcept {
  if (this != &other) {
    Release();
    Take(other);
  }
  return *this;
}

void ChunkCache::Content::Take(Content& other) noexcept {
  size_ = other.size_;
  if (is_inline()) {
    std::memcpy(inline_, other.inline_, size_);
  } else {
    heap_ = other.heap_;
  }
  other.size_ = 0;
}

void ChunkCache::Content::Release() {
  if (!is_inline()) {
    delete[] heap_;
  }
  size_ = 0;
}

void ChunkCache::set_tracer(Tracer* tracer) {
#if FLUX_TRACE_ENABLED
  trace_hits_ = tracer ? tracer->counter(trace_names::kCacheHits) : nullptr;
  trace_misses_ =
      tracer ? tracer->counter(trace_names::kCacheMisses) : nullptr;
  trace_insertions_ =
      tracer ? tracer->counter(trace_names::kCacheInsertions) : nullptr;
  trace_refreshes_ =
      tracer ? tracer->counter(trace_names::kCacheRefreshes) : nullptr;
  trace_evictions_ =
      tracer ? tracer->counter(trace_names::kCacheEvictions) : nullptr;
  trace_verify_failures_ =
      tracer ? tracer->counter(trace_names::kCacheVerifyFailures) : nullptr;
#else
  (void)tracer;
#endif
}

void ChunkCache::Insert(const Hash128& hash, ByteSpan content) {
  const uint32_t id = Find(hash);
  if (id != kNil) {
    // Already cached: refresh recency (and content, in case the entry was
    // poisoned since — Insert is the one writer that knows good bytes).
    Unlink(id);
    LinkFront(id);
    Content& held = slots_[id].content;
    if (held.size() != content.size() ||
        !std::equal(content.begin(), content.end(), held.data())) {
      bytes_ -= held.size();
      held = Content(content);
      bytes_ += content.size();
    }
    ++stats_.refreshes;
    FLUX_TRACE_COUNTER_ADD(trace_refreshes_, 1);
    EvictToBudget();
    return;
  }
  if (content.size() > budget_bytes_) {
    return;
  }
  // Copied before any slot moves: `content` may view another entry.
  Add(hash, Content(content));
  bytes_ += content.size();
  ++stats_.insertions;
  FLUX_TRACE_COUNTER_ADD(trace_insertions_, 1);
  EvictToBudget();
}

bool ChunkCache::Intact(const Slot& slot) {
  return FluxHash128(slot.content.view()) == slot.hash;
}

bool ChunkCache::HasValid(const Hash128& hash) {
  const uint32_t id = Find(hash);
  return Settle(id, id != kNil && Intact(slots_[id]));
}

std::vector<uint8_t> ChunkCache::HasValidBatch(std::span<const Hash128> hashes,
                                               ThreadPool* pool) {
  return SettleBatch(hashes, VerifyBatch(hashes, pool));
}

std::vector<std::optional<ByteSpan>> ChunkCache::VerifyBatch(
    std::span<const Hash128> hashes, ThreadPool* pool) const {
  // Probes only bump or drop entries, never rewrite content, so every
  // verdict can be taken before any probe is applied.
  std::vector<uint32_t> ids(hashes.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    ids[i] = Find(hashes[i]);
  }
  std::vector<std::optional<ByteSpan>> verified(hashes.size());
  ForEachChunk(pool, hashes.size(), [&](size_t i) {
    if (ids[i] != kNil && Intact(slots_[ids[i]])) {
      verified[i] = slots_[ids[i]].content.view();
    }
  });
  return verified;
}

std::vector<uint8_t> ChunkCache::SettleBatch(
    std::span<const Hash128> hashes,
    std::span<const std::optional<ByteSpan>> verified) {
  std::vector<uint8_t> valid(hashes.size(), 0);
  for (size_t i = 0; i < hashes.size(); ++i) {
    const uint32_t id = Find(hashes[i]);
    valid[i] = Settle(id, id != kNil && verified[i].has_value()) ? 1 : 0;
  }
  return valid;
}

bool ChunkCache::Settle(uint32_t id, bool intact) {
  if (id == kNil) {
    ++stats_.misses;
    FLUX_TRACE_COUNTER_ADD(trace_misses_, 1);
    return false;
  }
  if (!intact) {
    // Poisoned entry: drop it so the peer ships the full chunk.
    ++stats_.verify_failures;
    FLUX_TRACE_COUNTER_ADD(trace_verify_failures_, 1);
    FLUX_EVENT(flight_recorder_, flight_events::kSubCache,
               flight_events::kCacheVerifyFailure, EventSeverity::kWarning,
               slots_[id].content.size(), entries_);
    Drop(id);
    return false;
  }
  Unlink(id);
  LinkFront(id);
  ++stats_.hits;
  FLUX_TRACE_COUNTER_ADD(trace_hits_, 1);
  return true;
}

bool ChunkCache::Fetch(const Hash128& hash, Bytes& out) {
  if (!HasValid(hash)) {
    return false;
  }
  // HasValid bumped the entry most-recent.
  const ByteSpan content = slots_[newest_].content.view();
  out.assign(content.begin(), content.end());
  return true;
}

bool ChunkCache::Remove(const Hash128& hash) {
  const uint32_t id = Find(hash);
  if (id == kNil) {
    return false;
  }
  Drop(id);
  return true;
}

void ChunkCache::Clear() {
  slots_ = {};
  index_ = {};
  newest_ = oldest_ = free_ = kNil;
  entries_ = 0;
  bytes_ = 0;
}

void ChunkCache::set_budget_bytes(uint64_t budget_bytes) {
  budget_bytes_ = budget_bytes;
  EvictToBudget();
}

bool ChunkCache::PoisonForTest(const Hash128& hash) {
  const uint32_t id = Find(hash);
  if (id == kNil || slots_[id].content.size() == 0) {
    return false;
  }
  slots_[id].content.data()[0] ^= 0x01;
  return true;
}

std::vector<Hash128> ChunkCache::Keys() const {
  std::vector<Hash128> keys;
  keys.reserve(entries_);
  for (uint32_t id = newest_; id != kNil; id = slots_[id].older) {
    keys.push_back(slots_[id].hash);
  }
  return keys;
}

void ChunkCache::EvictToBudget() {
  while (bytes_ > budget_bytes_ && oldest_ != kNil) {
    Drop(oldest_);
    ++stats_.evictions;
    FLUX_TRACE_COUNTER_ADD(trace_evictions_, 1);
  }
}

uint32_t ChunkCache::Find(const Hash128& hash) const {
  return index_.empty() ? kNil : index_[Probe(hash)];
}

size_t ChunkCache::Probe(const Hash128& hash) const {
  // At most half full, so the walk always reaches an empty position.
  const size_t mask = index_.size() - 1;
  size_t pos = Hash128Hasher{}(hash) & mask;
  while (index_[pos] != kNil && slots_[index_[pos]].hash != hash) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void ChunkCache::Add(const Hash128& hash, Content content) {
  if (2 * (entries_ + 1) > index_.size()) {
    Grow();
  }
  uint32_t id = free_;
  if (id != kNil) {
    free_ = slots_[id].older;
    slots_[id].hash = hash;
    slots_[id].content = std::move(content);
  } else {
    id = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{hash, std::move(content)});
  }
  index_[Probe(hash)] = id;
  LinkFront(id);
  ++entries_;
}

void ChunkCache::Grow() {
  std::vector<uint32_t> old = std::move(index_);
  index_.assign(std::max<size_t>(16, 2 * old.size()), kNil);
  for (const uint32_t id : old) {
    if (id != kNil) {
      index_[Probe(slots_[id].hash)] = id;
    }
  }
  // The index doubles at half load, so this is room for every entry the
  // new table admits: the slot array grows with it, not on its own.
  slots_.reserve(index_.size() / 2);
}

void ChunkCache::Drop(uint32_t id) {
  // Backward-shift deletion: pull each later entry of the probe chain into
  // the gap unless the gap lies before its home position, so every chain
  // stays unbroken and no tombstone is left.
  const size_t mask = index_.size() - 1;
  size_t gap = Probe(slots_[id].hash);
  for (size_t pos = (gap + 1) & mask; index_[pos] != kNil;
       pos = (pos + 1) & mask) {
    const size_t home = Hash128Hasher{}(slots_[index_[pos]].hash) & mask;
    if (((pos - home) & mask) >= ((pos - gap) & mask)) {
      index_[gap] = index_[pos];
      gap = pos;
    }
  }
  index_[gap] = kNil;

  Slot& slot = slots_[id];
  bytes_ -= slot.content.size();
  slot.content = Content();
  Unlink(id);
  slot.older = free_;
  free_ = id;
  --entries_;
}

void ChunkCache::Unlink(uint32_t id) {
  Slot& slot = slots_[id];
  (slot.newer != kNil ? slots_[slot.newer].older : newest_) = slot.older;
  (slot.older != kNil ? slots_[slot.older].newer : oldest_) = slot.newer;
  slot.newer = slot.older = kNil;
}

void ChunkCache::LinkFront(uint32_t id) {
  Slot& slot = slots_[id];
  slot.newer = kNil;
  slot.older = newest_;
  (newest_ != kNil ? slots_[newest_].newer : oldest_) = id;
  newest_ = id;
}

std::vector<std::optional<ByteSpan>> ChunkCacheRefSource::Lookup(
    std::span<const Hash128> refs, ThreadPool* pool) {
  refs_.assign(refs.begin(), refs.end());
  verified_ = cache_.VerifyBatch(refs_, pool);
  return verified_;
}

void ChunkCacheRefSource::Settle(size_t n) {
  n = std::min(n, refs_.size());
  cache_.SettleBatch(std::span<const Hash128>(refs_).first(n),
                     std::span<const std::optional<ByteSpan>>(verified_)
                         .first(n));
}

}  // namespace flux
