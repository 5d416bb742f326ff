#include "src/flux/chunk_cache.h"

#include <algorithm>

#include "src/base/thread_pool.h"

namespace flux {

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
  auto it = index_.find(hash);
  if (it != index_.end()) {
    // Already cached: refresh recency (and content, in case the entry was
    // poisoned since — Insert is the one writer that knows good bytes).
    lru_.splice(lru_.begin(), lru_, it->second);
    if (it->second->content.size() != content.size() ||
        !std::equal(content.begin(), content.end(),
                    it->second->content.begin())) {
      bytes_ -= it->second->content.size();
      it->second->content.assign(content.begin(), content.end());
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
  lru_.push_front(Entry{hash, Bytes(content.begin(), content.end())});
  index_[hash] = lru_.begin();
  bytes_ += content.size();
  ++stats_.insertions;
  FLUX_TRACE_COUNTER_ADD(trace_insertions_, 1);
  EvictToBudget();
}

bool ChunkCache::Intact(const Entry& entry) {
  return FluxHash128(ByteSpan(entry.content.data(), entry.content.size())) ==
         entry.hash;
}

bool ChunkCache::HasValid(const Hash128& hash) {
  auto it = index_.find(hash);
  return Settle(it, it != index_.end() && Intact(*it->second));
}

std::vector<uint8_t> ChunkCache::HasValidBatch(std::span<const Hash128> hashes,
                                               ThreadPool* pool) {
  return SettleBatch(hashes, VerifyBatch(hashes, pool));
}

std::vector<std::optional<ByteSpan>> ChunkCache::VerifyBatch(
    std::span<const Hash128> hashes, ThreadPool* pool) const {
  // Probes only bump or drop entries, never rewrite content, so every
  // verdict can be taken before any probe is applied.
  std::vector<const Entry*> entries(hashes.size(), nullptr);
  for (size_t i = 0; i < hashes.size(); ++i) {
    auto it = index_.find(hashes[i]);
    if (it != index_.end()) {
      entries[i] = &*it->second;
    }
  }
  std::vector<std::optional<ByteSpan>> verified(hashes.size());
  ForEachChunk(pool, hashes.size(), [&](size_t i) {
    if (entries[i] != nullptr && Intact(*entries[i])) {
      verified[i] = ByteSpan(entries[i]->content.data(),
                             entries[i]->content.size());
    }
  });
  return verified;
}

std::vector<uint8_t> ChunkCache::SettleBatch(
    std::span<const Hash128> hashes,
    std::span<const std::optional<ByteSpan>> verified) {
  std::vector<uint8_t> valid(hashes.size(), 0);
  for (size_t i = 0; i < hashes.size(); ++i) {
    auto it = index_.find(hashes[i]);
    valid[i] =
        Settle(it, it != index_.end() && verified[i].has_value()) ? 1 : 0;
  }
  return valid;
}

bool ChunkCache::Settle(Index::iterator it, bool intact) {
  if (it == index_.end()) {
    ++stats_.misses;
    FLUX_TRACE_COUNTER_ADD(trace_misses_, 1);
    return false;
  }
  const Bytes& content = it->second->content;
  if (!intact) {
    // Poisoned entry: drop it so the peer ships the full chunk.
    ++stats_.verify_failures;
    FLUX_TRACE_COUNTER_ADD(trace_verify_failures_, 1);
    FLUX_EVENT(flight_recorder_, flight_events::kSubCache,
               flight_events::kCacheVerifyFailure, EventSeverity::kWarning,
               content.size(), index_.size());
    bytes_ -= content.size();
    lru_.erase(it->second);
    index_.erase(it);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  FLUX_TRACE_COUNTER_ADD(trace_hits_, 1);
  return true;
}

bool ChunkCache::Fetch(const Hash128& hash, Bytes& out) {
  if (!HasValid(hash)) {
    return false;
  }
  out = lru_.front().content;  // HasValid bumped it most-recent
  return true;
}

bool ChunkCache::Remove(const Hash128& hash) {
  auto it = index_.find(hash);
  if (it == index_.end()) {
    return false;
  }
  bytes_ -= it->second->content.size();
  lru_.erase(it->second);
  index_.erase(it);
  return true;
}

void ChunkCache::Clear() {
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void ChunkCache::set_budget_bytes(uint64_t budget_bytes) {
  budget_bytes_ = budget_bytes;
  EvictToBudget();
}

bool ChunkCache::PoisonForTest(const Hash128& hash) {
  auto it = index_.find(hash);
  if (it == index_.end() || it->second->content.empty()) {
    return false;
  }
  it->second->content[0] ^= 0x01;
  return true;
}

std::vector<Hash128> ChunkCache::Keys() const {
  std::vector<Hash128> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) {
    keys.push_back(entry.hash);
  }
  return keys;
}

void ChunkCache::EvictToBudget() {
  while (bytes_ > budget_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.content.size();
    index_.erase(victim.hash);
    lru_.pop_back();
    ++stats_.evictions;
    FLUX_TRACE_COUNTER_ADD(trace_evictions_, 1);
  }
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
