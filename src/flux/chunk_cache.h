// Per-device content-addressed chunk store for delta transfer.
//
// Every migration ships the CRIA image as fixed-size chunks; on the
// phone<->tablet ping-pong pattern Flux is built for, most chunks are
// byte-identical to ones the peer already saw in an earlier hop. Each
// device keeps a ChunkCache of raw chunk content keyed by FluxHash128:
// the home side queries the guest's cache through a hash manifest before
// streaming and replaces hits with 16-byte `ref` chunks; the guest side
// resolves refs locally and re-inserts everything it restores (containers
// cut at kChunkCacheChunkBytes only), so the cache warms in both
// directions.
//
// Entries are verified against their key on every query: a poisoned entry
// (bit rot, a torn write) is indistinguishable from a miss, so the home
// side ships the full chunk instead of letting a bad cache corrupt a
// restore. A whole manifest can be probed at once (HasValidBatch), and a
// container's refs fetched at once (ChunkCacheRefSource); both move the
// re-hashes onto a worker pool but keep every effect of a HasValid or
// Fetch loop. Eviction is LRU by bytes against a per-device budget.
//
// Layout. A cache is one slot array and one index, not a node per entry:
// the fleet coordinator keeps one cache per modeled device, 100k of them,
// holding millions of entries of about a dozen bytes each. A slot holds an
// entry's key, its content and two uint32_t LRU links; dropped slots are
// reused through a free list. The index is an open-addressing table of slot
// ids (linear probing, backward-shift deletion, doubled at half load). An
// entry's content lives inside its slot up to Content::kInlineBytes (the
// fleet's seed strings) and in one heap buffer above that (the migration
// path's 256 KiB chunks). An empty cache allocates nothing.
#ifndef FLUX_SRC_FLUX_CHUNK_CACHE_H_
#define FLUX_SRC_FLUX_CHUNK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/compress.h"
#include "src/base/hash.h"
#include "src/flux/cost_model.h"
#include "src/flux/flight_recorder.h"
#include "src/flux/trace.h"

namespace flux {

class ThreadPool;

// Raw bytes covered by one cache entry. Pairing-time seeding and the
// migration engine must agree on this granularity or seeded entries can
// never match an image chunk, so it is the cost model's chunk size
// (kMigrationChunkBytes, cost_model.h).
inline constexpr uint64_t kChunkCacheChunkBytes = kMigrationChunkBytes;

class ChunkCache {
 public:
  struct Stats {
    uint64_t insertions = 0;       // new entries stored
    uint64_t refreshes = 0;        // inserts that found the entry present
    uint64_t hits = 0;             // verified lookups that matched
    uint64_t misses = 0;           // lookups with no entry
    uint64_t verify_failures = 0;  // entries dropped on content mismatch
    uint64_t evictions = 0;        // entries dropped for the byte budget
  };

  explicit ChunkCache(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  // Stores (a copy of) `content` under `hash`, bumping it most-recent and
  // evicting least-recently-used entries past the byte budget. An entry
  // larger than the whole budget is not stored. The caller vouches that
  // `hash` is the content's FluxHash128; Insert does not re-hash.
  void Insert(const Hash128& hash, ByteSpan content);

  // True if the entry exists AND its content still hashes to `hash`.
  // Bumps the entry most-recent on success; drops it on verify failure.
  // This is the manifest-time query: answering "have" for a poisoned entry
  // would make the home side ship an unusable ref.
  bool HasValid(const Hash128& hash);

  // HasValid for every hash of `hashes`, with the re-hashes spread over
  // `pool` (inline when null). Every list position that names an entry is
  // re-hashed on the pool's static split before anything changes (a hash
  // listed twice is re-hashed twice, as in the loop); then, on the
  // calling thread and in list order, each probe applies exactly what
  // HasValid would: hit and miss counts, the drop, counter and flight
  // event of a verify failure, and the most-recent bump of a hit. So the
  // flags (1 = valid), stats(), bytes() and LRU order all match a HasValid
  // loop over the same list; a poisoned hash listed twice reads as a
  // verify failure and then a miss. Pool workers only read entry content,
  // and the caller blocks until they finish.
  std::vector<uint8_t> HasValidBatch(std::span<const Hash128> hashes,
                                     ThreadPool* pool);

  // HasValidBatch in its two halves, for callers that read the verified
  // content in between. VerifyBatch re-hashes every entry `hashes` names on
  // `pool`'s static split and returns, per position, a view of the entry's
  // content if it still matches its key (empty for a missing or poisoned
  // entry); it changes nothing. A view stays valid until the next call that
  // modifies the cache: content may live inside the slot array, which an
  // insert can move. SettleBatch then applies, on the calling thread and in
  // list order, exactly what a HasValid (or Fetch) loop over `hashes`
  // would, given those verdicts, and returns the flags; it reads only
  // whether each view is set.
  std::vector<std::optional<ByteSpan>> VerifyBatch(
      std::span<const Hash128> hashes, ThreadPool* pool) const;
  std::vector<uint8_t> SettleBatch(
      std::span<const Hash128> hashes,
      std::span<const std::optional<ByteSpan>> verified);

  // Fetches a verified copy of the entry into `out`; same verification and
  // LRU semantics as HasValid. Returns false on miss or verify failure.
  bool Fetch(const Hash128& hash, Bytes& out);

  // Drops one entry; returns whether it existed.
  bool Remove(const Hash128& hash);

  void Clear();

  // Shrinking the budget evicts immediately.
  void set_budget_bytes(uint64_t budget_bytes);
  uint64_t budget_bytes() const { return budget_bytes_; }
  uint64_t bytes() const { return bytes_; }
  size_t entries() const { return entries_; }
  const Stats& stats() const { return stats_; }

  // Mirrors the Stats increments into cache.* trace counters (null
  // detaches). Counter pointers are cached here so the hot lookups pay one
  // pointer test, not a registry probe.
  void set_tracer(Tracer* tracer);

  // Emits a cache.verify_failure flight-recorder event whenever a poisoned
  // entry is dropped (content no longer matches its key).
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  // Fault injection for tests: flips one bit of the stored content so the
  // entry no longer matches its key. Returns whether the entry existed.
  bool PoisonForTest(const Hash128& hash);

  // Every key currently cached, most recently used first (for tests that
  // poison or drop the whole store).
  std::vector<Hash128> Keys() const;

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  // One entry's content: inside the holder up to kInlineBytes, else in one
  // heap buffer.
  class Content {
   public:
    static constexpr size_t kInlineBytes = 24;

    Content() = default;
    explicit Content(ByteSpan bytes);
    Content(const Content& other) : Content(other.view()) {}
    Content(Content&& other) noexcept { Take(other); }
    Content& operator=(const Content& other) {
      return *this = Content(other.view());
    }
    Content& operator=(Content&& other) noexcept;
    ~Content() { Release(); }

    ByteSpan view() const { return ByteSpan(data(), size_); }
    uint8_t* data() { return is_inline() ? inline_ : heap_; }
    const uint8_t* data() const { return is_inline() ? inline_ : heap_; }
    uint64_t size() const { return size_; }

   private:
    bool is_inline() const { return size_ <= kInlineBytes; }
    void Take(Content& other) noexcept;
    void Release();

    uint64_t size_ = 0;
    union {
      uint8_t inline_[kInlineBytes] = {};
      uint8_t* heap_;
    };
  };

  struct Slot {
    Hash128 hash;
    Content content;
    uint32_t newer = kNil;  // toward the most recently used entry
    uint32_t older = kNil;  // toward the least; the free list's link
  };

  // Whether the slot's content still hashes to its key.
  static bool Intact(const Slot& slot);
  // Slot id of `hash`, or kNil.
  uint32_t Find(const Hash128& hash) const;
  // Index position holding `hash`, or the empty position where it belongs.
  size_t Probe(const Hash128& hash) const;
  // Stores a new entry most-recent.
  void Add(const Hash128& hash, Content content);
  // Unlinks the entry, removes it from the index and frees its slot.
  void Drop(uint32_t id);
  void Unlink(uint32_t id);
  void LinkFront(uint32_t id);
  void Grow();
  // Applies one probe's outcome as HasValid does: a miss when `id` is kNil,
  // a most-recent bump when `intact`, a verify-failure drop otherwise.
  // Returns whether the probe hit.
  bool Settle(uint32_t id, bool intact);
  void EvictToBudget();

  uint64_t budget_bytes_;
  uint64_t bytes_ = 0;
  size_t entries_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> index_;  // slot ids; size 0 or a power of two
  uint32_t newest_ = kNil;
  uint32_t oldest_ = kNil;
  uint32_t free_ = kNil;  // head of the free-slot list
  Stats stats_;
  TraceCounter* trace_hits_ = nullptr;
  TraceCounter* trace_misses_ = nullptr;
  TraceCounter* trace_insertions_ = nullptr;
  TraceCounter* trace_refreshes_ = nullptr;
  TraceCounter* trace_evictions_ = nullptr;
  TraceCounter* trace_verify_failures_ = nullptr;
  FlightRecorder* flight_recorder_ = nullptr;
};

// Serves a chunk container's refs from a cache (LzDecompressChunks): the
// lookup re-verifies every ref'd entry on the decoder's pool, and Settle
// applies the first n as a Fetch loop over those refs would — hits,
// misses, verify-failure drops with their counter and flight event, and
// most-recent bumps.
class ChunkCacheRefSource : public LzChunkRefSource {
 public:
  explicit ChunkCacheRefSource(ChunkCache& cache) : cache_(cache) {}

  std::vector<std::optional<ByteSpan>> Lookup(std::span<const Hash128> refs,
                                              ThreadPool* pool) override;
  void Settle(size_t n) override;

 private:
  ChunkCache& cache_;
  std::vector<Hash128> refs_;
  std::vector<std::optional<ByteSpan>> verified_;
};

}  // namespace flux

#endif  // FLUX_SRC_FLUX_CHUNK_CACHE_H_
