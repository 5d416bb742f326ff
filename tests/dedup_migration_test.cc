// A -> B -> A delta-transfer integration tests: the chunk caches warm up
// across hops, the return hop ships refs instead of bytes, the restored
// image stays byte-identical to the checkpoint, and a poisoned or emptied
// guest cache degrades to shipping full chunks rather than corrupting the
// restore.
#include <gtest/gtest.h>

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/apps/app_instance.h"
#include "src/base/archive.h"
#include "src/base/compress.h"
#include "src/base/rng.h"
#include "src/base/synthetic_content.h"
#include "src/base/thread_pool.h"
#include "src/device/world.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/flight_recorder.h"
#include "src/flux/migration.h"

namespace flux {
namespace {

// Two paired devices wired for hops in both directions, with one managed
// app that starts on device A. Worlds boot identically, so runs differing
// only in MigrationConfig are comparable.
struct RoundTripWorld {
  World world;
  Device* a = nullptr;
  Device* b = nullptr;
  std::unique_ptr<FluxAgent> a_agent;
  std::unique_ptr<FluxAgent> b_agent;
  std::unique_ptr<AppInstance> app;
  const AppSpec* spec = nullptr;
  RunningApp running;

  void Boot(const std::string& app_name) {
    BootOptions boot;
    boot.framework_scale = 0.01;
    a = world.AddDevice("n4", Nexus4Profile(), boot).value();
    b = world.AddDevice("n7-2013", Nexus7_2013Profile(), boot).value();
    a_agent = std::make_unique<FluxAgent>(*a);
    b_agent = std::make_unique<FluxAgent>(*b);
    ASSERT_TRUE(PairDevices(*a_agent, *b_agent).ok());
    ASSERT_TRUE(PairDevices(*b_agent, *a_agent).ok());
    spec = FindApp(app_name);
    ASSERT_NE(spec, nullptr) << app_name;
    app = std::make_unique<AppInstance>(*a, *spec);
    ASSERT_TRUE(app->Install().ok());
    ASSERT_TRUE(PairApp(*a_agent, *b_agent, *spec).ok());
    ASSERT_TRUE(app->Launch().ok());
    a_agent->Manage(app->pid(), spec->package);
    ASSERT_TRUE(app->RunWorkload(42).ok());
    running = RunningApp::FromInstance(*app);
  }

  Result<MigrationReport> Hop(FluxAgent& from, FluxAgent& to,
                              const MigrationConfig& config) {
    MigrationManager manager(from, to, config);
    auto report = manager.Migrate(running, *spec);
    if (report.ok() && report->success) {
      running = report->migrated;
    }
    return report;
  }
};

MigrationConfig DedupConfig() {
  MigrationConfig config;
  config.pipelined = true;
  config.chunk_dedup = true;
  return config;
}

TEST(DedupMigrationTest, WarmReturnHopShipsRefsAndFewerBytes) {
  RoundTripWorld dedup;
  dedup.Boot("Candy Crush Saga");
  const MigrationConfig config = DedupConfig();

  auto hop1 = dedup.Hop(*dedup.a_agent, *dedup.b_agent, config);
  ASSERT_TRUE(hop1.ok()) << hop1.status().ToString();
  ASSERT_TRUE(hop1->success) << hop1->refusal_reason;
  EXPECT_TRUE(hop1->dedup.enabled);
  // Restore reassembled exactly the bytes the checkpoint produced — the
  // identity a cold (no-dedup) migration trivially provides, preserved
  // here through ref substitution.
  EXPECT_EQ(hop1->image_hash, hop1->restored_image_hash);

  ASSERT_TRUE(PairApp(*dedup.b_agent, *dedup.a_agent, *dedup.spec).ok());
  auto hop2 = dedup.Hop(*dedup.b_agent, *dedup.a_agent, config);
  ASSERT_TRUE(hop2.ok()) << hop2.status().ToString();
  ASSERT_TRUE(hop2->success) << hop2->refusal_reason;
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);

  // The return hop found most of its image in A's cache (populated while A
  // was the home side of hop 1) and shipped refs for it.
  EXPECT_GT(hop2->dedup.ref_chunks, 0u);
  EXPECT_GT(hop2->dedup.ref_raw_bytes, 0u);
  EXPECT_GT(hop2->dedup.manifest_wire_bytes, 0u);

  // Control: the identical round trip without dedup.
  RoundTripWorld control;
  control.Boot("Candy Crush Saga");
  MigrationConfig cold = config;
  cold.chunk_dedup = false;
  auto cold1 = control.Hop(*control.a_agent, *control.b_agent, cold);
  ASSERT_TRUE(cold1.ok() && cold1->success);
  EXPECT_FALSE(cold1->dedup.enabled);
  EXPECT_TRUE(cold1->pipeline.chunk_kind.empty());
  ASSERT_TRUE(PairApp(*control.b_agent, *control.a_agent, *control.spec).ok());
  auto cold2 = control.Hop(*control.b_agent, *control.a_agent, cold);
  ASSERT_TRUE(cold2.ok() && cold2->success);

  // Strictly fewer wire bytes on the warm hop, manifest included.
  EXPECT_LT(hop2->total_wire_bytes, cold2->total_wire_bytes);
  // And no slower: ref chunks skip the codec on both sides.
  EXPECT_LE(ToSecondsF(hop2->Total()), ToSecondsF(cold2->Total()) + 1e-9);
  // The first (cold-cache) hop never costs extra wire bytes: the stored
  // fallback and refs can only shrink the container.
  EXPECT_LE(hop1->total_wire_bytes,
            cold1->total_wire_bytes + hop1->dedup.manifest_wire_bytes);

  // chunk_dedup alone implies pipelined: the same hop, chunked and deduped.
  RoundTripWorld implied;
  implied.Boot("Candy Crush Saga");
  MigrationConfig dedup_only;
  dedup_only.chunk_dedup = true;
  auto implied1 = implied.Hop(*implied.a_agent, *implied.b_agent, dedup_only);
  ASSERT_TRUE(implied1.ok() && implied1->success);
  EXPECT_TRUE(implied1->pipeline.enabled);
  EXPECT_TRUE(implied1->dedup.enabled);
  EXPECT_EQ(implied1->total_wire_bytes, hop1->total_wire_bytes);
}

TEST(DedupMigrationTest, PoisonedGuestCacheFallsBackToFullChunks) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  const MigrationConfig config = DedupConfig();
  auto hop1 = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop1.ok() && hop1->success);

  // Corrupt every entry in A's cache — the cache hop 2 will query.
  ChunkCache& guest_cache = tw.a_agent->chunk_cache();
  const std::vector<Hash128> keys = guest_cache.Keys();
  ASSERT_FALSE(keys.empty());
  for (const Hash128& key : keys) {
    ASSERT_TRUE(guest_cache.PoisonForTest(key));
  }

  ASSERT_TRUE(PairApp(*tw.b_agent, *tw.a_agent, *tw.spec).ok());
  auto hop2 = tw.Hop(*tw.b_agent, *tw.a_agent, config);
  ASSERT_TRUE(hop2.ok()) << hop2.status().ToString();
  ASSERT_TRUE(hop2->success) << hop2->refusal_reason;

  // Every poisoned entry read as a miss at manifest time, so no refs
  // shipped, full chunks did — and the restore stayed byte-exact.
  EXPECT_EQ(hop2->dedup.ref_chunks, 0u);
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);
  EXPECT_GT(guest_cache.stats().verify_failures, 0u);
  EXPECT_NE(tw.a->kernel().FindProcess(hop2->migrated.pid), nullptr);
}

TEST(DedupMigrationTest, MissingGuestCacheEntriesFallBackToFullChunks) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  const MigrationConfig config = DedupConfig();
  auto hop1 = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop1.ok() && hop1->success);

  // A's cache vanished entirely (reboot, storage pressure).
  tw.a_agent->chunk_cache().Clear();

  ASSERT_TRUE(PairApp(*tw.b_agent, *tw.a_agent, *tw.spec).ok());
  auto hop2 = tw.Hop(*tw.b_agent, *tw.a_agent, config);
  ASSERT_TRUE(hop2.ok()) << hop2.status().ToString();
  ASSERT_TRUE(hop2->success) << hop2->refusal_reason;
  EXPECT_EQ(hop2->dedup.ref_chunks, 0u);
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);
}

TEST(DedupMigrationTest, EntryPoisonedAfterManifestRollsBack) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  MigrationConfig config = DedupConfig();
  auto hop1 = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop1.ok() && hop1->success);
  const RunningApp on_b = tw.running;

  // The return hop's manifest probe finds A's entries intact and ships
  // refs; only then — after the payload is built, before it travels — does
  // every entry in A's cache go bad.
  ChunkCache& guest_cache = tw.a_agent->chunk_cache();
  uint64_t hits_at_manifest = 0;
  config.payload_fault = [&](Bytes&) {
    hits_at_manifest = guest_cache.stats().hits;
    for (const Hash128& key : guest_cache.Keys()) {
      guest_cache.PoisonForTest(key);
    }
  };
  ASSERT_TRUE(PairApp(*tw.b_agent, *tw.a_agent, *tw.spec).ok());
  auto hop2 = tw.Hop(*tw.b_agent, *tw.a_agent, config);
  EXPECT_GT(hits_at_manifest, 0u);

  // Fetch re-hashes each ref'd entry, refuses it, and the decode fails
  // loudly: the app rolls back to B and nothing is left running on A.
  ASSERT_FALSE(hop2.ok());
  EXPECT_EQ(hop2.status().code(), StatusCode::kCorrupt)
      << hop2.status().ToString();
  EXPECT_GT(guest_cache.stats().verify_failures, 0u);
  EXPECT_NE(tw.b->kernel().FindProcess(on_b.pid), nullptr);
  const PackageInfo* on_a = tw.a->package_manager().Find(tw.spec->package);
  ASSERT_NE(on_a, nullptr);
  EXPECT_TRUE(tw.a->kernel().ProcessesOfUid(on_a->uid).empty());
}

TEST(DedupMigrationTest, ForeignChunkSizeRestoresWithoutCacheReinsert) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  MigrationConfig config = DedupConfig();
  // The home picks the container's chunk size. Re-encode the image at 4 KiB
  // chunks: still a valid container, but not the cache's granularity.
  config.payload_fault = [](Bytes& payload) {
    ArchiveReader reader(ByteSpan(payload.data(), payload.size()));
    uint32_t magic = 0;
    std::string package;
    ArchiveReader section({});
    bool compressed = false;
    ASSERT_TRUE(reader.GetU32(magic).ok());
    ASSERT_TRUE(reader.GetString(package).ok());
    ASSERT_TRUE(reader.GetSection(section).ok());  // hardware snapshot
    ASSERT_TRUE(reader.GetSection(section).ok());  // call log
    ASSERT_TRUE(reader.GetBool(compressed).ok());
    const size_t prefix = payload.size() - reader.remaining();
    ByteSpan container;
    ASSERT_TRUE(reader.GetBytesView(container).ok());
    ASSERT_TRUE(reader.AtEnd());
    auto image = LzDecompressChunks(container);  // a cold hop ships no refs
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    const Bytes foreign =
        LzCompressChunks(ByteSpan(image->data(), image->size()), 4096);
    // The transfer charges the payload outside the original chunk stream
    // as its prefix, so the re-encoded container must not shrink it.
    ASSERT_GE(foreign.size(), container.size());
    ArchiveWriter tail;
    tail.PutBytes(ByteSpan(foreign.data(), foreign.size()));
    payload.resize(prefix);
    payload.insert(payload.end(), tail.data().begin(), tail.data().end());
  };
  ChunkCache& guest_cache = tw.b_agent->chunk_cache();
  const size_t entries_before = guest_cache.entries();
  const ChunkCache::Stats before = guest_cache.stats();

  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
  EXPECT_NE(tw.b->kernel().FindProcess(hop->migrated.pid), nullptr);
  // Nothing was re-inserted at the foreign granularity.
  EXPECT_EQ(guest_cache.entries(), entries_before);
  EXPECT_EQ(guest_cache.stats().insertions, before.insertions);
  EXPECT_EQ(guest_cache.stats().refreshes, before.refreshes);
}

// The cache itself: budget-bounded LRU with verified reads.
TEST(ChunkCacheTest, LruEvictionVerificationAndBudget) {
  ChunkCache cache(/*budget_bytes=*/1024);
  Bytes chunk_a(400, 0x11);
  Bytes chunk_b(400, 0x22);
  Bytes chunk_c(400, 0x33);
  const Hash128 ha = FluxHash128(ByteSpan(chunk_a.data(), chunk_a.size()));
  const Hash128 hb = FluxHash128(ByteSpan(chunk_b.data(), chunk_b.size()));
  const Hash128 hc = FluxHash128(ByteSpan(chunk_c.data(), chunk_c.size()));

  cache.Insert(ha, ByteSpan(chunk_a.data(), chunk_a.size()));
  cache.Insert(hb, ByteSpan(chunk_b.data(), chunk_b.size()));
  EXPECT_TRUE(cache.HasValid(ha));  // bump A ahead of B
  cache.Insert(hc, ByteSpan(chunk_c.data(), chunk_c.size()));

  // 1200 bytes over a 1024 budget: B (least recent) was evicted.
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_FALSE(cache.HasValid(hb));
  EXPECT_TRUE(cache.HasValid(ha));
  EXPECT_TRUE(cache.HasValid(hc));
  EXPECT_EQ(cache.stats().evictions, 1u);

  // A poisoned entry fails verification once and is gone.
  ASSERT_TRUE(cache.PoisonForTest(ha));
  EXPECT_FALSE(cache.HasValid(ha));
  EXPECT_EQ(cache.stats().verify_failures, 1u);
  EXPECT_EQ(cache.entries(), 1u);

  // Fetch returns the exact bytes; an oversized insert is refused.
  Bytes out;
  EXPECT_TRUE(cache.Fetch(hc, out));
  EXPECT_EQ(out, chunk_c);
  Bytes huge(2048, 0x44);
  cache.Insert(FluxHash128(ByteSpan(huge.data(), huge.size())),
               ByteSpan(huge.data(), huge.size()));
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ChunkCacheTest, BatchProbeMatchesHasValidInOrder) {
  std::vector<Bytes> chunks;
  std::vector<Hash128> keys;
  for (uint8_t fill : {0x11, 0x22, 0x33, 0x44}) {
    chunks.emplace_back(400, fill);
    keys.push_back(FluxHash128(ByteSpan(chunks.back().data(), 400)));
  }
  const Bytes absent(400, 0x55);
  const Hash128 miss = FluxHash128(ByteSpan(absent.data(), absent.size()));
  // A hit, a miss, the poisoned entry twice, the hit repeated, another
  // hit. Applied in this order, the bumps leave keys[3] least recent, so it
  // is the next victim; any other order or a missing bump changes that or
  // the LRU order.
  const std::vector<Hash128> probes = {keys[0], miss,    keys[1],
                                       keys[1], keys[0], keys[2]};

  ThreadPool pool(4);
  for (ThreadPool* batch_pool : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(batch_pool != nullptr ? "4-thread pool" : "no pool");
    ChunkCache looped(/*budget_bytes=*/1700);
    ChunkCache batched(/*budget_bytes=*/1700);
    for (ChunkCache* cache : {&looped, &batched}) {
      for (size_t i = 0; i < chunks.size(); ++i) {
        cache->Insert(keys[i], ByteSpan(chunks[i].data(), chunks[i].size()));
      }
      ASSERT_TRUE(cache->PoisonForTest(keys[1]));
    }

    std::vector<uint8_t> looped_flags;
    for (const Hash128& hash : probes) {
      looped_flags.push_back(looped.HasValid(hash) ? 1 : 0);
    }
    const std::vector<uint8_t> batched_flags =
        batched.HasValidBatch(probes, batch_pool);
    EXPECT_EQ(looped_flags, (std::vector<uint8_t>{1, 0, 0, 0, 1, 1}));
    EXPECT_EQ(batched_flags, looped_flags);

    // Over-budget insert: each cache evicts its least recent entry.
    const Bytes big(600, 0x66);
    for (ChunkCache* cache : {&looped, &batched}) {
      const ChunkCache::Stats& stats = cache->stats();
      EXPECT_EQ(stats.hits, 3u);
      EXPECT_EQ(stats.misses, 2u);
      EXPECT_EQ(stats.verify_failures, 1u);
      EXPECT_EQ(cache->bytes(), 1200u);
      EXPECT_EQ(cache->Keys(),
                (std::vector<Hash128>{keys[2], keys[0], keys[3]}));
      cache->Insert(FluxHash128(ByteSpan(big.data(), big.size())),
                    ByteSpan(big.data(), big.size()));
      EXPECT_EQ(cache->stats().evictions, 1u);
    }
    EXPECT_EQ(batched.Keys(), looped.Keys());
    EXPECT_EQ(batched.bytes(), looped.bytes());
    const ChunkCache::Stats& a = looped.stats();
    const ChunkCache::Stats& b = batched.stats();
    EXPECT_EQ(b.insertions, a.insertions);
    EXPECT_EQ(b.refreshes, a.refreshes);
    EXPECT_EQ(b.hits, a.hits);
    EXPECT_EQ(b.misses, a.misses);
    EXPECT_EQ(b.verify_failures, a.verify_failures);
    EXPECT_EQ(b.evictions, a.evictions);
  }
}

// A chunk-by-chunk decode fetches each ref in chunk order and stops at its
// first failing chunk. Decoding on a pool, and inline, must leave the cache
// exactly as that Fetch loop does, and fail with the message the serial
// decoder gave.
TEST(ChunkCacheTest, PooledRefDecodeSettlesLikeAFetchLoop) {
  constexpr uint32_t kChunk = 64 * 1024;
  Bytes image;
  for (const auto& [seed, size, compressibility] :
       {std::tuple<uint64_t, uint64_t, double>{91, 4 * kChunk, 0.6},
        {93, 2 * kChunk, 0.0},
        {95, 3 * kChunk + 777, 0.7}}) {
    const Bytes part = GenerateContent(seed, size, compressibility);
    image.insert(image.end(), part.begin(), part.end());
  }
  const ByteSpan span(image.data(), image.size());
  LzChunkDedupPlan plan;
  plan.stored_fallback = true;
  plan.hashes = LzChunkHashes(span, kChunk);
  plan.ref_chunks.assign(plan.hashes.size(), 0);
  for (size_t i = 1; i < plan.ref_chunks.size(); i += 2) {
    plan.ref_chunks[i] = 1;  // refs at chunks 1, 3, 5, 7 and 9
  }
  const LzChunkStreams streams =
      LzCompressChunkStreamsDeduped(span, kChunk, nullptr, plan);
  ASSERT_EQ(streams.KindOf(2), LzChunkKind::kLz);
  ASSERT_EQ(streams.KindOf(4), LzChunkKind::kStored);
  ASSERT_EQ(streams.KindOf(5), LzChunkKind::kRef);
  const Bytes container = LzAssembleChunkContainer(streams);
  const std::vector<Hash128>& hashes = plan.hashes;

  struct Case {
    const char* name;
    size_t fail_chunk;
    // Breaks both caches the same way.
    std::function<void(ChunkCache&)> damage_cache;
    size_t corrupt_lz;  // kLz chunk whose first item becomes a bad match
    // Recorded from the serial decoder this one replaced.
    std::string message;
  };
  const Case cases[] = {
      {"poisoned ref", 5,
       [&](ChunkCache& cache) { ASSERT_TRUE(cache.PoisonForTest(hashes[5])); },
       0,
       "LzDecompressChunks: unresolvable ref chunk "
       "fa79b80b7d17833625619b85140b7103"},
      {"missing ref", 5,
       [&](ChunkCache& cache) { ASSERT_TRUE(cache.Remove(hashes[5])); }, 0,
       "LzDecompressChunks: unresolvable ref chunk "
       "fa79b80b7d17833625619b85140b7103"},
      {"corrupt kLz ahead of a ref", 2, [](ChunkCache&) {}, 2,
       "LzDecompress: bad match offset"},
  };

  ThreadPool pool(4);
  for (const Case& c : cases) {
    for (ThreadPool* decode_pool :
         {&pool, static_cast<ThreadPool*>(nullptr)}) {
      SCOPED_TRACE(std::string(c.name) +
                   (decode_pool != nullptr ? ", 4-thread pool" : ", no pool"));
      FlightRecorder decode_events(nullptr);
      FlightRecorder loop_events(nullptr);
      ChunkCache decoded(/*budget_bytes=*/16 * kChunk);
      ChunkCache looped(/*budget_bytes=*/16 * kChunk);
      decoded.set_flight_recorder(&decode_events);
      looped.set_flight_recorder(&loop_events);
      for (ChunkCache* cache : {&decoded, &looped}) {
        for (size_t i = hashes.size(); i-- > 0;) {
          const uint64_t begin = uint64_t{i} * kChunk;
          cache->Insert(hashes[i],
                        span.subspan(begin, std::min<uint64_t>(
                                                kChunk, span.size() - begin)));
        }
        c.damage_cache(*cache);
      }
      Bytes damaged = container;
      if (c.corrupt_lz != 0) {
        size_t offset = streams.HeaderBytes();
        for (size_t k = 0; k < c.corrupt_lz; ++k) {
          offset += streams.ChunkWireBytes(k);
        }
        damaged[offset + 4 + 12] = 0x01;  // first flag byte of its stream
      }

      ChunkCacheRefSource refs(decoded);
      auto raw = LzDecompressChunks(ByteSpan(damaged.data(), damaged.size()),
                                    &refs, nullptr, decode_pool);
      ASSERT_FALSE(raw.ok());
      EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
      EXPECT_EQ(raw.status().message(), c.message);

      for (size_t i = 0; i <= c.fail_chunk; ++i) {
        if (plan.ref_chunks[i] != 0) {
          Bytes out;
          looped.Fetch(hashes[i], out);
        }
      }
      const ChunkCache::Stats& a = looped.stats();
      const ChunkCache::Stats& b = decoded.stats();
      EXPECT_EQ(b.insertions, a.insertions);
      EXPECT_EQ(b.refreshes, a.refreshes);
      EXPECT_EQ(b.hits, a.hits);
      EXPECT_EQ(b.misses, a.misses);
      EXPECT_EQ(b.verify_failures, a.verify_failures);
      EXPECT_EQ(b.evictions, a.evictions);
      EXPECT_EQ(decoded.Keys(), looped.Keys());
      EXPECT_EQ(decoded.bytes(), looped.bytes());
      const std::vector<FlightEventView> want = loop_events.Snapshot();
      const std::vector<FlightEventView> got = decode_events.Snapshot();
      ASSERT_EQ(got.size(), want.size());
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].subsystem, want[k].subsystem);
        EXPECT_EQ(got[k].name, want[k].name);
        EXPECT_EQ(got[k].arg0, want[k].arg0);
        EXPECT_EQ(got[k].arg1, want[k].arg1);
      }
    }
  }
}

// The list+map cache the slot array replaced, as a reference model: a list
// in LRU order (front = most recent) searched linearly. It keeps what the
// cache must keep observable: stats, bytes, entries, key order, and one
// verify-failure event (content bytes, entries before the drop) per drop.
class ReferenceCache {
 public:
  explicit ReferenceCache(uint64_t budget) : budget_(budget) {}

  void Insert(const Hash128& hash, const Bytes& content) {
    auto it = Find(hash);
    if (it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      if (it->second != content) {
        bytes_ -= it->second.size();
        it->second = content;
        bytes_ += content.size();
      }
      ++stats_.refreshes;
      EvictToBudget();
      return;
    }
    if (content.size() > budget_) {
      return;
    }
    lru_.emplace_front(hash, content);
    bytes_ += content.size();
    ++stats_.insertions;
    EvictToBudget();
  }

  bool HasValid(const Hash128& hash) {
    auto it = Find(hash);
    if (it == lru_.end()) {
      ++stats_.misses;
      return false;
    }
    if (FluxHash128(ByteSpan(it->second.data(), it->second.size())) !=
        hash) {
      ++stats_.verify_failures;
      events_.emplace_back(it->second.size(), lru_.size());
      Erase(it);
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it);
    ++stats_.hits;
    return true;
  }

  bool Fetch(const Hash128& hash, Bytes& out) {
    if (!HasValid(hash)) {
      return false;
    }
    out = lru_.front().second;
    return true;
  }

  bool Remove(const Hash128& hash) {
    auto it = Find(hash);
    if (it == lru_.end()) {
      return false;
    }
    Erase(it);
    return true;
  }

  bool Poison(const Hash128& hash) {
    auto it = Find(hash);
    if (it == lru_.end() || it->second.empty()) {
      return false;
    }
    it->second[0] ^= 0x01;
    return true;
  }

  void Clear() {
    lru_.clear();
    bytes_ = 0;
  }

  void set_budget_bytes(uint64_t budget) {
    budget_ = budget;
    EvictToBudget();
  }

  std::vector<Hash128> Keys() const {
    std::vector<Hash128> keys;
    for (const auto& [hash, content] : lru_) {
      keys.push_back(hash);
    }
    return keys;
  }

  const ChunkCache::Stats& stats() const { return stats_; }
  uint64_t bytes() const { return bytes_; }
  size_t entries() const { return lru_.size(); }
  const std::vector<std::pair<uint64_t, uint64_t>>& events() const {
    return events_;
  }

 private:
  using Lru = std::list<std::pair<Hash128, Bytes>>;

  Lru::iterator Find(const Hash128& hash) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == hash) {
        return it;
      }
    }
    return lru_.end();
  }

  void Erase(Lru::iterator it) {
    bytes_ -= it->second.size();
    lru_.erase(it);
  }

  void EvictToBudget() {
    while (bytes_ > budget_ && !lru_.empty()) {
      bytes_ -= lru_.back().second.size();
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  uint64_t budget_;
  uint64_t bytes_ = 0;
  Lru lru_;
  ChunkCache::Stats stats_;
  std::vector<std::pair<uint64_t, uint64_t>> events_;
};

// A content whose key homes at `home` in every index of up to 1024
// positions (the index places a key at Hash128Hasher's low bits): keys
// that home at the last position make probe chains wrap the table end.
Bytes ContentHomedAt(Rng& rng, size_t size, size_t home) {
  Bytes content(size);
  while (true) {
    for (uint8_t& byte : content) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
    const Hash128 key = FluxHash128(ByteSpan(content.data(), content.size()));
    if ((Hash128Hasher{}(key) & 1023) == home) {
      return content;
    }
  }
}

// A seeded sequence of every cache operation against the reference model.
// Inline (<= 24 bytes) and heap contents mix; a third of the keys home at
// the index's last, first or second position, so chains wrap the table end
// and drops land inside chains (backward-shift deletion).
TEST(ChunkCacheTest, MatchesTheListAndMapModel) {
  Rng rng(0xcac4e);
  std::vector<Bytes> contents;
  for (int i = 0; i < 48; ++i) {
    const size_t size = i == 0 ? 0
                        : i % 2 != 0 ? 1 + rng.NextBelow(30)
                                     : 25 + rng.NextBelow(300);
    if (i % 3 == 0 && size >= 4) {
      constexpr size_t kHomes[] = {1023, 0, 1};
      contents.push_back(ContentHomedAt(rng, size, kHomes[(i / 3) % 3]));
      continue;
    }
    Bytes content(size);
    for (uint8_t& byte : content) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
    contents.push_back(std::move(content));
  }
  std::vector<Hash128> keys;
  for (const Bytes& content : contents) {
    keys.push_back(FluxHash128(ByteSpan(content.data(), content.size())));
  }
  auto span = [](const Bytes& bytes) {
    return ByteSpan(bytes.data(), bytes.size());
  };

  constexpr uint64_t kBudget = 2000;
  FlightRecorder events(nullptr, 4096);
  events.set_enabled(true);
  ChunkCache cache(kBudget);
  cache.set_flight_recorder(&events);
  ReferenceCache model(kBudget);
  ThreadPool pool(4);
  for (int step = 0; step < 4000; ++step) {
    const size_t k = rng.NextBelow(keys.size());
    const uint64_t op = rng.NextBelow(100);
    std::string what;
    if (op < 30) {
      what = "insert";
      cache.Insert(keys[k], span(contents[k]));
      model.Insert(keys[k], contents[k]);
    } else if (op < 35) {
      what = "insert changed content";
      const Bytes& other = contents[rng.NextBelow(contents.size())];
      cache.Insert(keys[k], span(other));
      model.Insert(keys[k], other);
    } else if (op < 37) {
      what = "insert over budget";
      const Bytes huge(kBudget + 1 + rng.NextBelow(64), 0x5a);
      const Hash128 key =
          rng.NextBelow(2) == 0 ? keys[k] : FluxHash128(span(huge));
      cache.Insert(key, span(huge));
      model.Insert(key, huge);
    } else if (op < 55) {
      what = "has valid";
      EXPECT_EQ(cache.HasValid(keys[k]), model.HasValid(keys[k]));
    } else if (op < 67) {
      what = "has valid batch";
      std::vector<Hash128> probes;
      for (uint64_t n = 1 + rng.NextBelow(8); n > 0; --n) {
        probes.push_back(keys[rng.NextBelow(keys.size())]);
      }
      probes.push_back(probes.front());  // a key listed twice
      std::vector<uint8_t> want;
      for (const Hash128& key : probes) {
        want.push_back(model.HasValid(key) ? 1 : 0);
      }
      EXPECT_EQ(cache.HasValidBatch(probes, step % 2 == 0 ? &pool : nullptr),
                want);
    } else if (op < 77) {
      what = "fetch";
      Bytes got;
      Bytes want;
      const bool hit = cache.Fetch(keys[k], got);
      EXPECT_EQ(hit, model.Fetch(keys[k], want));
      if (hit) {
        EXPECT_EQ(got, want);
      }
    } else if (op < 87) {
      what = "remove";
      EXPECT_EQ(cache.Remove(keys[k]), model.Remove(keys[k]));
    } else if (op < 95) {
      what = "poison";
      EXPECT_EQ(cache.PoisonForTest(keys[k]), model.Poison(keys[k]));
    } else if (op < 99) {
      what = "budget change";
      const uint64_t budget = 200 + rng.NextBelow(kBudget);
      cache.set_budget_bytes(budget);
      model.set_budget_bytes(budget);
    } else {
      what = "clear";
      cache.Clear();
      model.Clear();
    }
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    const ChunkCache::Stats& got = cache.stats();
    const ChunkCache::Stats& want = model.stats();
    ASSERT_EQ(got.insertions, want.insertions);
    ASSERT_EQ(got.refreshes, want.refreshes);
    ASSERT_EQ(got.hits, want.hits);
    ASSERT_EQ(got.misses, want.misses);
    ASSERT_EQ(got.verify_failures, want.verify_failures);
    ASSERT_EQ(got.evictions, want.evictions);
    ASSERT_EQ(cache.bytes(), model.bytes());
    ASSERT_EQ(cache.entries(), model.entries());
    ASSERT_EQ(cache.Keys(), model.Keys());
  }
  const ChunkCache::Stats& stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.verify_failures, 0u);
  EXPECT_GT(stats.refreshes, 0u);
#if FLUX_TRACE_ENABLED
  const std::vector<FlightEventView> got = events.Snapshot();
  ASSERT_EQ(got.size(), model.events().size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].subsystem, flight_events::kSubCache);
    EXPECT_EQ(got[i].name, flight_events::kCacheVerifyFailure);
    EXPECT_EQ(got[i].arg0, model.events()[i].first) << "event " << i;
    EXPECT_EQ(got[i].arg1, model.events()[i].second) << "event " << i;
  }
#endif  // FLUX_TRACE_ENABLED
}

// VerifyBatch's views stay valid until the next call that modifies the
// cache, for content inside the slot array and on the heap alike: calls
// that only read leave them intact, and SettleBatch settles from them as a
// HasValid loop would.
TEST(ChunkCacheTest, VerifyBatchViewsLastUntilTheNextModifyingCall) {
  const std::vector<Bytes> contents = {Bytes(3, 0x11), Bytes(24, 0x22),
                                       Bytes(25, 0x33), Bytes(4096, 0x44)};
  std::vector<Hash128> keys;
  ChunkCache cache(/*budget_bytes=*/1 << 20);
  for (const Bytes& content : contents) {
    keys.push_back(FluxHash128(ByteSpan(content.data(), content.size())));
    cache.Insert(keys.back(), ByteSpan(content.data(), content.size()));
  }
  ASSERT_TRUE(cache.PoisonForTest(keys[1]));
  ThreadPool pool(4);
  const std::vector<std::optional<ByteSpan>> views =
      cache.VerifyBatch(keys, &pool);
  ASSERT_EQ(views.size(), keys.size());

  // Reads in between: keys, stats, a second verify.
  EXPECT_EQ(cache.Keys().size(), keys.size());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.VerifyBatch(keys, nullptr).size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    if (i == 1) {
      EXPECT_FALSE(views[i].has_value());  // poisoned
      continue;
    }
    ASSERT_TRUE(views[i].has_value());
    EXPECT_EQ(Bytes(views[i]->begin(), views[i]->end()), contents[i]);
  }

  EXPECT_EQ(cache.SettleBatch(keys, views),
            (std::vector<uint8_t>{1, 0, 1, 1}));
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().verify_failures, 1u);
  EXPECT_EQ(cache.Keys(), (std::vector<Hash128>{keys[3], keys[2], keys[0]}));
}

}  // namespace
}  // namespace flux
