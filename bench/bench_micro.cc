// Microbenchmarks (google-benchmark): real wall-clock cost of the hot
// paths — Binder transactions with and without the Flux record engine
// interposed (the implementation-level version of Figure 16's claim),
// parcel marshalling, synthetic content generation, the LZ codec,
// FluxHash128, the chunk cache's verified probes and ref resolution, the
// fleet's small-entry caches, and CRIA checkpoint/restore throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_instance.h"
#include "src/base/compress.h"
#include "src/base/synthetic_content.h"
#include "src/base/thread_pool.h"
#include "src/cria/cria.h"
#include "src/device/world.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/flux_agent.h"
#include "src/flux/pairing.h"

namespace flux {
namespace {

// Shared fixture state: a booted device with an app process.
struct BinderFixtureState {
  BinderFixtureState() {
    BootOptions boot;
    boot.framework_scale = 0.002;
    device = world.AddDevice("dut", Nexus4Profile(), boot).value();
    app = &device->CreateAppProcess("com.bench", 10900);
    audio_handle = device->service_manager()
                       .GetServiceHandle(app->pid(), "audio")
                       .value();
  }
  World world;
  Device* device = nullptr;
  SimProcess* app = nullptr;
  uint64_t audio_handle = 0;
};

void BM_BinderTransact(benchmark::State& state) {
  BinderFixtureState fixture;
  for (auto _ : state) {
    Parcel args;
    args.WriteI32(kStreamMusic);
    auto reply = fixture.device->binder().Transact(
        fixture.app->pid(), fixture.audio_handle, "getStreamVolume",
        std::move(args));
    benchmark::DoNotOptimize(reply);
  }
}
BENCHMARK(BM_BinderTransact);

void BM_BinderTransactRecorded(benchmark::State& state) {
  BinderFixtureState fixture;
  FluxAgent agent(*fixture.device);
  agent.Manage(fixture.app->pid(), "com.bench");
  int32_t index = 0;
  for (auto _ : state) {
    Parcel args;
    args.WriteNamed("streamType", kStreamMusic);
    args.WriteNamed("index", index++ % 15);
    args.WriteNamed("flags", static_cast<int32_t>(0));
    auto reply = fixture.device->binder().Transact(
        fixture.app->pid(), fixture.audio_handle, "setStreamVolume",
        std::move(args));
    benchmark::DoNotOptimize(reply);
  }
  state.counters["log_entries"] = static_cast<double>(
      agent.recorder().LogFor(fixture.app->pid())->size());
}
BENCHMARK(BM_BinderTransactRecorded);

void BM_ParcelRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Parcel parcel;
    parcel.WriteNamed("id", static_cast<int32_t>(42));
    parcel.WriteNamed("text", std::string("notification content"));
    parcel.WriteI64(123456789);
    ArchiveWriter writer;
    parcel.Serialize(writer);
    ArchiveReader reader(
        ByteSpan(writer.data().data(), writer.data().size()));
    auto copy = Parcel::Deserialize(reader);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ParcelRoundTrip);

void BM_GenerateContent(benchmark::State& state) {
  // World set-up's content generator over 16 MiB. Arg = compressibility in
  // percent: 25 is the APK's mix, 60 the app data files'.
  const double compressibility = static_cast<double>(state.range(0)) / 100;
  for (auto _ : state) {
    Bytes content = GenerateContent(11, 16 << 20, compressibility);
    benchmark::DoNotOptimize(content);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (16 << 20));
}
BENCHMARK(BM_GenerateContent)->Arg(25)->Arg(60);

void BM_LzCompress(benchmark::State& state) {
  const Bytes input = GenerateContent(7, static_cast<uint64_t>(state.range(0)),
                                      0.55);
  for (auto _ : state) {
    Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzCompress)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

void BM_LzCompressedSize(benchmark::State& state) {
  // Pairing's sync size count over 16 MiB at the APK mix. Arg = pool width
  // (0: inline); the pooled count is stitched to equal the inline one.
  const Bytes input = GenerateContent(25, 16 << 20, 0.25);
  ThreadPool pool(static_cast<int>(state.range(0)));
  ThreadPool* runner = state.range(0) > 0 ? &pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LzCompressedSize(ByteSpan(input.data(), input.size()), runner));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_LzCompressedSize)->Arg(0)->Arg(4)->UseRealTime();

void BM_LzDecompress(benchmark::State& state) {
  const Bytes input = GenerateContent(9, static_cast<uint64_t>(state.range(0)),
                                      0.55);
  const Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  for (auto _ : state) {
    auto raw = LzDecompress(ByteSpan(compressed.data(), compressed.size()));
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzDecompress)->Arg(1 << 20)->Arg(8 << 20);

void BM_LzCompressIncompressible(benchmark::State& state) {
  // compressibility 0.0: no matches survive, so this is a pure measure of
  // the literal emission path (batched runs, not per-byte pushes).
  const Bytes input = GenerateContent(11, static_cast<uint64_t>(state.range(0)),
                                      0.0);
  for (auto _ : state) {
    Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzCompressIncompressible)->Arg(1 << 20)->Arg(8 << 20);

void BM_LzCompressChunksParallel(benchmark::State& state) {
  // Chunked compression across a host thread pool: wall-clock scaling of
  // the pipelined migration's compress stage. Arg = thread count.
  const Bytes input = GenerateContent(13, 16 << 20, 0.55);
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Bytes container = LzCompressChunks(ByteSpan(input.data(), input.size()),
                                       256 << 10, &pool);
    benchmark::DoNotOptimize(container);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_LzCompressChunksParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_LzDecompressChunks(benchmark::State& state) {
  const Bytes input = GenerateContent(15, static_cast<uint64_t>(state.range(0)),
                                      0.55);
  ThreadPool pool(4);
  const Bytes container =
      LzCompressChunks(ByteSpan(input.data(), input.size()), 256 << 10, &pool);
  for (auto _ : state) {
    auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()));
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzDecompressChunks)->Arg(8 << 20);

void BM_FluxHash128(benchmark::State& state) {
  const Bytes input = GenerateContent(17, static_cast<uint64_t>(state.range(0)),
                                      0.55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FluxHash128(ByteSpan(input.data(), input.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FluxHash128)->Arg(256 << 10);

void BM_LzChunkHashes(benchmark::State& state) {
  // A 16 MiB image's 256 KiB chunk keys. Arg = pool width (0: inline).
  const Bytes input = GenerateContent(19, 16 << 20, 0.55);
  ThreadPool pool(static_cast<int>(state.range(0)));
  ThreadPool* runner = state.range(0) > 0 ? &pool : nullptr;
  for (auto _ : state) {
    auto hashes = LzChunkHashes(ByteSpan(input.data(), input.size()),
                                256 << 10, runner);
    benchmark::DoNotOptimize(hashes);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_LzChunkHashes)->Arg(0)->Arg(4)->UseRealTime();

void BM_ChunkCacheBatchProbe(benchmark::State& state) {
  // A manifest probe over 64 cached 256 KiB chunks, every one a verified
  // hit. Arg 0: a HasValid loop; otherwise HasValidBatch on a pool of
  // that width.
  constexpr uint64_t kChunk = 256 << 10;
  const Bytes image = GenerateContent(21, 64 * kChunk, 0.55);
  const std::vector<Hash128> hashes =
      LzChunkHashes(ByteSpan(image.data(), image.size()), kChunk);
  ChunkCache cache(image.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    cache.Insert(hashes[i], ByteSpan(image.data() + i * kChunk, kChunk));
  }
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (const Hash128& hash : hashes) {
        benchmark::DoNotOptimize(cache.HasValid(hash));
      }
    } else {
      auto valid = cache.HasValidBatch(hashes, &pool);
      benchmark::DoNotOptimize(valid);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_ChunkCacheBatchProbe)->Arg(0)->Arg(4)->UseRealTime();

void BM_LzDecompressChunksRefs(benchmark::State& state) {
  // A 16 MiB image shipped as 256 KiB refs only, the guest's warm return
  // hop: every ref resolves from a ChunkCache, which re-verifies the entry,
  // and the decoder copies it and checks it against the ref. Arg 0 decodes
  // inline; otherwise on a pool of that width.
  constexpr uint64_t kChunk = 256 << 10;
  const Bytes image = GenerateContent(23, 16 << 20, 0.55);
  const ByteSpan span(image.data(), image.size());
  LzChunkDedupPlan plan;
  plan.hashes = LzChunkHashes(span, kChunk);
  plan.ref_chunks.assign(plan.hashes.size(), 1);
  const Bytes container = LzAssembleChunkContainer(
      LzCompressChunkStreamsDeduped(span, kChunk, nullptr, plan));
  ChunkCache cache(image.size());
  for (size_t i = 0; i < plan.hashes.size(); ++i) {
    cache.Insert(plan.hashes[i], span.subspan(i * kChunk, kChunk));
  }
  ThreadPool pool(static_cast<int>(state.range(0)));
  ThreadPool* runner = state.range(0) > 0 ? &pool : nullptr;
  for (auto _ : state) {
    ChunkCacheRefSource refs(cache);
    auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()),
                                  &refs, nullptr, runner);
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_LzDecompressChunksRefs)->Arg(0)->Arg(4)->UseRealTime();

void BM_ChunkCacheSmallEntries(benchmark::State& state) {
  // The fleet coordinator's shape (DESIGN.md §11): one cache per modeled
  // device, each holding about 45 seed entries of about 12 bytes. One
  // iteration builds 1,000 such caches, inserts their entries, probes each
  // entry twice (placement, then the cut) and destroys the caches. The
  // destruction is timed whole: freeing many small blocks costs wherever
  // the allocator happens to pay it.
  constexpr size_t kCaches = 1000;
  constexpr size_t kEntries = 45;
  std::vector<std::string> seeds;
  std::vector<Hash128> keys;
  for (size_t c = 0; c < kCaches; ++c) {
    for (size_t e = 0; e < kEntries; ++e) {
      seeds.push_back("app" + std::to_string(c) + "/" + std::to_string(e) +
                      "/" + std::to_string(e % 3));
      keys.push_back(FluxHash128(
          ByteSpan(reinterpret_cast<const uint8_t*>(seeds.back().data()),
                   seeds.back().size())));
    }
  }
  for (auto _ : state) {
    std::vector<std::unique_ptr<ChunkCache>> caches;
    caches.reserve(kCaches);
    for (size_t c = 0; c < kCaches; ++c) {
      caches.push_back(std::make_unique<ChunkCache>(256 * 1024));
      for (size_t i = c * kEntries; i < (c + 1) * kEntries; ++i) {
        caches.back()->Insert(
            keys[i], ByteSpan(reinterpret_cast<const uint8_t*>(seeds[i].data()),
                              seeds[i].size()));
      }
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < keys.size(); ++i) {
        benchmark::DoNotOptimize(caches[i / kEntries]->HasValid(keys[i]));
      }
    }
    caches.clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_ChunkCacheSmallEntries);

// A launched app with a `heap_bytes` heap, its graphics state shed so a
// checkpoint is legal.
struct PreparedAppFixture {
  explicit PreparedAppFixture(uint64_t heap_bytes) {
    BootOptions boot;
    boot.framework_scale = 0.002;
    device = world.AddDevice("dut", Nexus4Profile(), boot).value();
    AppSpec spec = *FindApp("eBay");
    spec.heap_bytes = heap_bytes;
    app = std::make_unique<AppInstance>(*device, spec);
    (void)app->Launch();
    (void)device->activity_manager().MoveAppToBackground(app->pid());
    world.AdvanceTime(Seconds(2));
    (void)device->activity_manager().RequestTrimMemory(app->pid(),
                                                       kTrimMemoryComplete);
    (void)device->egl().EglUnload(app->pid());
  }
  World world;
  Device* device = nullptr;
  std::unique_ptr<AppInstance> app;
};

void BM_CriaCheckpoint(benchmark::State& state) {
  PreparedAppFixture fixture(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto checkpoint = Cria::Checkpoint(*fixture.device, fixture.app->pid(),
                                       fixture.app->thread());
    benchmark::DoNotOptimize(checkpoint);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CriaCheckpoint)->Arg(1 << 20)->Arg(16 << 20);

void BM_RecordPruning(benchmark::State& state) {
  // Steady-state log pruning: enqueue/cancel churn at a bounded log size.
  BinderFixtureState fixture;
  FluxAgent agent(*fixture.device);
  agent.Manage(fixture.app->pid(), "com.bench");
  const uint64_t notification_handle =
      fixture.device->service_manager()
          .GetServiceHandle(fixture.app->pid(), "notification")
          .value();
  int32_t id = 0;
  for (auto _ : state) {
    Parcel post;
    post.WriteNamed("id", id);
    post.WriteNamed("notification", std::string("x"));
    (void)fixture.device->binder().Transact(fixture.app->pid(),
                                            notification_handle,
                                            "enqueueNotification",
                                            std::move(post));
    Parcel cancel;
    cancel.WriteNamed("id", id);
    (void)fixture.device->binder().Transact(fixture.app->pid(),
                                            notification_handle,
                                            "cancelNotification",
                                            std::move(cancel));
    id = (id + 1) % 64;
  }
  state.counters["final_log"] = static_cast<double>(
      agent.recorder().LogFor(fixture.app->pid())->size());
}
BENCHMARK(BM_RecordPruning);

}  // namespace
}  // namespace flux

BENCHMARK_MAIN();
