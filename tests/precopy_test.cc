// Iterative pre-copy (DESIGN.md §10): dirty-segment tracking in the address
// space, the pinned bytes of the full CRIA image every round cuts, the
// converging warm-up rounds in MigrationManager and the cuts they take (a
// converged hop ships its probe round's cut; a streaming exit cuts afresh)
// and the frame codec the rounds run on a shaped link — plus the two
// failure paths that must stay safe: a write racing the final
// stop-and-copy cut (re-cut, never silently dropped) and a poisoned guest
// chunk cache (full chunks re-ship, restore stays byte-exact).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_instance.h"
#include "src/base/hash.h"
#include "src/cria/cria.h"
#include "src/device/world.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/flight_recorder.h"
#include "src/flux/flux_agent.h"
#include "src/flux/migration.h"
#include "src/flux/pairing.h"
#include "src/flux/trace.h"
#include "src/kernel/address_space.h"

namespace flux {
namespace {

// ----- dirty-segment tracking (src/kernel/address_space.*) -----

TEST(AddressSpaceDirtyTrackingTest, EpochsWritesAndTouch) {
  AddressSpace as;
  MemorySegment seg;
  seg.name = "heap";
  seg.kind = SegmentKind::kAnonPrivate;
  seg.content = Bytes(8192, 0xAB);
  const uint64_t start = as.Map(std::move(seg));

  // A freshly mapped segment is dirty relative to the never-begun epoch 0.
  EXPECT_EQ(as.DirtyBytesSince(0), 8192u);

  const uint64_t e1 = as.BeginEpoch();
  EXPECT_EQ(as.DirtyBytesSince(e1), 0u);
  EXPECT_EQ(as.DirtySegmentsSince(e1), 0);

  Bytes data(16, 0x01);
  ASSERT_TRUE(as.Write(start, 100, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(as.DirtyBytesSince(e1), 8192u);
  EXPECT_EQ(as.DirtySegmentsSince(e1), 1);

  // Epochs stay independently live: a newer epoch starts clean while the
  // older one still sees the earlier write.
  const uint64_t e2 = as.BeginEpoch();
  EXPECT_EQ(as.DirtyBytesSince(e2), 0u);
  EXPECT_EQ(as.DirtyBytesSince(e1), 8192u);

  // Touch dirties without changing content.
  ASSERT_TRUE(as.Touch(start).ok());
  EXPECT_EQ(as.DirtyBytesSince(e2), 8192u);

  // Writes must land inside the existing content.
  EXPECT_FALSE(as.Write(start, 8192 - 8, ByteSpan(data.data(), data.size()))
                   .ok());
  EXPECT_FALSE(as.Write(start + 1, 0, ByteSpan(data.data(), data.size()))
                   .ok());

  // Non-checkpointed segments never count toward the dirty set.
  MemorySegment ro;
  ro.name = "/system/lib/x.so";
  ro.kind = SegmentKind::kFileBackedRo;
  ro.mapped_size = 4096;
  ro.backing_path = "/system/lib/x.so";
  as.Map(std::move(ro));
  EXPECT_EQ(as.DirtyBytesSince(e2), 8192u);

  // AlignGeneration raises a lagging space to the tree's generation and
  // never lowers it.
  AddressSpace other;
  other.AlignGeneration(as.generation());
  EXPECT_EQ(other.generation(), as.generation());
  other.AlignGeneration(1);
  EXPECT_EQ(other.generation(), as.generation());
}

// ----- the CRIA image a pre-copy round cuts -----

class PrecopyCriaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BootOptions boot;
    boot.framework_scale = 0.002;
    home_ = world_.AddDevice("home", Nexus4Profile(), boot).value();
    guest_ = world_.AddDevice("guest", Nexus7_2013Profile(), boot).value();
    home_agent_ = std::make_unique<FluxAgent>(*home_);
    guest_agent_ = std::make_unique<FluxAgent>(*guest_);
    ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());

    AppSpec spec = *FindApp("eBay");
    spec.heap_bytes = 256 * 1024;  // keep tests quick
    app_ = std::make_unique<AppInstance>(*home_, spec);
    ASSERT_TRUE(app_->Install().ok());
    ASSERT_TRUE(PairApp(*home_agent_, *guest_agent_, spec).ok());
    ASSERT_TRUE(app_->Launch().ok());
  }

  // Runs the full preparation phase so a checkpoint is legal.
  void PrepareApp() {
    ASSERT_TRUE(
        home_->activity_manager().MoveAppToBackground(app_->pid()).ok());
    world_.AdvanceTime(Seconds(2));
    ASSERT_TRUE(home_->activity_manager()
                    .RequestTrimMemory(app_->pid(), kTrimMemoryComplete)
                    .ok());
    ASSERT_TRUE(home_->egl().EglUnload(app_->pid()).ok());
  }

  AddressSpace& Space() {
    return home_->kernel().FindProcess(app_->pid())->address_space();
  }

  // Dirties `bytes` heap bytes at `offset` with the given fill.
  void DirtyHeap(uint64_t offset, size_t bytes, uint8_t fill) {
    AddressSpace& as = Space();
    MemorySegment* heap = as.FindByName("dalvik-heap");
    ASSERT_NE(heap, nullptr);
    Bytes patch(bytes, fill);
    ASSERT_TRUE(
        as.Write(heap->start, offset, ByteSpan(patch.data(), patch.size()))
            .ok());
  }

  World world_;
  Device* home_ = nullptr;
  Device* guest_ = nullptr;
  std::unique_ptr<FluxAgent> home_agent_;
  std::unique_ptr<FluxAgent> guest_agent_;
  std::unique_ptr<AppInstance> app_;
};

// The image bytes are a format, not an implementation detail: the guest
// cache is keyed by their chunk hashes and the goldens by their sizes. A
// rework of the CRIA writer that moves these digests changes the format.
// The second cut, after a heap write, is a later pre-copy round's image;
// its digest is the one the removed delta patch produced for that round.
TEST_F(PrecopyCriaTest, ImageBytesArePinned) {
  PrepareApp();
  const std::vector<Pid> pids = {app_->pid()};
  auto digest = [](const Bytes& bytes) {
    return FluxHash128(ByteSpan(bytes.data(), bytes.size())).ToHex();
  };
  auto base = Cria::CheckpointTree(*home_, pids, app_->thread());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->image.size(), 329742u);
  EXPECT_EQ(digest(base->image), "144fd8079a60f5aea72afc257ba79d07");

  DirtyHeap(8192, 4096, 0xE7);
  world_.clock().Advance(Millis(50));
  auto round = Cria::CheckpointTree(*home_, pids, app_->thread());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->image.size(), base->image.size());
  EXPECT_EQ(digest(round->image), "902b9086cfa9d5d39882a9c34860964e");
}

// ----- end-to-end pre-copy migrations -----

// Two paired devices wired for hops in both directions, with one managed
// app that starts on device A (same shape as dedup_migration_test).
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

MigrationConfig PrecopyConfig() {
  MigrationConfig config;
  config.precopy = true;
  return config;
}

#if FLUX_TRACE_ENABLED
// The CRIA cuts one hop took, counted twice: the cria.checkpoints counter
// of the hop's tracer, and the home recorder's cria.checkpoint flight
// events stamped with the hop's trace context.
struct HopCuts {
  uint64_t counted = 0;
  size_t events = 0;
};

HopCuts CountCuts(Tracer& tracer, const Device& home,
                  const MigrationReport& report) {
  HopCuts cuts;
  cuts.counted = tracer.counter(trace_names::kCriaCheckpoints)->value();
  for (const FlightEventView& event : home.flight_recorder().Snapshot()) {
    if (event.name == flight_events::kCriaCheckpoint &&
        event.ctx == report.trace_context) {
      ++cuts.events;
    }
  }
  return cuts;
}
#endif  // FLUX_TRACE_ENABLED

TEST(PrecopyMigrationTest, ColdHopConvergesAndShrinksPerceivedTime) {
  // Control: the same hop with the plain pipelined+dedup configuration.
  RoundTripWorld control;
  control.Boot("Candy Crush Saga");
  MigrationConfig pipelined;
  pipelined.pipelined = true;
  pipelined.chunk_dedup = true;
  auto cold = control.Hop(*control.a_agent, *control.b_agent, pipelined);
  ASSERT_TRUE(cold.ok() && cold->success);
  EXPECT_FALSE(cold->precopy.enabled);
  EXPECT_TRUE(cold->precopy.rounds.empty());

  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  Tracer tracer(&tw.a->clock());
  MigrationConfig config = PrecopyConfig();
  config.trace = &tracer;
  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;

  // The warm-up ran, converged, and the restore stayed byte-exact.
  EXPECT_TRUE(hop->precopy.enabled);
  EXPECT_TRUE(hop->precopy.converged);
  EXPECT_GE(hop->precopy.rounds.size(), 1u);
  EXPECT_GT(hop->precopy.wire_bytes, 0u);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
  // No hook, and the write load stops before the freeze: the first final
  // cut is clean.
  EXPECT_EQ(hop->precopy.final_recuts, 0);
#if FLUX_TRACE_ENABLED
  // One cut per round: the converging round's cut is the stop-and-copy
  // image, so the freeze takes no cut of its own.
  const HopCuts cuts = CountCuts(tracer, *tw.a, *hop);
  EXPECT_EQ(cuts.counted, hop->precopy.rounds.size());
  if (tw.a->flight_recorder().enabled()) {
    EXPECT_EQ(cuts.events, hop->precopy.rounds.size());
  }
#endif
  // The stop-and-copy payload rode the warmed cache as refs.
  EXPECT_GT(hop->dedup.ref_chunks, 0u);

  // The headline: perceived time collapses under the 1 s target while the
  // pipelined control sits in the multi-second range.
  EXPECT_LT(ToSecondsF(hop->UserPerceived()),
            ToSecondsF(cold->UserPerceived()));
  EXPECT_LT(ToSecondsF(hop->UserPerceived()), 1.0);

  // The app is live on the guest.
  EXPECT_NE(tw.b->kernel().FindProcess(hop->migrated.pid), nullptr);
}

TEST(PrecopyMigrationTest, WriteRacingFinalCutTriggersRecutNotDrop) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");

  Device* home = tw.a;
  const Pid pid = tw.running.pid;
  const Bytes marker(4096, 0x5A);
  MigrationConfig config = PrecopyConfig();
  // Models a write racing the freeze: fires once, right after the final
  // stop-and-copy payload is cut.
  config.precopy_after_final_cut = [home, pid, &marker] {
    SimProcess* process = home->kernel().FindProcess(pid);
    ASSERT_NE(process, nullptr);
    AddressSpace& as = process->address_space();
    MemorySegment* heap = as.FindByName("dalvik-heap");
    ASSERT_NE(heap, nullptr);
    ASSERT_TRUE(
        as.Write(heap->start, 0, ByteSpan(marker.data(), marker.size()))
            .ok());
  };

  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;

  // The racing write forced at least one re-cut and still made the image.
  EXPECT_GE(hop->precopy.final_recuts, 1);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);

  // The marker bytes actually arrived on the guest.
  SimProcess* guest_process = tw.b->kernel().FindProcess(hop->migrated.pid);
  ASSERT_NE(guest_process, nullptr);
  MemorySegment* guest_heap =
      guest_process->address_space().FindByName("dalvik-heap");
  ASSERT_NE(guest_heap, nullptr);
  ASSERT_GE(guest_heap->content.size(), marker.size());
  EXPECT_EQ(Bytes(guest_heap->content.begin(),
                  guest_heap->content.begin() + marker.size()),
            marker);
}

TEST(PrecopyMigrationTest, PoisonedGuestCacheFallsBackWithoutCorruption) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  const MigrationConfig config = PrecopyConfig();
  auto hop1 = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop1.ok() && hop1->success);

  // Corrupt every entry in A's cache — the cache the return hop warms and
  // then resolves refs against.
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

  // Every poisoned entry read as a miss, was re-streamed by the warm-up
  // rounds, and the restore stayed byte-exact.
  EXPECT_GT(guest_cache.stats().verify_failures, 0u);
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);
  EXPECT_NE(tw.a->kernel().FindProcess(hop2->migrated.pid), nullptr);
}

TEST(PrecopyMigrationTest, RoundsOnShapedLinkRunFrameCodec) {
  RoundTripWorld tw;
  tw.Boot("Flappy Bird");
  MigrationConfig config = PrecopyConfig();
  config.net_profile.name = "loss-1pct";
  config.net_profile.loss_rate = 0.01;
  config.frame_payload_bytes = 2048;
  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);

  // Round 0 streamed the cold image, and it went through the frame codec
  // like the stop-and-copy: the framed bytes the codec put on the air
  // cover every round's wire bytes, which the stop-and-copy alone (mostly
  // refs after the warm-up) would not.
  ASSERT_TRUE(hop->frame_wire.enabled);
  ASSERT_FALSE(hop->precopy.rounds.empty());
  EXPECT_GT(hop->precopy.rounds[0].chunks_sent, 0u);
  EXPECT_GT(hop->frame_wire.frames_lost, 0u);
  EXPECT_GE(hop->frame_wire.wire_bytes, hop->precopy.wire_bytes);
  EXPECT_NE(tw.b->kernel().FindProcess(hop->migrated.pid), nullptr);
}

TEST(PrecopyMigrationTest, NonConvergenceIsReportedThroughForensics) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  Tracer tracer(&tw.a->clock());
  MigrationConfig config = PrecopyConfig();
  config.trace = &tracer;
  // One round and an unreachable freeze target: pre-copy cannot converge.
  config.precopy_max_rounds = 1;
  config.precopy_stop_copy_target = 0;

  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  // Non-convergence degrades to a longer stop-and-copy, never a failure.
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  EXPECT_TRUE(hop->precopy.enabled);
  EXPECT_FALSE(hop->precopy.converged);
  ASSERT_EQ(hop->precopy.rounds.size(), 1u);
  EXPECT_GT(hop->precopy.rounds[0].chunks_sent, 0u);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
#if FLUX_TRACE_ENABLED
  // The round streamed and the app kept running after its cut, so the
  // stop-and-copy cut afresh.
  const HopCuts cuts = CountCuts(tracer, *tw.a, *hop);
  EXPECT_EQ(cuts.counted, hop->precopy.rounds.size() + 1);
  if (tw.a->flight_recorder().enabled()) {
    EXPECT_EQ(cuts.events, hop->precopy.rounds.size() + 1);
  }
#endif

  // The aborted convergence is documented in a forensic report.
  ASSERT_NE(hop->forensics, nullptr);
  EXPECT_EQ(hop->forensics->failure_phase, "precopy");
  EXPECT_FALSE(hop->forensics->rolled_back);
}

}  // namespace
}  // namespace flux
