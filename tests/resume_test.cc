// Chunk-resumable transfers (DESIGN.md §13, PROTOCOL.md §8): a migration
// that loses its link mid-stream waits out the outage, re-offers the chunk
// manifest, and re-sends only what the guest cache does not already hold.
// The heart of the file is the kill sweep: an outage dropped at every chunk
// boundary across the transfer window, each run required to deliver an
// image byte-identical to the no-fault run. Around it: the rollback paths
// that must stay rollbacks (resume off, outage too long), the FEC loss
// path end to end, and the pre-copy mid-round cases — a warm-up round
// interrupted mid-stream resumes at chunk granularity with resume on, and
// without it rolls back leaving only the chunks it delivered cached.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_instance.h"
#include "src/device/world.h"
#include "src/flux/flux_agent.h"
#include "src/flux/migration.h"
#include "src/flux/pairing.h"
#include "src/net/network.h"

namespace flux {
namespace {

// Two paired devices with one managed app on A (same shape as
// precopy_test's RoundTripWorld). Boot is deterministic, so absolute stage
// times learned from a no-fault run transfer to fresh worlds verbatim.
struct ResumeWorld {
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

  Result<MigrationReport> Hop(const MigrationConfig& config) {
    MigrationManager manager(*a_agent, *b_agent, config);
    return manager.Migrate(running, *spec);
  }
};

MigrationConfig ResumeConfig() {
  MigrationConfig config;
  config.resume = true;  // implies pipelined + chunk_dedup
  return config;
}

constexpr char kApp[] = "Flappy Bird";

TEST(ResumeTest, OutageAtEveryChunkBoundaryRestoresByteIdentically) {
  // No-fault baseline: learn the transfer window, the chunk count, and the
  // digests every interrupted run must reproduce.
  SimTime window_begin = 0;
  SimTime window_end = 0;
  uint32_t chunks = 0;
  Hash128 image_hash;
  Hash128 restored_hash;
  uint64_t baseline_wire = 0;
  {
    ResumeWorld base;
    base.Boot(kApp);
    auto hop = base.Hop(ResumeConfig());
    ASSERT_TRUE(hop.ok()) << hop.status().ToString();
    ASSERT_TRUE(hop->success) << hop->refusal_reason;
    EXPECT_TRUE(hop->resume.enabled);
    EXPECT_EQ(hop->resume.interruptions, 0u);
    EXPECT_EQ(hop->resume.attempts, 0u);
    EXPECT_EQ(hop->resume.stalled, 0);
    window_begin = hop->transfer.begin;
    window_end = hop->transfer.end;
    chunks = hop->pipeline.chunk_count;
    image_hash = hop->image_hash;
    restored_hash = hop->restored_image_hash;
    baseline_wire = hop->total_wire_bytes;
    ASSERT_GT(chunks, 1u);
    ASSERT_LT(window_begin, window_end);
    EXPECT_EQ(image_hash, restored_hash);
  }

  // Kill the link once per chunk boundary: sweep points spread uniformly
  // across the streaming window hit every boundary's neighborhood (the
  // boundaries tile the window), capped so the sweep stays affordable.
  const uint32_t points = chunks < 6 ? chunks : 6;
  const SimDuration window =
      static_cast<SimDuration>(window_end - window_begin);
  for (uint32_t i = 0; i < points; ++i) {
    const SimTime outage_at =
        window_begin + window * (2 * static_cast<SimDuration>(i) + 1) /
                           (2 * static_cast<SimDuration>(points));
    ResumeWorld tw;
    tw.Boot(kApp);
    tw.world.wifi().ScheduleOutageWindow(outage_at, Seconds(2));
    auto hop = tw.Hop(ResumeConfig());
    ASSERT_TRUE(hop.ok()) << "point " << i << ": "
                          << hop.status().ToString();
    ASSERT_TRUE(hop->success) << "point " << i << ": "
                              << hop->refusal_reason;

    // The outage was observed and resumed, the stall is accounted, and the
    // restored image is byte-identical to the no-fault run's.
    EXPECT_GE(hop->resume.interruptions, 1u) << "point " << i;
    EXPECT_GE(hop->resume.attempts, 1u) << "point " << i;
    EXPECT_GT(hop->resume.stalled, 0) << "point " << i;
    EXPECT_FALSE(hop->resume.stalls.empty()) << "point " << i;
    EXPECT_EQ(hop->image_hash, image_hash) << "point " << i;
    EXPECT_EQ(hop->restored_image_hash, restored_hash) << "point " << i;
    EXPECT_EQ(hop->image_hash, hop->restored_image_hash) << "point " << i;

    // Retransmission discipline: only the in-flight chunk re-ships, so
    // re-sent bytes never exceed 1.2x what the outage destroyed.
    EXPECT_LE(hop->resume.retransmit_bytes,
              hop->resume.lost_bytes + hop->resume.lost_bytes / 5)
        << "point " << i;
    // An interrupted run can only cost more wire than the clean one.
    EXPECT_GE(hop->total_wire_bytes, baseline_wire) << "point " << i;
    // The app is live on the guest.
    EXPECT_NE(tw.b->kernel().FindProcess(hop->migrated.pid), nullptr);
  }
}

// A link that is down when the stop-and-copy starts is the stream's first
// stall: counted, handshaken and recorded like one mid-stream, and booked
// in the checkpoint interval ahead of the data sync.
TEST(ResumeTest, OutageAtTransferEntryIsAResumeStall) {
  // The stop-and-copy starts with the data sync.
  SimTime entry = 0;
  Hash128 image_hash;
  {
    ResumeWorld base;
    base.Boot(kApp);
    auto hop = base.Hop(ResumeConfig());
    ASSERT_TRUE(hop.ok() && hop->success) << hop.status().ToString();
    entry = hop->data_sync.begin;
    image_hash = hop->image_hash;
  }

  ResumeWorld tw;
  tw.Boot(kApp);
  tw.world.wifi().ScheduleOutageWindow(entry - Millis(1), Seconds(2));
  auto hop = tw.Hop(ResumeConfig());
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  EXPECT_EQ(hop->resume.interruptions, 1u);
  EXPECT_EQ(hop->resume.attempts, 1u);
  ASSERT_EQ(hop->resume.stalls.size(), 1u);
  const TimedInterval& stall = hop->resume.stalls[0];
  EXPECT_EQ(stall.begin, entry);
  EXPECT_GE(stall.duration(), Seconds(2) - Millis(1));
  EXPECT_EQ(hop->resume.stalled, stall.duration());
  EXPECT_LE(stall.end, hop->data_sync.begin);
  EXPECT_LE(stall.end, hop->checkpoint.end);
  EXPECT_EQ(hop->image_hash, image_hash);
  EXPECT_EQ(hop->restored_image_hash, image_hash);

  // Without resume the same outage still aborts to a rollback.
  ResumeWorld off;
  off.Boot(kApp);
  off.world.wifi().ScheduleOutageWindow(entry - Millis(1), Seconds(2));
  MigrationConfig config;
  config.pipelined = true;
  config.chunk_dedup = true;
  auto aborted = off.Hop(config);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(off.a->kernel().FindProcess(off.running.pid), nullptr);
}

TEST(ResumeTest, ResumeDisabledOutageStillRollsBack) {
  // First learn where the transfer happens with the same (pipelined+dedup)
  // configuration, resume off.
  MigrationConfig config;
  config.pipelined = true;
  config.chunk_dedup = true;
  SimTime mid = 0;
  {
    ResumeWorld base;
    base.Boot(kApp);
    auto hop = base.Hop(config);
    ASSERT_TRUE(hop.ok() && hop->success);
    EXPECT_FALSE(hop->resume.enabled);
    mid = hop->transfer.begin +
          (hop->transfer.end - hop->transfer.begin) / 2;
  }

  ResumeWorld tw;
  tw.Boot(kApp);
  tw.world.wifi().ScheduleOutageWindow(mid, Seconds(2));
  auto hop = tw.Hop(config);
  // Without resume, the interruption aborts and rolls back: the app is
  // still running at home, untouched.
  ASSERT_FALSE(hop.ok());
  EXPECT_EQ(hop.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(tw.a->kernel().FindProcess(tw.running.pid), nullptr);
}

TEST(ResumeTest, OutageOutlastingWaitBudgetRollsBackCleanly) {
  SimTime mid = 0;
  {
    ResumeWorld base;
    base.Boot(kApp);
    auto hop = base.Hop(ResumeConfig());
    ASSERT_TRUE(hop.ok() && hop->success);
    mid = hop->transfer.begin +
          (hop->transfer.end - hop->transfer.begin) / 2;
  }

  ResumeWorld tw;
  tw.Boot(kApp);
  // A 10 s hole against a 1 s patience budget: resumable transfers must
  // not wait forever — this is a clean, attributed rollback.
  MigrationConfig config = ResumeConfig();
  config.resume_wait_max = Seconds(1);
  tw.world.wifi().ScheduleOutageWindow(mid, Seconds(10));
  auto hop = tw.Hop(config);
  ASSERT_FALSE(hop.ok());
  EXPECT_EQ(hop.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(hop.status().ToString().find("resume_wait_max"),
            std::string::npos)
      << hop.status().ToString();
  EXPECT_NE(tw.a->kernel().FindProcess(tw.running.pid), nullptr);
}

TEST(ResumeTest, LossyLinkWithFecRecoversWithoutRetransmitStorm) {
  ResumeWorld tw;
  tw.Boot(kApp);
  MigrationConfig config = ResumeConfig();
  config.net_profile.name = "loss-1pct";
  config.net_profile.loss_rate = 0.01;
  // Small frames so a 1% rate yields enough losses for parity to show its
  // work on this small app's image.
  config.frame_payload_bytes = 2048;
  auto hop = tw.Hop(config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;

  // The frame codec ran: losses happened, parity rebuilt at least one of
  // them without a round trip, and what FEC could not cover was re-sent —
  // never more bytes than were lost.
  ASSERT_TRUE(hop->frame_wire.enabled);
  EXPECT_GT(hop->frame_wire.frames_sent, 0u);
  EXPECT_GT(hop->frame_wire.frames_lost, 0u);
  EXPECT_GT(hop->frame_wire.frames_recovered, 0u);
  EXPECT_LE(hop->frame_wire.retransmit_bytes, hop->frame_wire.lost_bytes);
  // Losses never reach the payload: the restore is still byte-exact.
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
  EXPECT_NE(tw.b->kernel().FindProcess(hop->migrated.pid), nullptr);
}

TEST(ResumeTest, HostileProfileEndToEnd) {
  ResumeWorld tw;
  tw.Boot(kApp);
  MigrationConfig config = ResumeConfig();
  config.net_profile = NetProfile::Named("hostile").value();
  auto hop = tw.Hop(config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  ASSERT_TRUE(hop->frame_wire.enabled);
  EXPECT_GT(hop->frame_wire.frames_lost, 0u);
  // A quarter of hostile losses arrive corrupted: the CRC catches them.
  EXPECT_GT(hop->frame_wire.crc_errors, 0u);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
}

// ----- pre-copy mid-round interruption (the PR's bug fix) -----

TEST(ResumeTest, PrecopyRoundInterruptedMidStreamResumesNotAborts) {
  // Learn when the first warm-up round streams.
  SimTime mid = 0;
  Hash128 image_hash;
  {
    ResumeWorld base;
    base.Boot(kApp);
    MigrationConfig config = ResumeConfig();
    config.precopy = true;
    auto hop = base.Hop(config);
    ASSERT_TRUE(hop.ok() && hop->success) << hop.status().ToString();
    ASSERT_TRUE(hop->precopy.enabled);
    mid = hop->precopy.window.begin +
          (hop->precopy.window.end - hop->precopy.window.begin) / 4;
    image_hash = hop->restored_image_hash;
  }

  // Regression guard: without resume, a round dying mid-stream still
  // aborts the migration (the historical behavior stays attributable).
  {
    ResumeWorld tw;
    tw.Boot(kApp);
    MigrationConfig config;
    config.precopy = true;
    tw.world.wifi().ScheduleOutageWindow(mid, Seconds(2));
    auto hop = tw.Hop(config);
    ASSERT_FALSE(hop.ok());
    EXPECT_EQ(hop.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(tw.a->kernel().FindProcess(tw.running.pid), nullptr);
  }

  // The fix: with resume on, the same outage is ridden out at chunk
  // granularity and the migration completes byte-exactly.
  {
    ResumeWorld tw;
    tw.Boot(kApp);
    MigrationConfig config = ResumeConfig();
    config.precopy = true;
    tw.world.wifi().ScheduleOutageWindow(mid, Seconds(2));
    auto hop = tw.Hop(config);
    ASSERT_TRUE(hop.ok()) << hop.status().ToString();
    ASSERT_TRUE(hop->success) << hop->refusal_reason;
    EXPECT_GE(hop->resume.interruptions, 1u);
    EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
    EXPECT_LE(hop->resume.retransmit_bytes,
              hop->resume.lost_bytes + hop->resume.lost_bytes / 5);
    EXPECT_NE(tw.b->kernel().FindProcess(hop->migrated.pid), nullptr);
  }
}

TEST(ResumeTest, LostPrecopyRoundCachesOnlyDeliveredChunks) {
  // The same outage as above, placed by a no-fault resume run; also learn
  // how many chunks round 0 streams.
  SimTime mid = 0;
  uint32_t round0_chunks = 0;
  {
    ResumeWorld base;
    base.Boot(kApp);
    MigrationConfig config = ResumeConfig();
    config.precopy = true;
    auto hop = base.Hop(config);
    ASSERT_TRUE(hop.ok() && hop->success) << hop.status().ToString();
    ASSERT_FALSE(hop->precopy.rounds.empty());
    mid = hop->precopy.window.begin +
          (hop->precopy.window.end - hop->precopy.window.begin) / 4;
    round0_chunks = hop->precopy.rounds[0].chunks_sent;
    // The outage lands while round 0 streams.
    ASSERT_LT(mid, hop->precopy.rounds[0].interval.end);
  }

  // Without resume the hop rolls back, and the guest cache holds only the
  // chunks whose wire windows closed before the link went down — not the
  // whole round.
  ResumeWorld tw;
  tw.Boot(kApp);
  const size_t cached_before = tw.b_agent->chunk_cache().entries();
  MigrationConfig config;
  config.precopy = true;
  tw.world.wifi().ScheduleOutageWindow(mid, Seconds(2));
  auto hop = tw.Hop(config);
  ASSERT_FALSE(hop.ok());
  EXPECT_EQ(hop.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(tw.a->kernel().FindProcess(tw.running.pid), nullptr);
  const size_t gained = tw.b_agent->chunk_cache().entries() - cached_before;
  EXPECT_GT(gained, 0u);
  EXPECT_LT(gained, round0_chunks);
}

}  // namespace
}  // namespace flux
