// Pipelined-migration tests: the stage scheduler's timing arithmetic, the
// end-to-end chunked migration (faster than serial, same bytes moved), the
// composition with post-copy, rollback on mid-transfer outages and corrupt
// payloads in both modes, and alarms firing at the right simulated time
// through every migration wait: the transfer, Prepare's task-idler wait and
// post-copy's background tail.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/apps/app_instance.h"
#include "src/base/rng.h"
#include "src/device/world.h"
#include "src/flux/migration.h"
#include "src/flux/pipeline.h"

namespace flux {
namespace {

// ----- scheduler arithmetic -----

std::vector<PipelineStageModel> TwoStages() {
  PipelineStageModel a;
  a.name = "a";
  a.chunk_cost = {Millis(2), Millis(2), Millis(2)};
  PipelineStageModel b;
  b.name = "b";
  b.chunk_cost = {Millis(3), Millis(3), Millis(3)};
  return {a, b};
}

TEST(PipelineScheduleTest, HandComputedTwoStageExample) {
  const PipelinePlan plan = SchedulePipeline(TwoStages());
  // Stage a finishes chunks at 2, 4, 6; stage b at 5, 8, 11.
  EXPECT_EQ(plan.finish[0][0], Millis(2));
  EXPECT_EQ(plan.finish[0][2], Millis(6));
  EXPECT_EQ(plan.finish[1][0], Millis(5));
  EXPECT_EQ(plan.finish[1][1], Millis(8));
  EXPECT_EQ(plan.finish[1][2], Millis(11));
  EXPECT_EQ(plan.makespan, Millis(11));
  EXPECT_EQ(plan.stages[0].busy, Millis(6));
  EXPECT_EQ(plan.stages[1].busy, Millis(9));
  EXPECT_EQ(plan.stages[1].first_finish, Millis(5));
  // Overlap: strictly serial staging would cost 6 + 9 = 15 ms.
  EXPECT_LT(plan.makespan, Millis(15));
}

TEST(PipelineScheduleTest, InitialOffsetDelaysAStage) {
  auto stages = TwoStages();
  stages[1].initial_offset = Millis(10);
  const PipelinePlan plan = SchedulePipeline(stages);
  // Stage b cannot start before its offset: 13, 16, 19.
  EXPECT_EQ(plan.finish[1][0], Millis(13));
  EXPECT_EQ(plan.makespan, Millis(19));
}

TEST(PipelineScheduleTest, SingleStageDegeneratesToSerial) {
  PipelineStageModel only;
  only.name = "only";
  only.chunk_cost = {Millis(1), Millis(4), Millis(2)};
  const PipelinePlan plan = SchedulePipeline({only});
  EXPECT_EQ(plan.makespan, Millis(7));
  EXPECT_EQ(plan.stages[0].busy, Millis(7));
}

TEST(PipelineScheduleTest, EmptyInputsAreSafe) {
  EXPECT_EQ(SchedulePipeline({}).makespan, 0);
  PipelineStageModel empty;
  empty.name = "empty";
  const PipelinePlan plan = SchedulePipeline({empty});
  EXPECT_EQ(plan.makespan, 0);
  EXPECT_TRUE(plan.finish[0].empty());
}

TEST(PipelineScheduleTest, ZeroCostChunksPassThrough) {
  // Deferred (post-copy) chunks have zero wire cost but still occupy their
  // slot in order.
  PipelineStageModel wire;
  wire.name = "wire";
  wire.chunk_cost = {Millis(5), 0, 0};
  const PipelinePlan plan = SchedulePipeline({wire});
  EXPECT_EQ(plan.finish[0][2], Millis(5));
  EXPECT_EQ(plan.makespan, Millis(5));
}

// ----- end-to-end -----

// A self-contained two-device world with one managed app, mirroring the
// paper's evaluation setup. Each test builds fresh worlds so serial and
// pipelined runs are independent and deterministic.
struct TestWorld {
  World world;
  Device* home = nullptr;
  Device* guest = nullptr;
  std::unique_ptr<FluxAgent> home_agent;
  std::unique_ptr<FluxAgent> guest_agent;
  std::unique_ptr<AppInstance> app;

  void Boot(const std::string& app_name) {
    BootOptions boot;
    boot.framework_scale = 0.01;
    home = world.AddDevice("n4", Nexus4Profile(), boot).value();
    guest = world.AddDevice("n7-2013", Nexus7_2013Profile(), boot).value();
    home_agent = std::make_unique<FluxAgent>(*home);
    guest_agent = std::make_unique<FluxAgent>(*guest);
    ASSERT_TRUE(PairDevices(*home_agent, *guest_agent).ok());
    const AppSpec* spec = FindApp(app_name);
    ASSERT_NE(spec, nullptr) << app_name;
    app = std::make_unique<AppInstance>(*home, *spec);
    ASSERT_TRUE(app->Install().ok());
    ASSERT_TRUE(PairApp(*home_agent, *guest_agent, *spec).ok());
    ASSERT_TRUE(app->Launch().ok());
    home_agent->Manage(app->pid(), spec->package);
    ASSERT_TRUE(app->RunWorkload(42).ok());
  }

  Result<MigrationReport> Migrate(const MigrationConfig& config) {
    MigrationManager manager(*home_agent, *guest_agent, config);
    return manager.Migrate(RunningApp::FromInstance(*app), app->spec());
  }
};

// After a failed migration the home copy must be usable again: process
// alive, an activity back in the foreground, and the record engine
// capturing calls again.
void ExpectRolledBackHome(TestWorld& tw) {
  const Pid pid = tw.app->pid();
  ASSERT_NE(tw.home->kernel().FindProcess(pid), nullptr);

  bool resumed = false;
  for (const ActivityRecord* activity :
       tw.home->activity_manager().ActivitiesOf(pid)) {
    resumed = resumed || activity->state == ActivityState::kResumed;
  }
  EXPECT_TRUE(resumed) << "app not foregrounded after rollback";

  const CallLog* log = tw.home_agent->recorder().LogFor(pid);
  ASSERT_NE(log, nullptr);
  const size_t before = log->size();
  const uint64_t handle = tw.home->service_manager()
                              .GetServiceHandle(pid, "notification")
                              .value();
  Parcel post;
  post.WriteNamed("id", static_cast<int32_t>(7777));
  post.WriteNamed("notification", std::string("rollback-probe"));
  auto reply = tw.home->binder().Transact(pid, handle, "enqueueNotification",
                                          std::move(post));
  EXPECT_TRUE(reply.ok());
  EXPECT_GT(log->size(), before) << "recording not resumed after rollback";
}

TEST(PipelinedMigrationTest, SucceedsAndBeatsSerialByTwentyPercent) {
  TestWorld serial_world;
  serial_world.Boot("Candy Crush Saga");
  auto serial = serial_world.Migrate(MigrationConfig{});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->success) << serial->refusal_reason;

  TestWorld pipelined_world;
  pipelined_world.Boot("Candy Crush Saga");
  MigrationConfig config;
  config.pipelined = true;
  auto pipelined = pipelined_world.Migrate(config);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  ASSERT_TRUE(pipelined->success) << pipelined->refusal_reason;

  // The guest copy is live, the home copy gone — exactly as in serial mode.
  EXPECT_EQ(pipelined_world.home->kernel().FindProcess(
                pipelined_world.app->pid()),
            nullptr);
  EXPECT_NE(pipelined_world.guest->kernel().FindProcess(
                pipelined->migrated.pid),
            nullptr);

  // Same bytes moved — modulo the chunk container's framing and the small
  // ratio loss from per-chunk match windows (bounded at 1%) — in
  // substantially less simulated time.
  EXPECT_GE(pipelined->total_wire_bytes, serial->total_wire_bytes);
  EXPECT_LE(pipelined->total_wire_bytes,
            serial->total_wire_bytes + serial->total_wire_bytes / 100);
  EXPECT_EQ(pipelined->image_raw_bytes, serial->image_raw_bytes);
  EXPECT_LE(ToSecondsF(pipelined->Total()),
            0.80 * ToSecondsF(serial->Total()))
      << "pipelined " << ToSecondsF(pipelined->Total()) << " s vs serial "
      << ToSecondsF(serial->Total()) << " s";

  // Stage-overlap accounting is populated and self-consistent.
  const PipelineStats& stats = pipelined->pipeline;
  EXPECT_TRUE(stats.enabled);
  EXPECT_GT(stats.chunk_count, 1u);
  EXPECT_EQ(stats.chunk_wire_bytes.size(), stats.chunk_count);
  EXPECT_GT(stats.makespan, 0);
  EXPECT_GT(stats.serial_estimate, stats.makespan);
  EXPECT_EQ(stats.saved, stats.serial_estimate - stats.makespan);
  ASSERT_EQ(stats.stages.size(), 5u);
  EXPECT_EQ(stats.stages[2].name, "wire");
  for (const PipelineStageTiming& stage : stats.stages) {
    EXPECT_LE(stage.busy, stats.makespan) << stage.name;
    EXPECT_LE(stage.first_finish, stage.finish) << stage.name;
  }

  // Chunked modes always compress: turning compress_image off (the serial
  // path's ablation) ships the same payload.
  TestWorld raw_world;
  raw_world.Boot("Candy Crush Saga");
  config.compress_image = false;
  auto raw = raw_world.Migrate(config);
  ASSERT_TRUE(raw.ok() && raw->success);
  EXPECT_EQ(raw->image_compressed_bytes, pipelined->image_compressed_bytes);
  EXPECT_EQ(raw->total_wire_bytes, pipelined->total_wire_bytes);
  EXPECT_EQ(raw->Total(), pipelined->Total());
}

// Migrates in a world where the home APK was updated since pairing, so
// VerifyPairedApk must re-sync the whole APK, and measures how much slower
// that migration was than an identical clean-world one — alongside the
// wire time those extra bytes cost when charged exactly once.
struct ApkUpdateCost {
  SimDuration slowdown;   // changed-world Total() minus clean-world Total()
  SimDuration wire_once;  // one wire crossing of the extra re-sync bytes
};

Result<ApkUpdateCost> MeasureApkUpdateCost(const MigrationConfig& config) {
  TestWorld clean;
  clean.Boot("Candy Crush Saga");
  FLUX_ASSIGN_OR_RETURN(MigrationReport clean_report, clean.Migrate(config));

  TestWorld changed;
  changed.Boot("Candy Crush Saga");
  const PackageInfo* info =
      changed.home->package_manager().Find(changed.app->spec().package);
  if (info == nullptr) {
    return NotFound("package missing");
  }
  FLUX_ASSIGN_OR_RETURN(std::shared_ptr<const Blob> apk,
                        changed.home->filesystem().ReadFile(info->apk_path));
  // Same-size incompressible replacement: the paired copy's hash no longer
  // matches, forcing a full APK re-sync during migration prepare.
  Bytes noise(apk->size());
  Rng rng(0xA9C);
  for (size_t i = 0; i < noise.size(); ++i) {
    noise[i] = static_cast<uint8_t>(rng.NextU64());
  }
  FLUX_RETURN_IF_ERROR(
      changed.home->filesystem().WriteFile(info->apk_path, std::move(noise)));
  FLUX_ASSIGN_OR_RETURN(MigrationReport changed_report,
                        changed.Migrate(config));
  if (!clean_report.success || !changed_report.success) {
    return Internal("migration refused");
  }
  if (changed_report.data_sync_bytes <= clean_report.data_sync_bytes) {
    return Internal("APK update moved no extra bytes");
  }
  const uint64_t delta_bytes =
      changed_report.data_sync_bytes - clean_report.data_sync_bytes;
  WifiNetwork& wifi = changed.home->wifi();
  const EffectiveLink link = wifi.LinkBetween(changed.home->profile().radio,
                                              changed.guest->profile().radio);
  return ApkUpdateCost{changed_report.Total() - clean_report.Total(),
                       wifi.TransferTime(delta_bytes, link) - link.latency};
}

// Regression: the pipelined schedule used to bill the APK re-sync bytes
// twice — once as wire time already on the clock from the verification
// exchange, and again inside the wire stage's initial offset (computed
// from data_sync_bytes, which included the APK bytes). An app update
// before migration must slow the pipelined migration by one wire crossing
// of the re-synced bytes, not two.
TEST(PipelineTest, ApkResyncChargedOnce) {
  MigrationConfig config;
  config.pipelined = true;
  auto cost = MeasureApkUpdateCost(config);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();

  // The re-sync is seconds of wire time, so single vs double billing is
  // unambiguous at this tolerance.
  ASSERT_GT(cost->wire_once, Seconds(1));
  EXPECT_NEAR(ToSecondsF(cost->slowdown), ToSecondsF(cost->wire_once), 0.3)
      << "APK update slows the pipelined migration by "
      << ToSecondsF(cost->slowdown) << " s; one wire crossing costs "
      << ToSecondsF(cost->wire_once) << " s";
}

TEST(PipelinedMigrationTest, ComposesWithPostCopy) {
  TestWorld tw;
  tw.Boot("Candy Crush Saga");
  MigrationConfig config;
  config.pipelined = true;
  config.post_copy = true;
  auto report = tw.Migrate(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success) << report->refusal_reason;
  // A chunk-granular tail was deferred and streamed in the background.
  EXPECT_GT(report->deferred_bytes, 0u);
  EXPECT_GT(report->background_transfer, 0);
  EXPECT_NE(tw.guest->kernel().FindProcess(report->migrated.pid), nullptr);
}

// Finds the absolute midpoint of the transfer interval via a probe run in
// an identically booted world (the simulation is deterministic).
SimTime ProbeTransferMidpoint(const std::string& app_name,
                              const MigrationConfig& config) {
  TestWorld probe;
  probe.Boot(app_name);
  auto report = probe.Migrate(config);
  EXPECT_TRUE(report.ok() && report->success);
  return report->transfer.begin + report->transfer.duration() / 2;
}

class RollbackTest : public ::testing::TestWithParam<bool> {};

TEST_P(RollbackTest, WifiOutageMidTransferRollsBack) {
  MigrationConfig config;
  config.pipelined = GetParam();
  const SimTime mid = ProbeTransferMidpoint("Candy Crush Saga", config);
  ASSERT_GT(mid, 0);

  TestWorld tw;
  tw.Boot("Candy Crush Saga");
  tw.home->wifi().ScheduleOutageAt(mid);
  auto report = tw.Migrate(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  ExpectRolledBackHome(tw);
  // Nothing restored on the guest.
  EXPECT_EQ(tw.guest->kernel().ProcessesOfUid(tw.app->uid()).size(), 0u);
}

TEST_P(RollbackTest, CorruptPayloadRollsBack) {
  TestWorld tw;
  tw.Boot("Candy Crush Saga");
  MigrationConfig config;
  config.pipelined = GetParam();
  config.payload_fault = [](Bytes& payload) {
    // Scramble a run of bytes deep in the image section.
    const size_t begin = payload.size() / 2;
    for (size_t i = begin; i < begin + 64 && i < payload.size(); ++i) {
      payload[i] ^= 0xA5;
    }
  };
  auto report = tw.Migrate(config);
  ASSERT_FALSE(report.ok());
  ExpectRolledBackHome(tw);
  EXPECT_EQ(tw.guest->kernel().ProcessesOfUid(tw.app->uid()).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(SerialAndPipelined, RollbackTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Pipelined" : "Serial";
                         });

// The migration waits a guest alarm can fall due in: the wire transfer,
// Prepare's task-idler wait, and post-copy's background tail.
enum class MigrationWait { kTransfer, kPrepare, kPostCopyTail };

class TransferAlarmTest
    : public ::testing::TestWithParam<std::tuple<bool, MigrationWait>> {};

// Regression: devices keep ticking through every migration wait, so an
// alarm due mid-wait fires at its trigger time (within one kTransferTick
// slice), not after the wait or the migration is over.
TEST_P(TransferAlarmTest, GuestAlarmFiresOnTimeDuringWait) {
  const auto [pipelined, wait] = GetParam();
  MigrationConfig config;
  config.pipelined = pipelined;
  config.post_copy = wait == MigrationWait::kPostCopyTail;

  // The wait's window, from a probe run in an identically booted world
  // (the simulation is deterministic).
  TimedInterval window;
  {
    TestWorld probe;
    probe.Boot("Candy Crush Saga");
    auto report = probe.Migrate(config);
    ASSERT_TRUE(report.ok() && report->success);
    switch (wait) {
      case MigrationWait::kTransfer:
        window = report->transfer;
        break;
      case MigrationWait::kPrepare:
        window.begin = report->prepare.begin;
        window.end = window.begin +
                     probe.home->activity_manager().idle_stop_delay();
        break;
      case MigrationWait::kPostCopyTail:
        ASSERT_GT(report->background_tail, 2 * kTransferTick);
        window.begin = report->reintegrate.end;
        window.end = window.begin + report->background_tail;
        break;
    }
  }
  const SimTime mid = window.begin + window.duration() / 2;
  ASSERT_GT(mid, 0);

  TestWorld tw;
  tw.Boot("Candy Crush Saga");

  SimTime fired_at = 0;
  tw.guest->alarm_service().SetIntentSink(
      [&tw, &fired_at](const Intent&) { fired_at = tw.guest->clock().now(); });
  Parcel args;
  args.WriteNamed("type", static_cast<int32_t>(0));
  args.WriteNamed("triggerAtTime", static_cast<int64_t>(mid));
  args.WriteNamed("operation", std::string("test.transfer.alarm"));
  BinderCallContext ctx;
  ctx.sender_pid = 1;
  ctx.sender_uid = 10777;
  ctx.time = tw.guest->clock().now();
  ASSERT_TRUE(
      tw.guest->alarm_service().OnTransact("set", args, ctx).ok());

  auto report = tw.Migrate(config);
  ASSERT_TRUE(report.ok() && report->success);

  ASSERT_GT(fired_at, 0) << "alarm never fired during the wait";
  EXPECT_GE(fired_at, mid);
  EXPECT_LE(fired_at - mid, kTransferTick)
      << "alarm fired " << ToSecondsF(fired_at - mid)
      << " s late; devices not ticking during the wait";
  EXPECT_LE(fired_at, window.end);
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndPipelined, TransferAlarmTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(MigrationWait::kTransfer,
                                         MigrationWait::kPrepare,
                                         MigrationWait::kPostCopyTail)),
    [](const ::testing::TestParamInfo<std::tuple<bool, MigrationWait>>&
           param_info) {
      std::string name =
          std::get<0>(param_info.param) ? "Pipelined" : "Serial";
      const MigrationWait wait = std::get<1>(param_info.param);
      if (wait == MigrationWait::kPrepare) {
        name += "Prepare";
      } else if (wait == MigrationWait::kPostCopyTail) {
        name += "PostCopyTail";
      }
      return name;
    });

}  // namespace
}  // namespace flux
