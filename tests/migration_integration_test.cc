// End-to-end migration tests: the paper's Figure 1 flow on simulated
// hardware. Pair two devices, run an app with a real workload, migrate it,
// and verify the guest-side state matches what the home device had —
// notifications, alarms, sensor connections (same Binder handles, same
// descriptor numbers), receivers, and the UI resized to the guest display.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/apps/app_instance.h"
#include "src/device/world.h"
#include "src/flux/migration.h"

namespace flux {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BootOptions boot;
    boot.framework_scale = 0.01;  // keep pairing fast in unit tests
    auto home = world_.AddDevice("n4", Nexus4Profile(), boot);
    ASSERT_TRUE(home.ok()) << home.status().ToString();
    auto guest = world_.AddDevice("n7-2013", Nexus7_2013Profile(), boot);
    ASSERT_TRUE(guest.ok()) << guest.status().ToString();
    home_ = home.value();
    guest_ = guest.value();
    home_agent_ = std::make_unique<FluxAgent>(*home_);
    guest_agent_ = std::make_unique<FluxAgent>(*guest_);
    auto pairing = PairDevices(*home_agent_, *guest_agent_);
    ASSERT_TRUE(pairing.ok()) << pairing.status().ToString();
  }

  // Installs, launches, pairs and exercises an app; returns the instance.
  std::unique_ptr<AppInstance> StartApp(const std::string& name) {
    const AppSpec* spec = FindApp(name);
    EXPECT_NE(spec, nullptr) << name;
    auto app = std::make_unique<AppInstance>(*home_, *spec);
    EXPECT_TRUE(app->Install().ok());
    auto pair = PairApp(*home_agent_, *guest_agent_, *spec);
    EXPECT_TRUE(pair.ok()) << pair.status().ToString();
    EXPECT_TRUE(app->Launch().ok());
    home_agent_->Manage(app->pid(), spec->package);
    EXPECT_TRUE(app->RunWorkload(42).ok());
    return app;
  }

  Result<MigrationReport> MigrateApp(AppInstance& app) {
    MigrationManager manager(*home_agent_, *guest_agent_);
    return manager.Migrate(RunningApp::FromInstance(app), app.spec());
  }

  World world_;
  Device* home_ = nullptr;
  Device* guest_ = nullptr;
  std::unique_ptr<FluxAgent> home_agent_;
  std::unique_ptr<FluxAgent> guest_agent_;
};

TEST_F(MigrationTest, SimpleAppMigratesSuccessfully) {
  auto app = StartApp("Bible");
  const Pid home_pid = app->pid();

  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success) << report->refusal_reason;

  // The home process is gone; a guest process exists.
  EXPECT_EQ(home_->kernel().FindProcess(home_pid), nullptr);
  ASSERT_NE(guest_->kernel().FindProcess(report->migrated.pid), nullptr);
}

TEST_F(MigrationTest, NotificationsSurviveMigrationPruned) {
  auto app = StartApp("Bible");  // posts 2, cancels 1
  const auto home_active =
      home_->notification_service().ActiveFor(app->uid());
  ASSERT_EQ(home_active.size(), 1u);
  const std::string surviving = home_active[0].content;

  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok() && report->success);

  const auto guest_active =
      guest_->notification_service().ActiveFor(report->migrated.uid);
  ASSERT_EQ(guest_active.size(), 1u);
  EXPECT_EQ(guest_active[0].content, surviving);
}

TEST_F(MigrationTest, AlarmsReplayedOnlyIfStillPending) {
  auto app = StartApp("Candy Crush Saga");  // 3 set, 1 removed, 1 expired
  // Let the expired alarm fire at home before migration.
  world_.AdvanceTime(Seconds(1));
  const auto home_pending = home_->alarm_service().PendingFor(app->uid());
  ASSERT_EQ(home_pending.size(), 2u);  // 3 set - 1 removed; expired fired

  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok() && report->success);

  const auto guest_pending =
      guest_->alarm_service().PendingFor(report->migrated.uid);
  EXPECT_EQ(guest_pending.size(), 2u);
  // The expired alarm must not have been re-armed.
  for (const auto& alarm : guest_pending) {
    EXPECT_GT(alarm.trigger_at, report->migrated.thread ? 0u : 0u);
    EXPECT_EQ(alarm.operation.find("alarm.expired"), std::string::npos);
  }
}

TEST_F(MigrationTest, UiResizesToGuestDisplay) {
  auto app = StartApp("Netflix");
  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok() && report->success);

  const auto windows =
      guest_->window_manager().WindowsOf(report->migrated.pid);
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_TRUE(windows[0]->surface.has_value());
  EXPECT_EQ(windows[0]->surface->width, guest_->profile().display.width_px);
  EXPECT_EQ(windows[0]->surface->height,
            guest_->profile().display.height_px);
}

TEST_F(MigrationTest, MultiProcessAppRefused) {
  auto app = StartApp("Facebook");
  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->success);
  EXPECT_NE(report->refusal_reason.find("multi-process"), std::string::npos);
  // The app keeps running at home.
  EXPECT_NE(home_->kernel().FindProcess(app->pid()), nullptr);
}

TEST_F(MigrationTest, PreservedEglContextRefused) {
  auto app = StartApp("Subway Surfers");
  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->success);
  EXPECT_NE(report->refusal_reason.find("EGL"), std::string::npos);
  EXPECT_NE(home_->kernel().FindProcess(app->pid()), nullptr);
}

TEST_F(MigrationTest, ConnectivityEventsDeliveredOnGuest) {
  auto app = StartApp("Twitter");
  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok() && report->success);

  // Reintegration broadcast a loss + a new connection to the re-registered
  // receiver.
  const auto& inbox = report->migrated.thread->inbox();
  int connectivity_events = 0;
  for (const auto& intent : inbox) {
    if (intent.action == "android.net.conn.CONNECTIVITY_CHANGE") {
      ++connectivity_events;
    }
  }
  EXPECT_GE(connectivity_events, 2);
}

TEST_F(MigrationTest, TransferDominatesMigrationTime) {
  auto app = StartApp("Candy Crush Saga");
  auto report = MigrateApp(*app);
  ASSERT_TRUE(report.ok() && report->success);
  EXPECT_GT(report->transfer.duration(), report->Total() / 3);
  EXPECT_GT(report->Total(), Seconds(1));
  EXPECT_LT(report->Total(), Seconds(30));
}

TEST_F(MigrationTest, SensorChannelRestoredOnSameDescriptor) {
  auto app = StartApp("Subway Surfers");
  // Subway Surfers is refused; use a sensors-enabled migratable variant.
  AppSpec spec = app->spec();
  spec.display_name = "Sensor Game";
  spec.package = "com.example.sensorgame";
  spec.preserves_egl_context = false;
  auto game = std::make_unique<AppInstance>(*home_, spec);
  ASSERT_TRUE(game->Install().ok());
  ASSERT_TRUE(PairApp(*home_agent_, *guest_agent_, spec).ok());
  ASSERT_TRUE(game->Launch().ok());
  home_agent_->Manage(game->pid(), spec.package);
  ASSERT_TRUE(game->RunWorkload(7).ok());

  const uint64_t home_handle = game->sensor_connection_handle();
  const Fd home_fd = game->sensor_channel_fd();
  ASSERT_NE(home_handle, 0u);
  ASSERT_NE(home_fd, kInvalidFd);

  MigrationManager manager(*home_agent_, *guest_agent_);
  auto report = manager.Migrate(RunningApp::FromInstance(*game), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success) << report->refusal_reason;

  // The same Binder handle must resolve to a live SensorEventConnection.
  auto node = guest_->binder().LookupNode(report->migrated.pid, home_handle);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ(guest_->binder().NodeInterface(node.value()),
            "android.gui.ISensorEventConnection");

  // The same descriptor number must hold the reconnected event channel.
  SimProcess* process = guest_->kernel().FindProcess(report->migrated.pid);
  ASSERT_NE(process, nullptr);
  auto fd_object = process->LookupFd(home_fd);
  ASSERT_NE(fd_object, nullptr);
  EXPECT_EQ(fd_object->kind(), FdKind::kUnixSocket);
}

// Migration across GPU vendors (Nexus 7's Tegra -> Nexus 4's Adreno, with
// different kernel versions): the home vendor library must never reach the
// guest; conditional initialization loads the *guest's* vendor library on
// the first post-migration draw (§3.3).
TEST(CrossGpuTest, VendorLibrarySwappedAcrossMigration) {
  World world;
  BootOptions boot;
  boot.framework_scale = 0.005;
  Device* home = world.AddDevice("n7", Nexus7_2012Profile(), boot).value();
  Device* guest = world.AddDevice("n4", Nexus4Profile(), boot).value();
  ASSERT_NE(home->profile().gpu.name, guest->profile().gpu.name);
  ASSERT_NE(home->profile().kernel_version, guest->profile().kernel_version);
  FluxAgent home_agent(*home);
  FluxAgent guest_agent(*guest);
  ASSERT_TRUE(PairDevices(home_agent, guest_agent).ok());

  AppSpec spec = *FindApp("Bubble Witch Saga");  // 3D: heavy GL use
  spec.heap_bytes = 512 * 1024;
  AppInstance app(*home, spec);
  ASSERT_TRUE(app.Install().ok());
  ASSERT_TRUE(PairApp(home_agent, guest_agent, spec).ok());
  ASSERT_TRUE(app.Launch().ok());
  home_agent.Manage(app.pid(), spec.package);
  ASSERT_TRUE(app.RunWorkload(3).ok());

  // On the home device the Tegra library is mapped.
  SimProcess* home_process = home->kernel().FindProcess(app.pid());
  ASSERT_NE(home_process->address_space().FindByName(
                "/vendor/lib/libGLES_tegra_ulp_geforce.so"),
            nullptr);

  MigrationManager manager(home_agent, guest_agent);
  auto report = manager.Migrate(RunningApp::FromInstance(app), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success) << report->refusal_reason;

  // Reintegration already redrew: the guest process runs on the Adreno
  // library, and no Tegra bytes ever crossed.
  SimProcess* guest_process =
      guest->kernel().FindProcess(report->migrated.pid);
  ASSERT_NE(guest_process, nullptr);
  EXPECT_EQ(guest_process->address_space().FindByName(
                "/vendor/lib/libGLES_tegra_ulp_geforce.so"),
            nullptr);
  EXPECT_NE(guest_process->address_space().FindByName(
                "/vendor/lib/libGLES_adreno320.so"),
            nullptr);
  EXPECT_TRUE(guest->egl().VendorLibraryLoaded(report->migrated.pid));
  // The 3D game re-uploaded textures through the new stack.
  EXPECT_GT(guest->egl().GpuBytesOf(report->migrated.pid), 0u);
}

// Regression: the call log an app carries to its next hop must name the
// Binder nodes of the device it now runs on. Left keyed by the previous
// home's node ids, replay from the app's third hop on failed with
// "argument references unmapped home node" on every app-owned object
// passed as an argument: the connectivity receiver, location listeners and
// vibration tokens.
TEST(MultiHopTest, AppOwnedBinderObjectsReplayOnEveryHop) {
  World world;
  BootOptions boot;
  boot.framework_scale = 0.01;
  Device* a = world.AddDevice("n4", Nexus4Profile(), boot).value();
  Device* b = world.AddDevice("n7-2013", Nexus7_2013Profile(), boot).value();
  FluxAgent a_agent(*a);
  FluxAgent b_agent(*b);
  ASSERT_TRUE(PairDevices(a_agent, b_agent).ok());
  ASSERT_TRUE(PairDevices(b_agent, a_agent).ok());

  AppSpec spec = *FindApp("GroupOn");
  spec.workload.registers_connectivity_receiver = true;
  spec.workload.location_requests = 2;
  spec.workload.vibrations = 1;
  AppInstance app(*a, spec);
  ASSERT_TRUE(app.Install().ok());
  ASSERT_TRUE(PairApp(a_agent, b_agent, spec).ok());
  ASSERT_TRUE(PairApp(b_agent, a_agent, spec).ok());
  ASSERT_TRUE(app.Launch().ok());
  a_agent.Manage(app.pid(), spec.package);
  ASSERT_TRUE(app.RunWorkload(42).ok());

  // A -> B -> A -> B.
  RunningApp running = RunningApp::FromInstance(app);
  FluxAgent* from = &a_agent;
  FluxAgent* to = &b_agent;
  for (int hop = 0; hop < 4; ++hop) {
    MigrationManager manager(*from, *to);
    auto report = manager.Migrate(running, spec);
    ASSERT_TRUE(report.ok()) << "hop " << hop << ": "
                             << report.status().ToString();
    ASSERT_TRUE(report->success) << "hop " << hop << ": "
                                 << report->refusal_reason;
    EXPECT_GT(report->replay.replayed + report->replay.proxied, 0)
        << "hop " << hop;
    EXPECT_EQ(report->replay.failed, 0)
        << "hop " << hop << ": "
        << (report->forensics != nullptr
                ? ForensicReportText(*report->forensics)
                : std::string());
    running = report->migrated;
    std::swap(from, to);
  }
}

}  // namespace
}  // namespace flux
