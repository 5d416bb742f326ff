// Pairing tests (§3.1): constant-data sync with hard links against the
// guest's /system, per-app APK/data sync, pseudo-install, verification on
// later migrations, and the paper's accounting shape (total >> after-links
// >> wire).
#include <gtest/gtest.h>

#include "src/apps/app_instance.h"
#include "src/base/synthetic_content.h"
#include "src/device/world.h"
#include "src/flux/pairing.h"

namespace flux {
namespace {

class PairingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BootOptions boot;
    boot.framework_scale = 0.02;
    // Same Android build, different SoCs -> shared files identical,
    // vendor/device files different (the Nexus 7 -> Nexus 7 2013 case).
    home_ = world_.AddDevice("n7-2012", Nexus7_2012Profile(), boot).value();
    guest_ = world_.AddDevice("n7-2013", Nexus7_2013Profile(), boot).value();
    home_agent_ = std::make_unique<FluxAgent>(*home_);
    guest_agent_ = std::make_unique<FluxAgent>(*guest_);
  }

  World world_;
  Device* home_ = nullptr;
  Device* guest_ = nullptr;
  std::unique_ptr<FluxAgent> home_agent_;
  std::unique_ptr<FluxAgent> guest_agent_;
};

TEST_F(PairingTest, FrameworkSyncAccountingShape) {
  auto stats = PairDevices(*home_agent_, *guest_agent_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Total constant data > delta after hard-linking > compressed wire bytes
  // (the paper's 215 MB -> 123 MB -> 56 MB pattern).
  EXPECT_GT(stats->framework_total_bytes, stats->framework_delta_bytes);
  EXPECT_GT(stats->framework_delta_bytes, stats->framework_wire_bytes / 2);
  EXPECT_GT(stats->framework_wire_bytes, 0u);
  EXPECT_GT(stats->framework_linked_bytes, 0u);
  // A meaningful share links: same Android build.
  EXPECT_GT(static_cast<double>(stats->framework_linked_bytes),
            0.25 * static_cast<double>(stats->framework_total_bytes));
  EXPECT_GT(stats->elapsed, 0);
  EXPECT_TRUE(home_agent_->IsPairedWith("n7-2013"));
  EXPECT_TRUE(guest_agent_->IsPairedWith("n7-2012"));
}

TEST_F(PairingTest, SharedFrameworkFilesHardLinked) {
  ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());
  const std::string pair_root = FluxAgent::PairRoot("n7-2012");
  // A build-shared file must be a hard link to the guest's own copy.
  const std::string shared = "/system/framework/file_000.bin";
  ASSERT_TRUE(guest_->filesystem().IsFile(pair_root + shared));
  EXPECT_TRUE(guest_->filesystem().SameInode(shared, pair_root + shared));
  // A device-specific file must be a real copy.
  const std::string vendor = "/system/vendor/lib/file_000.bin";
  ASSERT_TRUE(guest_->filesystem().IsFile(pair_root + vendor));
  EXPECT_FALSE(guest_->filesystem().SameInode(vendor, pair_root + vendor));
}

TEST_F(PairingTest, RePairingTransfersAlmostNothing) {
  ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());
  auto again = PairDevices(*home_agent_, *guest_agent_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->framework_delta_bytes, 0u);
  // Only per-file checksum metadata crosses the wire.
  EXPECT_LT(again->framework_wire_bytes, 64u * 1024);
}

TEST_F(PairingTest, AppPairingSyncsApkDataAndPseudoInstalls) {
  ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());
  AppSpec spec = *FindApp("WhatsApp");
  AppInstance app(*home_, spec);
  ASSERT_TRUE(app.Install().ok());
  auto wire = PairApp(*home_agent_, *guest_agent_, spec);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_GT(*wire, 0u);

  const std::string pair_root = FluxAgent::PairRoot("n7-2012");
  EXPECT_TRUE(guest_->filesystem().IsFile(
      pair_root + "/data/app/" + spec.package + "-1.apk"));
  EXPECT_TRUE(guest_->filesystem().IsDirectory(
      pair_root + "/data/data/" + spec.package));
  // WhatsApp has an app-specific SD directory.
  EXPECT_TRUE(guest_->filesystem().Exists(
      pair_root + "/sdcard/Android/data/" + spec.package));
  const PackageInfo* wrapper = guest_->package_manager().Find(spec.package);
  ASSERT_NE(wrapper, nullptr);
  EXPECT_TRUE(wrapper->pseudo_installed);
  EXPECT_EQ(wrapper->home_device, "n7-2012");
  EXPECT_GE(wrapper->uid, kFirstAppUid);
}

TEST_F(PairingTest, PairAppRequiresDevicePairing) {
  AppSpec spec = *FindApp("Bible");
  AppInstance app(*home_, spec);
  ASSERT_TRUE(app.Install().ok());
  EXPECT_EQ(PairApp(*home_agent_, *guest_agent_, spec).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PairingTest, PairAppRequiresInstalledApp) {
  ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());
  EXPECT_EQ(
      PairApp(*home_agent_, *guest_agent_, *FindApp("Bible")).status().code(),
      StatusCode::kNotFound);
}

TEST_F(PairingTest, ApkVerificationCheapWhenUnchanged) {
  ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());
  AppSpec spec = *FindApp("Twitter");
  AppInstance app(*home_, spec);
  ASSERT_TRUE(app.Install().ok());
  ASSERT_TRUE(PairApp(*home_agent_, *guest_agent_, spec).ok());
  auto wire = VerifyPairedApk(*home_agent_, *guest_agent_, spec);
  ASSERT_TRUE(wire.ok());
  EXPECT_LE(*wire, 64u);  // hash exchange only
}

TEST_F(PairingTest, ApkVerificationResyncsAfterUpdate) {
  ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());
  AppSpec spec = *FindApp("Twitter");
  AppInstance app(*home_, spec);
  ASSERT_TRUE(app.Install().ok());
  ASSERT_TRUE(PairApp(*home_agent_, *guest_agent_, spec).ok());

  // The app updates on the home device (apps update frequently, §3.1).
  ASSERT_TRUE(home_->filesystem().WriteFile(
      app.ApkPath(),
      GenerateNamedContent(spec.package + ":apk:v2", spec.apk_bytes, 0.25))
          .ok());
  auto wire = VerifyPairedApk(*home_agent_, *guest_agent_, spec);
  ASSERT_TRUE(wire.ok());
  EXPECT_GT(*wire, spec.apk_bytes / 4);  // the new APK crossed the wire
  // The paired copy now matches the updated APK.
  const std::string paired =
      FluxAgent::PairRoot("n7-2012") + "/data/app/" + spec.package + "-1.apk";
  EXPECT_EQ(guest_->filesystem().FileHash(paired).value(),
            home_->filesystem().FileHash(app.ApkPath()).value());
}

TEST_F(PairingTest, WireBytesArePinned) {
  // Framework sync both ways, then each app paired both ways: one whose
  // files all sit under the pool's split threshold (kLzSplitMinBytes) and
  // one whose APK is over it. Recorded when every synced copy was counted
  // afresh; the return hop's APK now reads the size memoized on its Blob.
  auto ab = PairDevices(*home_agent_, *guest_agent_);
  auto ba = PairDevices(*guest_agent_, *home_agent_);
  ASSERT_TRUE(ab.ok()) << ab.status().ToString();
  ASSERT_TRUE(ba.ok()) << ba.status().ToString();
  EXPECT_EQ(ab->framework_wire_bytes, 1203905u);
  EXPECT_EQ(ba->framework_wire_bytes, 1201475u);

  AppSpec small = *FindApp("Flappy Bird");
  small.package = "com.example.tiny";
  small.display_name = "Tiny";
  small.apk_bytes = KiB(96);
  small.data_dir_bytes = KiB(32);
  const AppSpec large = *FindApp("Flappy Bird");  // 1 MiB APK
  struct Pinned {
    const AppSpec* spec;
    uint64_t home_to_guest;
    uint64_t guest_to_home;
  };
  for (const Pinned& p : {Pinned{&small, 97704, 83558},
                          Pinned{&large, 1034551, 906177}}) {
    AppInstance app(*home_, *p.spec);
    ASSERT_TRUE(app.Install().ok());
    auto there = PairApp(*home_agent_, *guest_agent_, *p.spec);
    auto back = PairApp(*guest_agent_, *home_agent_, *p.spec);
    ASSERT_TRUE(there.ok()) << there.status().ToString();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*there, p.home_to_guest) << p.spec->package;
    EXPECT_EQ(*back, p.guest_to_home) << p.spec->package;
  }
}

TEST_F(PairingTest, PairingAdvancesClockByTransferTime) {
  const SimTime before = world_.clock().now();
  ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());
  EXPECT_GT(world_.clock().now(), before);
}

}  // namespace
}  // namespace flux
