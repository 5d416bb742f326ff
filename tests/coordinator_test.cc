// Migration coordinator tests: admission/queue ordering, per-AP contention
// math, cache-aware placement, pairing storms, dirty bursts, refusal
// semantics, and a 1k-device smoke run (also exercised under ASan/UBSan in
// CI's sanitizer job).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/base/event_queue.h"
#include "src/base/thread_pool.h"
#include "src/flux/coordinator.h"
#include "src/flux/cost_model.h"
#include "src/flux/trace.h"
#include "src/net/contended_link.h"

namespace flux {
namespace {

constexpr SimTime kForever = ~SimTime{0} >> 1;

// Small harness: one clock, one sharded scheduler, one fabric, one tracer.
// A non-null `pool` installs the parallel staged-event driver; results must
// not depend on it (ThreadCountDoesNotChangeAnyObservable).
struct Fleet {
  explicit Fleet(CoordinatorConfig cfg = {}, int shards = 4,
                 ThreadPool* pool = nullptr)
      : sched(&clock, shards), tracer(&clock) {
    sched.SetParallelDriver({pool, Millis(20)});
    cfg.trace = &tracer;
    coord = std::make_unique<MigrationCoordinator>(&sched, &fabric, cfg);
  }

  FleetDeviceId Dev(ContendedFabric::ApId ap, uint64_t peak_bps = 30'000'000) {
    FleetDeviceSpec spec;
    spec.name = "d" + std::to_string(coord->device_count());
    spec.ap = ap;
    spec.link_peak_bps = peak_bps;
    return coord->AddDevice(spec);
  }

  FleetAppId App(FleetDeviceId home, uint64_t image_bytes = 1 << 20,
                 uint64_t dirty_bytes_per_s = 0) {
    FleetAppSpec spec;
    spec.name = "app" + std::to_string(home);
    spec.home = home;
    spec.image_bytes = image_bytes;
    spec.dirty_bytes_per_s = dirty_bytes_per_s;
    return coord->AddApp(spec);
  }

  uint64_t Counter(std::string_view name) {
    return tracer.counter(name)->value();
  }

  SimClock clock;
  EventScheduler sched;
  ContendedFabric fabric;
  Tracer tracer;
  std::unique_ptr<MigrationCoordinator> coord;
};

TEST(ContendedFabricTest, EqualFlowsThroughOneApSplitItsCapacity) {
  ContendedFabric fabric;
  const auto ap = fabric.AddAp("ap0", 8'000'000);  // 8 Mbps airtime
  // Two 1 MB flows with ample station peaks: each gets cap/2 = 4 Mbps, so
  // both drain their 8 Mbit in exactly 2 simulated seconds.
  auto f1 = fabric.StartFlow(0, 1'000'000, 100'000'000, ap, ap);
  auto f2 = fabric.StartFlow(0, 1'000'000, 100'000'000, ap, ap);
  ASSERT_NE(f1, ContendedFabric::kInvalidFlow);
  ASSERT_NE(f2, ContendedFabric::kInvalidFlow);
  EXPECT_EQ(fabric.ActiveFlows(ap), 2);
  SimTime when = 0;
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Seconds(2)));
  std::vector<ContendedFabric::FinishedFlow> done;
  fabric.Settle(when, &done);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, f1);
  EXPECT_EQ(done[1].id, f2);
  EXPECT_EQ(fabric.ActiveFlows(ap), 0);
}

TEST(ContendedFabricTest, StationPeakCapsAnIdleAp) {
  ContendedFabric fabric;
  const auto ap = fabric.AddAp("ap0", 8'000'000);
  // One flow with a 2 Mbps station: the AP is idle but the station can't
  // fill its share, so 1 MB takes 4 s.
  fabric.StartFlow(0, 1'000'000, 2'000'000, ap, ap);
  SimTime when = 0;
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Seconds(4)));
}

TEST(ContendedFabricTest, CrossApFlowTakesTheTighterShare) {
  ContendedFabric fabric;
  const auto ap_a = fabric.AddAp("a", 8'000'000);
  const auto ap_b = fabric.AddAp("b", 2'000'000);
  // The cross flow is limited by its share on BOTH APs: b's 2 Mbps is the
  // bottleneck even though a is idle.
  fabric.StartFlow(0, 1'000'000, 100'000'000, ap_a, ap_b);
  EXPECT_EQ(fabric.ActiveFlows(ap_a), 1);
  EXPECT_EQ(fabric.ActiveFlows(ap_b), 1);
  SimTime when = 0;
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Seconds(4)));
}

// The cost model's throughputs are MiB/s (1024 * 1024 bytes), scaled by
// the device's CPU factor; a non-positive factor reads as the baseline.
TEST(CostModelTest, CpuCostIsMiBPerSecondAtTheCpuFactor) {
  constexpr uint64_t kMiB = 1024 * 1024;
  EXPECT_EQ(CpuCost(1.0, 25 * kMiB, kCompressMbps), Seconds(1));
  EXPECT_EQ(CpuCost(1.0, 120 * kMiB, kSerializeMbps), Seconds(1));
  EXPECT_EQ(CpuCost(2.0, 25 * kMiB, kDecompressMbps), Millis(500));
  EXPECT_EQ(CpuCost(0.0, 35 * kMiB, kRestoreMbps), Seconds(1));
  EXPECT_EQ(CpuCost(1.0, 0, kRestoreMbps), 0);
}

// The fleet charges the shared cost model: with nothing to contend with,
// admission to completion is exactly the stage sum MigrationManager's
// numbers give — prepare + serialize + compress at home, the cold bytes'
// fabric transfer, decompress + restore + reintegrate on the guest.
TEST(CoordinatorTest, UncontendedMigrationTakesTheCostModelStageSum) {
  Fleet fleet;
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  constexpr uint64_t kImage = 4 * kMigrationChunkBytes;
  const auto app = fleet.App(d0, kImage);
  ASSERT_TRUE(fleet.coord->RequestMigration(app, d1));
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->completed().size(), 1u);
  const FleetMigrationRecord& rec = fleet.coord->completed()[0];
  ASSERT_EQ(rec.chunks, 4u);
  ASSERT_EQ(rec.warm_chunks, 0u);  // cold guest: every byte is decompressed

  const SimDuration cpu_pre = kPrepareFixed +
                              CpuCost(1.0, kImage, kSerializeMbps) +
                              CpuCost(1.0, kImage, kCompressMbps);
  const SimDuration cpu_post = CpuCost(1.0, kImage, kDecompressMbps) +
                               CpuCost(1.0, kImage, kRestoreMbps) +
                               kReintegrateFixed;
  // The same wire bytes alone on an idle copy of the fabric.
  ContendedFabric idle;
  const auto idle_ap = idle.AddAp("ap0", 150'000'000);
  ASSERT_NE(idle.StartFlow(0, rec.wire_bytes, 30'000'000, idle_ap, idle_ap),
            ContendedFabric::kInvalidFlow);
  SimTime wire = 0;
  ASSERT_TRUE(idle.NextCompletion(0, &wire));
  EXPECT_EQ(rec.completed - rec.admitted,
            static_cast<SimTime>(cpu_pre + cpu_post) + wire);
}

TEST(CoordinatorTest, AdmitsFifoAndRecordsQueueWait) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 1;
  Fleet fleet(cfg);
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  const auto d2 = fleet.Dev(ap), d3 = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  fleet.coord->MarkPaired(d2, d3);
  const auto a0 = fleet.App(d0), a1 = fleet.App(d2);
  ASSERT_TRUE(fleet.coord->RequestMigration(a0));
  ASSERT_TRUE(fleet.coord->RequestMigration(a1));
  EXPECT_EQ(fleet.coord->inflight_migrations(), 1u);
  EXPECT_EQ(fleet.coord->queued_migrations(), 1u);
  fleet.sched.DrainUntil(kForever);
  const auto& done = fleet.coord->completed();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].app, a0);
  EXPECT_EQ(done[1].app, a1);
  // The second migration waited for the single slot.
  EXPECT_EQ(done[0].queue_wait(), 0);
  EXPECT_GT(done[1].queue_wait(), 0);
  EXPECT_EQ(done[1].admitted, done[0].completed);
  // Histogram count matches admissions; waits land in the snapshot.
  const auto wait = fleet.tracer.histogram(
      trace_names::kHistFleetQueueWait)->Take();
  EXPECT_EQ(wait.count, 2u);
  EXPECT_EQ(wait.max, static_cast<uint64_t>(done[1].queue_wait()));
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsAdmitted), 2u);
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsCompleted), 2u);
}

TEST(CoordinatorTest, BlockedHeadDoesNotBlockTheQueue) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 4;
  Fleet fleet(cfg);
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  const auto d2 = fleet.Dev(ap), d3 = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  fleet.coord->MarkPaired(d2, d3);
  const auto a0 = fleet.App(d0);      // in flight first
  const auto a0b = fleet.App(d0);     // blocked: d0 busy with a0
  const auto a2 = fleet.App(d2);      // runnable: must skip past a0b
  ASSERT_TRUE(fleet.coord->RequestMigration(a0));
  ASSERT_TRUE(fleet.coord->RequestMigration(a0b));
  ASSERT_TRUE(fleet.coord->RequestMigration(a2));
  // a2 was admitted immediately even though a0b sits ahead of it blocked.
  EXPECT_EQ(fleet.coord->inflight_migrations(), 2u);
  EXPECT_EQ(fleet.coord->queued_migrations(), 1u);
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->completed().size(), 3u);
  EXPECT_EQ(fleet.coord->completed()[0].app, a0);
  EXPECT_EQ(fleet.coord->completed()[1].app, a2);
  EXPECT_EQ(fleet.coord->completed()[2].app, a0b);
}

TEST(CoordinatorTest, PlacementPrefersTheWarmCache) {
  Fleet fleet;
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), cold = fleet.Dev(ap), warm = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, cold);
  fleet.coord->MarkPaired(d0, warm);
  fleet.coord->MarkPaired(cold, warm);
  const auto app = fleet.App(d0);  // zero dirty rate: chunks stay stable
  // Warm `warm` up: ship the app there and back explicitly.
  ASSERT_TRUE(fleet.coord->RequestMigration(app, warm));
  fleet.sched.DrainUntil(kForever);
  ASSERT_TRUE(fleet.coord->RequestMigration(app, d0));
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->AppHome(app), d0);
  // Auto placement must now pick `warm` over `cold` and ship refs only.
  ASSERT_TRUE(fleet.coord->RequestMigration(app));
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->completed().size(), 3u);
  const FleetMigrationRecord& rec = fleet.coord->completed().back();
  EXPECT_EQ(rec.guest, warm);
  EXPECT_EQ(rec.warm_chunks, rec.chunks);
  // A fully warm transfer ships only 16-byte refs.
  EXPECT_EQ(rec.wire_bytes, static_cast<uint64_t>(rec.chunks) * 16);
  EXPECT_GT(fleet.Counter(trace_names::kFleetPlacementWarmChunks), 0u);
  EXPECT_GT(fleet.Counter(trace_names::kFleetPlacementProbes), 0u);
}

TEST(CoordinatorTest, DirtyWritesCoolTheCacheBetweenHops) {
  Fleet fleet;
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  // 32 MiB image, heavy writes: chunks mutate between hops, and the
  // pre-cut window (~1.7 s of prepare + serialize + compress) spans
  // several 500 ms dirty bursts.
  const auto app = fleet.App(d0, 32 << 20, 2 << 20);
  ASSERT_TRUE(fleet.coord->RequestMigration(app, d1));
  fleet.sched.DrainUntil(kForever);
  // Let the app run (and dirty its hot set) for a while before returning.
  fleet.sched.ScheduleAfter(Seconds(30), [] {});
  fleet.sched.DrainUntil(kForever);
  ASSERT_TRUE(fleet.coord->RequestMigration(app, d0));
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->completed().size(), 2u);
  const FleetMigrationRecord& back = fleet.coord->completed().back();
  // The return hop finds d0's cache warm for the clean chunks but cold for
  // the rewritten hot set.
  EXPECT_GT(back.warm_chunks, 0u);
  EXPECT_LT(back.warm_chunks, back.chunks);
  EXPECT_GT(fleet.Counter(trace_names::kFleetDirtyBursts), 0u);
}

TEST(CoordinatorTest, PairingStormOf64DevicesRespectsTheCap) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_pairings = 4;
  Fleet fleet(cfg);
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  std::vector<FleetDeviceId> devs;
  for (int i = 0; i < 64; ++i) {
    devs.push_back(fleet.Dev(ap));
  }
  for (int i = 0; i < 64; i += 2) {
    ASSERT_TRUE(fleet.coord->RequestPairing(devs[i], devs[i + 1]));
  }
  EXPECT_EQ(fleet.coord->inflight_pairings(), 4u);
  fleet.sched.DrainUntil(kForever);
  EXPECT_EQ(fleet.coord->pairings_completed(), 32u);
  EXPECT_LE(fleet.coord->peak_concurrency(), 4);
  for (int i = 0; i < 64; i += 2) {
    EXPECT_TRUE(fleet.coord->IsPaired(devs[i], devs[i + 1]));
    EXPECT_FALSE(fleet.coord->DeviceBusy(devs[i]));
  }
  EXPECT_EQ(fleet.Counter(trace_names::kFleetPairingsCompleted), 32u);
}

TEST(CoordinatorTest, RefusalSemantics) {
  Fleet fleet;
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  const auto lonely = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  const auto app = fleet.App(d0);
  const auto stranded = fleet.App(lonely);
  EXPECT_FALSE(fleet.coord->RequestMigration(9999));      // unknown app
  EXPECT_FALSE(fleet.coord->RequestMigration(stranded));  // no paired peer
  EXPECT_FALSE(fleet.coord->RequestMigration(app, lonely));  // unpaired guest
  ASSERT_TRUE(fleet.coord->RequestMigration(app));
  EXPECT_FALSE(fleet.coord->RequestMigration(app));  // already migrating
  fleet.sched.DrainUntil(kForever);
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsRefused), 4u);
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsCompleted), 1u);
}

TEST(CoordinatorTest, ThousandDeviceSmoke) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 32;
  Fleet fleet(cfg, 8);
  constexpr int kDevices = 1000;
  for (int a = 0; a < (kDevices + 63) / 64; ++a) {
    fleet.fabric.AddAp("ap" + std::to_string(a), 150'000'000);
  }
  std::vector<FleetAppId> apps;
  for (int g = 0; g < kDevices / 4; ++g) {
    FleetDeviceId ids[4];
    for (int d = 0; d < 4; ++d) {
      ids[d] = fleet.Dev(static_cast<ContendedFabric::ApId>(
          (g * 4 + d) / 64));
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        fleet.coord->MarkPaired(ids[i], ids[j]);
      }
    }
    apps.push_back(fleet.App(ids[0], 2 << 20, 64 << 10));
  }
  // Stagger one migration per app across a minute.
  for (size_t i = 0; i < apps.size(); ++i) {
    const FleetAppId app = apps[i];
    fleet.sched.ScheduleAt(
        static_cast<SimTime>(Millis(static_cast<int64_t>(i) * 240)),
        [&fleet, app] { fleet.coord->RequestMigration(app); },
        static_cast<uint32_t>(i % 8));
  }
  fleet.sched.DrainUntil(kForever);
  EXPECT_EQ(fleet.coord->completed().size(), apps.size());
  EXPECT_EQ(fleet.coord->inflight_migrations(), 0u);
  EXPECT_EQ(fleet.coord->queued_migrations(), 0u);
  EXPECT_GE(fleet.coord->peak_concurrency(), 1);
  EXPECT_EQ(fleet.fabric.active_flows(), 0u);
  // Every app re-homed onto one of its group peers.
  for (size_t g = 0; g < apps.size(); ++g) {
    const FleetDeviceId home = fleet.coord->AppHome(apps[g]);
    EXPECT_NE(home, static_cast<FleetDeviceId>(g * 4));
    EXPECT_GE(home, static_cast<FleetDeviceId>(g * 4));
    EXPECT_LT(home, static_cast<FleetDeviceId>(g * 4 + 4));
  }
}

// The 1k-device fleet's simulated results, pinned exactly. The smoke above
// ships no warm chunk (each app hops once, to a guest that never held it),
// so this fleet adds what makes results depend on the chunk caches: a
// pairing storm that seeds guests, return hops that find warm caches, dirty
// writes that cool them, two apps per group competing for each cache, and
// a budget small enough that eviction decides which chunks survive. A
// change to which chunks hit or which are evicted moves these numbers.
TEST(CoordinatorTest, ThousandDeviceSimIsPinned) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 16;
  cfg.max_concurrent_pairings = 16;
  Fleet fleet(cfg, 8);
  constexpr int kDevices = 1000;
  for (int a = 0; a < (kDevices + 63) / 64; ++a) {
    fleet.fabric.AddAp("ap" + std::to_string(a), 150'000'000);
  }
  std::vector<FleetAppId> apps;
  for (int g = 0; g < kDevices / 4; ++g) {
    FleetDeviceId ids[4];
    for (int d = 0; d < 4; ++d) {
      FleetDeviceSpec spec;
      spec.name = "d" + std::to_string(g * 4 + d);
      spec.ap = static_cast<ContendedFabric::ApId>((g * 4 + d) / 64);
      spec.link_peak_bps = 20'000'000 + ((g * 7 + d) % 5) * 4'000'000;
      spec.cache_budget_bytes = 256;  // ~20 seeds: evicts at every scale
      ids[d] = fleet.coord->AddDevice(spec);
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (g < 16) {
          fleet.coord->RequestPairing(ids[i], ids[j]);
        } else {
          fleet.coord->MarkPaired(ids[i], ids[j]);
        }
      }
    }
    // Two apps per group share its devices' caches, so one app's probes
    // and inserts decide which of the other's chunks are evicted.
    apps.push_back(
        fleet.App(ids[0], (1 + g % 8) << 20, (64 + 32 * (g % 5)) << 10));
    apps.push_back(
        fleet.App(ids[2], (2 + g % 5) << 20, (96 + 32 * (g % 3)) << 10));
  }
  uint64_t refused = 0;
  for (size_t i = 0; i < apps.size(); ++i) {
    const FleetAppId app = apps[i];
    for (int hop = 0; hop < 3; ++hop) {
      fleet.sched.ScheduleAt(
          static_cast<SimTime>(Seconds(1 + hop * 8)) +
              static_cast<SimTime>(Millis(static_cast<int64_t>(i) * 20)),
          [&fleet, &refused, app] {
            if (!fleet.coord->RequestMigration(app)) {
              ++refused;
            }
          },
          static_cast<uint32_t>(i % 8));
    }
  }
  fleet.sched.DrainUntil(kForever);

  const std::vector<FleetMigrationRecord>& done = fleet.coord->completed();
  uint64_t wire_bytes = 0;
  uint64_t warm_chunks = 0;
  std::vector<SimDuration> waits;
  for (const FleetMigrationRecord& rec : done) {
    wire_bytes += rec.wire_bytes;
    warm_chunks += rec.warm_chunks;
    waits.push_back(rec.queue_wait());
  }
  std::sort(waits.begin(), waits.end());
  ASSERT_FALSE(waits.empty());
  EXPECT_EQ(done.size() + refused, 3 * apps.size());
  EXPECT_EQ(fleet.coord->pairings_completed(), 96u);
  EXPECT_EQ(done.size(), 689u);
  EXPECT_EQ(refused, 811u);
  EXPECT_EQ(wire_bytes, 1042263223u);
  EXPECT_EQ(warm_chunks, 2781u);
  EXPECT_EQ(waits[(waits.size() - 1) / 2], 27209857);        // p50, us
  EXPECT_EQ(waits[(waits.size() - 1) * 99 / 100], 43047207);  // p99, us
}

// ----- Parallel-driver determinism (DESIGN.md §12) -----

// Runs a small mixed fleet (pairing storm + staggered ping-pong migrations
// with dirty writes) and digests every observable: the full completion
// record sequence, every tracer counter, and every histogram snapshot.
// The tests don't link the bench harness, so the digest is built here
// rather than via TracerStatsJson — same idea, same coverage.
std::string RunFleetDigest(ThreadPool* pool) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 16;
  cfg.max_concurrent_pairings = 8;
  Fleet fleet(cfg, 8, pool);
  constexpr int kGroups = 40;
  for (int a = 0; a < (kGroups * 4 + 63) / 64; ++a) {
    fleet.fabric.AddAp("ap" + std::to_string(a), 150'000'000);
  }
  std::vector<FleetAppId> apps;
  for (int g = 0; g < kGroups; ++g) {
    FleetDeviceId ids[4];
    for (int d = 0; d < 4; ++d) {
      ids[d] = fleet.Dev(
          static_cast<ContendedFabric::ApId>((g * 4 + d) / 64),
          20'000'000 + static_cast<uint64_t>(g) * 500'000);
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (g < 8) {
          fleet.coord->RequestPairing(ids[i], ids[j]);  // storm path
        } else {
          fleet.coord->MarkPaired(ids[i], ids[j]);
        }
      }
    }
    apps.push_back(fleet.App(ids[0], (2 + g % 7) << 20, 128 << 10));
  }
  for (size_t i = 0; i < apps.size(); ++i) {
    const FleetAppId app = apps[i];
    for (int hop = 0; hop < 2; ++hop) {
      fleet.sched.ScheduleAt(
          static_cast<SimTime>(Seconds(1 + hop * 40)) +
              static_cast<SimTime>(Millis(static_cast<int64_t>(i) * 330)),
          [&fleet, app] { fleet.coord->RequestMigration(app); },
          static_cast<uint32_t>(i % 8));
    }
  }
  fleet.sched.DrainUntil(kForever);

  std::string digest;
  for (const FleetMigrationRecord& r : fleet.coord->completed()) {
    digest += std::to_string(r.app) + "/" + std::to_string(r.home) + ">" +
              std::to_string(r.guest) + "@" + std::to_string(r.submitted) +
              "," + std::to_string(r.admitted) + "," +
              std::to_string(r.completed) + ":" +
              std::to_string(r.wire_bytes) + "," + std::to_string(r.chunks) +
              "," + std::to_string(r.warm_chunks) + "\n";
  }
  for (const auto& [name, value] : fleet.tracer.Counters()) {
    digest += name + "=" + std::to_string(value) + "\n";
  }
  for (const auto& [name, snap] : fleet.tracer.Histograms()) {
    digest += name + ":" + std::to_string(snap.count) + "," +
              std::to_string(snap.sum) + "," + std::to_string(snap.max) +
              "\n";
  }
  const auto& ds = fleet.sched.driver_stats();
  digest += "windows=" + std::to_string(ds.windows) +
            " window_events=" + std::to_string(ds.window_events) +
            " serial=" + std::to_string(ds.serial_events) +
            " mailbox=" + std::to_string(ds.mailbox_ops) + "\n";
  return digest;
}

TEST(CoordinatorDeterminismTest, ThreadCountDoesNotChangeAnyObservable) {
  const std::string serial = RunFleetDigest(nullptr);
  // The coordinator's staged events must actually have exercised the
  // window machinery, or this test compares two serial runs.
  EXPECT_NE(serial.find("window_events="), std::string::npos);
  EXPECT_EQ(serial.find("window_events=0 "), std::string::npos) << serial;
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const std::string two = RunFleetDigest(&pool2);
  const std::string eight = RunFleetDigest(&pool8);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

}  // namespace
}  // namespace flux
