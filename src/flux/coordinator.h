// Fleet-scale migration coordinator (DESIGN.md §11).
//
// One MigrationManager moves one app between one device pair. At fleet
// scale — thousands of paired devices, many migrations in flight — someone
// has to decide *when* each migration may start and *where* it should land.
// The coordinator is that admission/placement service, modeled after
// flux-core's broker: content-addressed state (the per-device ChunkCache
// fed by the dedup manifest probe) drives placement, and a FIFO admission
// queue with per-device exclusivity and a global concurrency cap drives
// scheduling.
//
// The fleet itself is a lightweight model, not 10k full Devices: a
// FleetDevice is a name, an AP attachment, a CPU factor, and a real
// ChunkCache whose entries stand in for the device's content-addressed
// store (each modeled 256 KiB image chunk is keyed by the FluxHash128 of a
// small per-(app, chunk, generation) seed string — real hashes, really
// verified, just not 256 KiB of payload per entry). Everything is driven by
// the sharded EventScheduler: admission retries, stage completions,
// dirty-write bursts, and the ContendedFabric's transfer completions are
// all timed wake-ups, so an idle fleet costs nothing per virtual second.
//
// Migration lifecycle (each edge is one scheduler event):
//
//   Request ── queue (FIFO, head-of-line skip past blocked entries)
//      └─ Admit: home+guest free, global slot free. Placement picks the
//         paired candidate with the warmest cache (dedup manifest probe:
//         ChunkCache::HasValid per current chunk hash), tiebreak by AP
//         load, then device index.
//      └─ cpu_pre: prepare + checkpoint serialize + compress on the home
//         CPU (dirty bursts keep mutating chunks until the cut).
//      └─ wire: the cold-chunk bytes flow through the ContendedFabric;
//         concurrent flows through a shared AP stretch each other.
//      └─ cpu_post: decompress + restore on the guest CPU + reintegrate.
//      └─ Complete: caches warmed on both sides, app re-homed, devices
//         freed, next queue entries admitted.
//
// Pairing storms (N devices booting and pairing at once) run through the
// same queue machinery with their own concurrency cap and a framework-sync
// flow sized by the paper's pairing constants; completion seeds the guest's
// cache with the partner's app chunks, which is what makes later placement
// prefer it.
#ifndef FLUX_SRC_FLUX_COORDINATOR_H_
#define FLUX_SRC_FLUX_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "src/base/event_queue.h"
#include "src/base/hash.h"
#include "src/base/sim_clock.h"
#include "src/flux/trace.h"
#include "src/net/contended_link.h"

namespace flux {

using FleetDeviceId = uint32_t;
using FleetAppId = uint32_t;
inline constexpr FleetDeviceId kNoFleetDevice = ~FleetDeviceId{0};

struct FleetDeviceSpec {
  std::string name;
  ContendedFabric::ApId ap = 0;
  // Station peak goodput (the per-device side of bandwidth contention: a
  // flow never exceeds the slower endpoint's peak, however idle the AP is).
  uint64_t link_peak_bps = 30'000'000;
  double cpu_factor = 1.0;
  // Budget of the modeled content-addressed store. Entries are ~tens of
  // bytes (seed strings), so this bounds entry count, not modeled bytes.
  uint64_t cache_budget_bytes = 256 * 1024;
};

struct FleetAppSpec {
  std::string name;
  FleetDeviceId home = 0;
  uint64_t image_bytes = 32 * 1024 * 1024;
  // Write load while the app runs; between migrations it accrues lazily,
  // during the pre-cut window it is applied by dirty-burst wake-ups.
  uint64_t dirty_bytes_per_s = 256 * 1024;
  // Fraction of the image the write load cycles over (the hot set).
  double hot_fraction = 0.25;
  // Wire bytes per raw byte for chunks the guest cache is missing.
  double compress_ratio = 0.45;
};

// Stage costs and the chunk size come from the shared cost model
// (cost_model.h), the same numbers MigrationManager charges.
struct CoordinatorConfig {
  // Global admission slots for migrations / pairings.
  int max_concurrent_migrations = 32;
  int max_concurrent_pairings = 16;
  // Observability: fleet.* counters, fleet.queue_wait_us / fleet.concurrency
  // histograms, coordinator/* spans. Null = no tracing.
  Tracer* trace = nullptr;
  // Per-migration coordinator/* spans can dominate Tracer memory at 100k
  // fleet scale; off keeps counters+histograms only.
  bool trace_spans = true;
};

// One finished migration, for bench tables.
struct FleetMigrationRecord {
  FleetAppId app = 0;
  FleetDeviceId home = 0;
  FleetDeviceId guest = 0;
  SimTime submitted = 0;
  SimTime admitted = 0;
  SimTime completed = 0;
  uint64_t wire_bytes = 0;
  uint32_t chunks = 0;
  uint32_t warm_chunks = 0;  // shipped as refs thanks to the guest cache
  // Causal trace context minted at admission (telemetry.h). Every
  // coordinator/* span for this migration carries it, so a fleet record
  // stitches straight into the Chrome trace's flow chain.
  TraceContext ctx;
  SimDuration queue_wait() const {
    return static_cast<SimDuration>(admitted - submitted);
  }
};

class MigrationCoordinator {
 public:
  // `scheduler` (and its clock) must outlive the coordinator. Device
  // wake-ups land on shard (device index % scheduler->shards()).
  MigrationCoordinator(EventScheduler* scheduler, ContendedFabric* fabric,
                       CoordinatorConfig config = {});
  ~MigrationCoordinator();

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  FleetDeviceId AddDevice(const FleetDeviceSpec& spec);
  FleetAppId AddApp(const FleetAppSpec& spec);
  size_t device_count() const { return devices_.size(); }

  // Marks `a` and `b` paired immediately (fleet bootstrap without storms).
  void MarkPaired(FleetDeviceId a, FleetDeviceId b);
  bool IsPaired(FleetDeviceId a, FleetDeviceId b) const;

  // Queues a pairing (framework sync through the contended fabric; seeds
  // b's cache with a's app chunks on completion). Returns false for
  // unknown/identical devices.
  bool RequestPairing(FleetDeviceId a, FleetDeviceId b);

  // Queues a migration of `app` off its current home. `guest` may be
  // kNoFleetDevice: placement then picks the warmest-cache paired
  // candidate at admission time. Returns false (and counts a refusal) if
  // the app is unknown, already migrating, or has no paired candidate.
  bool RequestMigration(FleetAppId app, FleetDeviceId guest = kNoFleetDevice);

  // Where `app` currently lives / whether it is queued or in flight.
  FleetDeviceId AppHome(FleetAppId app) const;
  bool AppMigrating(FleetAppId app) const;
  bool DeviceBusy(FleetDeviceId device) const;

  // Fleet results & gauges.
  const std::vector<FleetMigrationRecord>& completed() const {
    return completed_;
  }
  size_t queued_migrations() const { return migration_queue_.size(); }
  size_t inflight_migrations() const {
    return static_cast<size_t>(active_migrations_);
  }
  size_t inflight_pairings() const {
    return static_cast<size_t>(active_pairings_);
  }
  size_t pairings_completed() const { return pairings_completed_; }
  int peak_concurrency() const { return peak_concurrency_; }

  // Trace contexts of every admitted, still in-flight migration (queued
  // entries have no context yet — it is minted at admission). Feed for
  // TimeSeriesSampler::SetContextProvider, so each sample window knows
  // which causal chains were live when it was cut. Order is the
  // deterministic admission-table order, not sorted; the time-series JSON
  // exporter canonicalizes.
  std::vector<TraceContext> InflightContexts() const;

 private:
  struct FleetDevice;
  struct FleetApp;
  struct PendingMigration;
  struct PendingPairing;

  SimTime now() const { return scheduler_->clock().now(); }
  uint32_t ShardOf(FleetDeviceId device) const;

  static uint32_t ChunkCount(const FleetApp& app);

  // Applies the app's write load for the wall of time since its last
  // mutation point: bumps generations round-robin over the hot set.
  void AccrueDirt(FleetApp& app, SimTime upto);

  // Admission sweep: admits every eligible queue entry in FIFO order
  // (blocked entries are skipped, not head-of-line blocking the fleet).
  void PumpQueues();
  void AdmitMigration(PendingMigration req, FleetDeviceId guest);
  void AdmitPairing(PendingPairing req);

  // Placement: warmest cache wins (dedup manifest probe over the app's
  // current chunk hashes), tiebreak lower AP load then lower id. Returns
  // kNoFleetDevice when no paired candidate is free.
  FleetDeviceId PlaceGuest(const FleetApp& app);

  // Stage transitions (each runs as a scheduler event). The per-migration
  // heavy ones — checkpoint cut, completion, dirty bursts — are *staged*
  // events (DESIGN.md §12): the run phase executes on the home/guest
  // device's shard, touching only state this migration owns (its app, its
  // two busy devices' caches) plus relaxed-atomic counters, so different
  // migrations' cuts hash and probe in parallel; fabric flows, queue pumps,
  // re-homing, and records happen in the serial commit phase. Everything
  // else (pump, settles, pairings, arrivals) stays a barrier event.
  void OnCheckpointCut(uint64_t migration_key);        // staged run
  void OnCheckpointCutCommit(uint64_t migration_key);  // serial commit
  void OnFlowsSettled();
  void OnMigrationDone(uint64_t migration_key);        // staged run
  void OnMigrationDoneCommit(uint64_t migration_key);  // serial commit
  void OnPairingFlowDone(uint64_t pairing_key);
  void FinishPairing(uint64_t pairing_key);
  void ScheduleFabricWakeup();
  void DirtyBurst(uint64_t migration_key);

  EventScheduler* scheduler_;
  ContendedFabric* fabric_;
  CoordinatorConfig config_;

  std::vector<std::unique_ptr<FleetDevice>> devices_;
  std::vector<std::unique_ptr<FleetApp>> apps_;

  std::deque<uint64_t> migration_queue_;  // keys into pending_migrations_
  std::deque<uint64_t> pairing_queue_;
  // Live in-flight + queued state, keyed by a monotonically increasing id
  // (stable across vector growth; events close over keys, not pointers).
  std::unordered_map<uint64_t, std::unique_ptr<PendingMigration>>
      pending_migrations_;
  // Contexts of admitted migrations, keyed like pending_migrations_. A side
  // table so InflightContexts() — called once per telemetry sample — walks
  // only the <= max_concurrent_migrations admitted entries instead of the
  // whole pending map, where queued (context-less) entries dominate at
  // fleet scale. Kept contiguous (swap-and-pop erase via the key index) so
  // the per-sample walk is a flat scan, not a node-pointer chase.
  std::vector<std::pair<uint64_t, TraceContext>> admitted_ctxs_;
  std::unordered_map<uint64_t, size_t> admitted_ctx_index_;
  std::unordered_map<uint64_t, std::unique_ptr<PendingPairing>>
      pending_pairings_;
  std::unordered_map<ContendedFabric::FlowId, uint64_t> flow_to_migration_;
  std::unordered_map<ContendedFabric::FlowId, uint64_t> flow_to_pairing_;
  uint64_t next_key_ = 1;

  int active_migrations_ = 0;
  int active_pairings_ = 0;
  int peak_concurrency_ = 0;
  size_t pairings_completed_ = 0;
  EventId fabric_wakeup_;

  std::vector<FleetMigrationRecord> completed_;

  // Cached trace handles (null without a tracer).
  TraceCounter* ctr_requested_ = nullptr;
  TraceCounter* ctr_admitted_ = nullptr;
  TraceCounter* ctr_completed_ = nullptr;
  TraceCounter* ctr_refused_ = nullptr;
  TraceCounter* ctr_pairings_ = nullptr;
  TraceCounter* ctr_probes_ = nullptr;
  TraceCounter* ctr_warm_chunks_ = nullptr;
  TraceCounter* ctr_wire_bytes_ = nullptr;
  TraceCounter* ctr_dirty_bursts_ = nullptr;
  TraceHistogram* hist_queue_wait_ = nullptr;
  TraceHistogram* hist_concurrency_ = nullptr;
};

}  // namespace flux

#endif  // FLUX_SRC_FLUX_COORDINATOR_H_
