// Tracing & metrics for the migration path (the observability layer).
//
// Figure 13's stage breakdown is exactly a trace: named intervals on the
// shared simulated timeline. This module makes that first-class instead of
// ad hoc per-bench timers: a Tracer collects hierarchical spans (stamped on
// the SimClock, nestable, thread-safe — the pipelined compression pool
// records from worker threads) and named monotonic counters (bytes on the
// wire, chunks deduped, calls recorded and pruned, replay adaptations,
// rollbacks). Two exporters turn one Tracer — or a batch of them — into
// something a human can read: a Chrome trace_event JSON writer (loadable in
// chrome://tracing or Perfetto) and a plain-text phase-breakdown report.
//
// Design constraints (DESIGN.md §9):
//  - lock-cheap: counters are atomics incremented relaxed through cached
//    pointers; spans take one mutex acquisition at open and one at close;
//  - sim-clock-aware: spans stamp SimTime from the world clock, so traces
//    are deterministic and phase sums reproduce the figure benches exactly;
//  - zero-cost when compiled out: every instrumentation site goes through
//    the FLUX_TRACE_* macros below, which collapse to dead code when
//    FLUX_TRACE_ENABLED is 0 (cmake -DFLUX_TRACE=OFF);
//  - runtime-toggleable: a null Tracer* disables every site at run time.
//
// This library depends only on flux_base so the net, binder, and cria
// layers (all below flux_core) can link it.
#ifndef FLUX_SRC_FLUX_TRACE_H_
#define FLUX_SRC_FLUX_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/sim_clock.h"

// Compile-time master switch. The default build compiles instrumentation
// in; configuring with -DFLUX_TRACE=OFF defines FLUX_TRACE_ENABLED=0 and
// every FLUX_TRACE_* macro below becomes a discarded dead branch.
#ifndef FLUX_TRACE_ENABLED
#define FLUX_TRACE_ENABLED 1
#endif

namespace flux {

// ----- canonical names -----
//
// Span taxonomy and counter catalog. Every counter the runtime registers is
// named here (and only here) so OBSERVABILITY.md and scripts/check_trace.py
// can enumerate them from a single source.
namespace trace_names {

// The six canonical migration phases. Every successful migration emits each
// exactly once (tests/trace_test.cc pins this). prepare..reintegrate tile
// the migration end to end on the main track; compress and replay are
// sub-phases (compress overlaps transfer on the pipelined path, so they
// live on the detail track).
inline constexpr std::string_view kSpanPrepare = "migration/prepare";
inline constexpr std::string_view kSpanCheckpoint = "migration/checkpoint";
inline constexpr std::string_view kSpanCompress = "migration/compress";
inline constexpr std::string_view kSpanTransfer = "migration/transfer";
inline constexpr std::string_view kSpanRestore = "migration/restore";
inline constexpr std::string_view kSpanReplay = "migration/replay";
// Companions: the fig13 table's fifth column, the whole migration, the
// post-copy tail past reintegration, and the pre-image data sync.
inline constexpr std::string_view kSpanReintegrate = "migration/reintegrate";
inline constexpr std::string_view kSpanTotal = "migration/total";
inline constexpr std::string_view kSpanBackgroundTail =
    "migration/background_tail";
inline constexpr std::string_view kSpanDataSync = "migration/data_sync";
// Pre-copy (DESIGN.md §10): the iterative warm-up window before the final
// stop-and-copy. The window span covers all rounds and lives inside the
// checkpoint phase on the detail track; each round additionally emits a
// "precopy/round/<n>" span on the precopy track.
inline constexpr std::string_view kSpanPrecopyWindow = "migration/precopy";
inline constexpr std::string_view kTrackPrecopy = "precopy";
inline constexpr std::string_view kSpanPrecopyRoundPrefix = "precopy/round/";
// Lower layers.
inline constexpr std::string_view kSpanCriaCheckpoint = "cria/checkpoint";
inline constexpr std::string_view kSpanCriaRestore = "cria/restore";
inline constexpr std::string_view kSpanPairDevices = "pairing/devices";
inline constexpr std::string_view kSpanPairApp = "pairing/app";
inline constexpr std::string_view kSpanVerifyApk = "pairing/verify_apk";
// Per-chunk pipeline stage spans land on tracks named
// "pipeline/<stage>" (serialize, compress, wire, decompress, restore).
inline constexpr std::string_view kTrackDetail = "migration/detail";
inline constexpr std::string_view kTrackPipelinePrefix = "pipeline/";
// Fleet coordinator (DESIGN.md §11): one span per coordinated migration
// (admission -> completion) and one per queue residency (submission ->
// admission), all on the "coordinator" track; pairings likewise.
inline constexpr std::string_view kTrackCoordinator = "coordinator";
inline constexpr std::string_view kSpanCoordMigration =
    "coordinator/migration";
inline constexpr std::string_view kSpanCoordQueueWait =
    "coordinator/queue_wait";
inline constexpr std::string_view kSpanCoordPairing = "coordinator/pairing";
// Resumable transfers (DESIGN.md §13): one span per connectivity stall a
// migration rode out — outage onset to the post-handshake first
// retransmitted byte — on the detail track, inside the transfer phase.
inline constexpr std::string_view kSpanResume = "migration/resume";

// Counters.
inline constexpr std::string_view kMigrationRollbacks = "migration.rollbacks";
inline constexpr std::string_view kMigrationChunksTotal =
    "migration.chunks_total";
inline constexpr std::string_view kMigrationChunksDeduped =
    "migration.chunks_deduped";
inline constexpr std::string_view kNetWireBytes = "net.wire_bytes";
inline constexpr std::string_view kNetTransfers = "net.transfers";
inline constexpr std::string_view kNetTransferTicks = "net.transfer_ticks";
// Wire framing (src/net/frame.h): per-frame outcomes under a hostile
// profile. All zero under the clean profile (framing is never exercised).
inline constexpr std::string_view kNetFramesSent = "net.frame.sent";
inline constexpr std::string_view kNetFramesLost = "net.frame.lost";
inline constexpr std::string_view kNetFrameCrcErrors = "net.frame.crc_errors";
inline constexpr std::string_view kNetFramesRecovered =
    "net.frame.fec_recovered";
inline constexpr std::string_view kNetFramesRetransmitted =
    "net.frame.retransmitted";
inline constexpr std::string_view kCacheHits = "cache.hits";
inline constexpr std::string_view kCacheMisses = "cache.misses";
inline constexpr std::string_view kCacheInsertions = "cache.insertions";
inline constexpr std::string_view kCacheRefreshes = "cache.refreshes";
inline constexpr std::string_view kCacheEvictions = "cache.evictions";
inline constexpr std::string_view kCacheVerifyFailures =
    "cache.verify_failures";
inline constexpr std::string_view kRecordTransactionsSeen =
    "record.transactions_seen";
inline constexpr std::string_view kRecordCallsRecorded =
    "record.calls_recorded";
inline constexpr std::string_view kRecordCallsPruned = "record.calls_pruned";
inline constexpr std::string_view kRecordCallsSuppressed =
    "record.calls_suppressed";
inline constexpr std::string_view kReplayCallsReplayed =
    "replay.calls_replayed";
inline constexpr std::string_view kReplayCallsProxied = "replay.calls_proxied";
inline constexpr std::string_view kReplayCallsSkipped = "replay.calls_skipped";
inline constexpr std::string_view kReplayCallsAdapted = "replay.calls_adapted";
inline constexpr std::string_view kReplayCallsFailed = "replay.calls_failed";
inline constexpr std::string_view kBinderTransactions = "binder.transactions";
inline constexpr std::string_view kCriaCheckpoints = "cria.checkpoints";
inline constexpr std::string_view kCriaRestores = "cria.restores";
inline constexpr std::string_view kCriaImageBytes = "cria.image_bytes";
inline constexpr std::string_view kPairingWireBytes = "pairing.wire_bytes";
inline constexpr std::string_view kMigrationRollbackFailures =
    "migration.rollback_failures";
// Pre-copy rounds (DESIGN.md §10).
inline constexpr std::string_view kPrecopyRounds = "precopy.rounds";
inline constexpr std::string_view kPrecopyWireBytes = "precopy.wire_bytes";
inline constexpr std::string_view kPrecopyDirtyBytes = "precopy.dirty_bytes";
inline constexpr std::string_view kPrecopyChunksResent =
    "precopy.chunks_resent";
inline constexpr std::string_view kPrecopyAbortedConvergence =
    "precopy.aborted_convergence";
inline constexpr std::string_view kPrecopyFinalRecuts = "precopy.final_recuts";
// Resumable transfers (DESIGN.md §13).
inline constexpr std::string_view kMigrationResumeAttempts =
    "migration.resume_attempts";
inline constexpr std::string_view kMigrationResumeChunksAcked =
    "migration.resume_chunks_acked";
inline constexpr std::string_view kMigrationResumeRetransmitBytes =
    "migration.resume_retransmit_bytes";
inline constexpr std::string_view kMigrationResumeLostBytes =
    "migration.resume_lost_bytes";
// Fleet coordinator (DESIGN.md §11).
inline constexpr std::string_view kFleetMigrationsRequested =
    "fleet.migrations_requested";
inline constexpr std::string_view kFleetMigrationsAdmitted =
    "fleet.migrations_admitted";
inline constexpr std::string_view kFleetMigrationsCompleted =
    "fleet.migrations_completed";
inline constexpr std::string_view kFleetMigrationsRefused =
    "fleet.migrations_refused";
inline constexpr std::string_view kFleetPairingsCompleted =
    "fleet.pairings_completed";
inline constexpr std::string_view kFleetPlacementProbes =
    "fleet.placement_probes";
inline constexpr std::string_view kFleetPlacementWarmChunks =
    "fleet.placement_warm_chunks";
inline constexpr std::string_view kFleetWireBytes = "fleet.wire_bytes";
inline constexpr std::string_view kFleetDirtyBursts = "fleet.dirty_bursts";
// Parallel scheduler driver (DESIGN.md §12). Copied from
// EventScheduler::DriverStats after a fleet run; every value is a pure
// function of the schedule calls — identical at every thread count — so
// the byte-identity gate can include them in the stats digest.
inline constexpr std::string_view kFleetSchedWindows = "fleet.sched.windows";
inline constexpr std::string_view kFleetSchedWindowEvents =
    "fleet.sched.window_events";
inline constexpr std::string_view kFleetSchedSerialEvents =
    "fleet.sched.serial_events";
inline constexpr std::string_view kFleetSchedMailboxOps =
    "fleet.sched.mailbox_ops";

// Histograms (log-bucketed latency distributions; all values in simulated
// microseconds, hence the `_us` suffix — scripts/check_forensics.py keys the
// histogram catalog off it).
inline constexpr std::string_view kHistPipelineSerialize =
    "pipeline.serialize_us";
inline constexpr std::string_view kHistPipelineCompress =
    "pipeline.compress_us";
inline constexpr std::string_view kHistPipelineWire = "pipeline.wire_us";
inline constexpr std::string_view kHistPipelineDecompress =
    "pipeline.decompress_us";
inline constexpr std::string_view kHistPipelineRestore =
    "pipeline.restore_us";
// User-perceived unavailability per migration (MigrationReport::
// UserPerceived()), recorded once at the end of every traced Migrate().
// The SLO catalog's p99-perceived objective (telemetry.h) reads its
// windowed deltas.
inline constexpr std::string_view kHistMigrationPerceived =
    "migration.perceived_us";
inline constexpr std::string_view kHistRecordTxn = "record.txn_cost_us";
inline constexpr std::string_view kHistReplayCall = "replay.call_us";
inline constexpr std::string_view kHistNetTick = "net.tick_us";
// Fleet coordinator histograms: queue residency (submission -> admission)
// in simulated micros, and the in-flight migration count sampled at every
// admission (dimensionless — the one catalog entry without a `_us` unit).
// bench_fleet's percentiles come from these snapshots, not ad-hoc sorting.
inline constexpr std::string_view kHistFleetQueueWait = "fleet.queue_wait_us";
inline constexpr std::string_view kHistFleetConcurrency = "fleet.concurrency";
// Shards running per parallel window (dimensionless, like
// fleet.concurrency): the shard-utilization distribution of the parallel
// scheduler driver, fed from DriverStats::window_shards after a fleet run.
inline constexpr std::string_view kHistFleetSchedWindowShards =
    "fleet.sched.window_shards";

}  // namespace trace_names

// ----- causal trace context -----
//
// A 128-bit causal identity minted once per migration — at coordinator
// admission for fleet runs, or at MigrationManager::Migrate for standalone
// runs — and carried everywhere that migration leaves a mark: every span,
// every flight event on both devices, the forensic report, and the
// manifest/resume protocol handshakes (PROTOCOL.md §7.1). One migration,
// one context; home and guest rings agree on it, which is what lets the
// Chrome exporter stitch cross-device flow events into a single causal
// view (Dapper-style; scripts/check_telemetry.py gates the invariant).
//
// Deliberately NOT gated on FLUX_TRACE_ENABLED: the context is protocol
// data (it rides the wire in the handshake messages), so its byte cost
// must be identical whether tracing is compiled in or out. Only the
// span/event stamping compiles away.
//
// Minted deterministically (MintTraceContext in telemetry.h hashes the
// endpoints, package, and submission sim-time) — no wall clock, no
// randomness — so reruns produce identical IDs and the byte-identity
// gates hold.
struct TraceContext {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool valid() const { return (hi | lo) != 0; }
  // 32 lowercase hex chars (hi then lo); "0" is never a valid context.
  std::string ToHex() const;

  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const TraceContext& a, const TraceContext& b) {
    return !(a == b);
  }
  friend bool operator<(const TraceContext& a, const TraceContext& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

// A monotonic counter. Instrumented code caches the pointer returned by
// Tracer::counter() (registration takes the registry mutex once) and then
// increments lock-free; the pointer stays valid for the Tracer's lifetime.
class TraceCounter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A log-bucketed latency histogram: 64 power-of-two buckets plus exact
// count/sum/max, all relaxed atomics, so recording from hot paths costs two
// relaxed adds (the record/binder cached-pointer pattern applies — cache the
// pointer from Tracer::histogram() at set_tracer time). Percentiles are
// estimated by linear interpolation inside the bucket and clamped to the
// exact max, which is plenty for p50/p90/p99 dashboards.
class TraceHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  }

  // Records `n` samples of `value` in O(1) — used to import precomputed
  // distributions (e.g. the scheduler driver's windows-by-shard-count
  // table) without n Record calls.
  void RecordMany(uint64_t value, uint64_t n) {
    if (n == 0) {
      return;
    }
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(value * n, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    buckets_[BucketOf(value)].fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  // A copyable, mergeable view — the bench harness merges snapshots across
  // matrix cells before computing fleet-level percentiles.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};

    void Merge(const Snapshot& other);
    // p in [0, 100]; 0 when empty.
    double Percentile(double p) const;
  };
  Snapshot Take() const;

 private:
  static int BucketOf(uint64_t value) {
    int bits = 0;
    while (value != 0) {
      ++bits;
      value >>= 1;
    }
    return bits < kBuckets ? bits : kBuckets - 1;
  }

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

// One finished (or still-open: end == begin) span.
struct TraceSpanRecord {
  std::string name;
  // Empty = the opening thread's own track; non-empty = a named synthetic
  // track (per-chunk pipeline stages, the migration detail track).
  std::string track;
  SimTime begin = 0;
  SimTime end = 0;
  int thread_ord = 0;  // process-wide thread ordinal of the opener
  int depth = 0;       // RAII nesting depth on the opening thread
  // True between OpenSpan and CloseSpan; post-hoc emissions are never open.
  // Forensics uses this to report spans still active at failure time.
  bool open = false;
  // Causal identity of the migration this span belongs to; zero when the
  // span was recorded outside any migration. Stamped from the tracer's
  // ambient context (set_context) or an explicit-context emit.
  TraceContext ctx;
};

class TraceSpan;

class Tracer {
 public:
  // Spans stamp begin/end from `clock` (the world clock the migration
  // advances). The clock must outlive recording; a Tracer may outlive its
  // clock as long as no further spans are opened (exporters never touch
  // it), which lets bench harnesses keep traces after their World dies.
  explicit Tracer(const SimClock* clock) : clock_(clock) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const SimClock* clock() const { return clock_; }

  // Registers (or finds) a counter; the returned pointer is stable.
  TraceCounter* counter(std::string_view name);
  // Convenience for cold paths: one registry lookup per call.
  void Count(std::string_view name, uint64_t delta) {
    counter(name)->Add(delta);
  }
  // Registers (or finds) a histogram; the returned pointer is stable.
  TraceHistogram* histogram(std::string_view name);
  // Convenience for cold paths.
  void Observe(std::string_view name, uint64_t value) {
    histogram(name)->Record(value);
  }

  // Ambient causal context: every span opened or emitted while set is
  // stamped with it. MigrationManager sets it for the duration of one
  // Migrate() call (single-migration serial path); the coordinator, whose
  // post-hoc emissions interleave across migrations, passes explicit
  // contexts to the emit overloads below instead.
  void set_context(const TraceContext& ctx);
  void clear_context() { set_context(TraceContext{}); }
  TraceContext context() const;

  // Records a span with explicit stamps — for intervals re-derived after
  // the fact (the pipelined schedule, report intervals). Lands on the
  // calling thread's track at depth 0. When `ctx` is valid it overrides
  // the ambient context; when zero the ambient context (if any) applies.
  void EmitSpan(std::string_view name, SimTime begin, SimTime end,
                const TraceContext& ctx = TraceContext{});
  // Same, on a named synthetic track.
  void EmitSpanOnTrack(std::string_view name, std::string_view track,
                       SimTime begin, SimTime end,
                       const TraceContext& ctx = TraceContext{});

  // ----- inspection (tests, exporters) -----
  std::vector<TraceSpanRecord> Spans() const;
  std::vector<std::pair<std::string, uint64_t>> Counters() const;
  std::vector<std::pair<std::string, TraceHistogram::Snapshot>> Histograms()
      const;
  // Copy-free registry walks (name-sorted) for the time-series sampler's
  // hot path: Counters()/Histograms() allocate a string per entry per
  // call, which at a 250-virtual-ms cadence dominates the sampler's host
  // cost. The callback must not re-enter this Tracer (mu_ is held).
  template <typename Fn>
  void VisitCounters(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      fn(std::string_view(name), counter->value());
    }
  }
  template <typename Fn>
  void VisitHistograms(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, histogram] : histograms_) {
      fn(std::string_view(name), *histogram);
    }
  }
  // Names of spans opened via the RAII path and not yet closed (a finished
  // migration must leave this empty — tests/forensics_test.cc pins it).
  std::vector<std::string> OpenSpanNames() const;
  // Sum of durations / number of spans with this exact name.
  SimDuration SpanTotal(std::string_view name) const;
  size_t SpanCount(std::string_view name) const;

 private:
  friend class TraceSpan;

  // RAII path: opens a span stamped at clock->now(); returns slot + 1.
  size_t OpenSpan(std::string_view name);
  void CloseSpan(size_t token);

  mutable std::mutex mu_;
  const SimClock* clock_;
  TraceContext context_;
  std::vector<TraceSpanRecord> spans_;
  std::map<std::string, std::unique_ptr<TraceCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<TraceHistogram>, std::less<>>
      histograms_;
};

// RAII span on a Tracer's current thread track. Null tracer = no-op, which
// is the runtime toggle: instrumented code never branches on a flag, it
// just carries a possibly-null Tracer*.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(Tracer* tracer, std::string_view name) {
    if (tracer != nullptr) {
      tracer_ = tracer;
      token_ = tracer->OpenSpan(name);
    }
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Ends the span early (idempotent).
  void End() {
    if (tracer_ != nullptr) {
      tracer_->CloseSpan(token_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  size_t token_ = 0;
};

// ----- exporters -----

// One process row in a merged Chrome trace (the bench harness maps each
// migration cell to its own pid so 64 migrations load side by side).
struct TraceProcess {
  std::string name;
  const Tracer* tracer = nullptr;
};

// Chrome trace_event JSON ("JSON Object Format": {"traceEvents": [...]}).
// Spans become complete ("X") events; counters become one "C" sample at the
// trace end. Spans stamped with a TraceContext additionally carry it in
// args.ctx and are linked by flow events (one "s" at the context's first
// span, an "f" step at each later span, id = the context hex) so
// chrome://tracing / Perfetto draw one causal arrow chain per migration —
// across processes when home, guest, and coordinator export as separate
// TraceProcess rows. Loadable in chrome://tracing and ui.perfetto.dev.
void WriteChromeTrace(const std::vector<TraceProcess>& processes,
                      std::ostream& out);
std::string ChromeTraceJson(const Tracer& tracer);

// Durations of the canonical migration phases, summed over the spans in a
// tracer (intended use: one migration per tracer). Total() mirrors
// MigrationReport::Total(): the five timeline phases plus the post-copy
// tail — compress and replay are contained sub-phases and not added.
struct MigrationPhases {
  SimDuration prepare = 0;
  SimDuration checkpoint = 0;
  SimDuration compress = 0;
  SimDuration transfer = 0;
  SimDuration restore = 0;
  SimDuration reintegrate = 0;
  SimDuration replay = 0;
  SimDuration background_tail = 0;
  SimDuration Total() const {
    return prepare + checkpoint + transfer + restore + reintegrate +
           background_tail;
  }
};
MigrationPhases ExtractMigrationPhases(const Tracer& tracer);

// Plain-text phase breakdown + counter dump (the human-readable exporter;
// bench_fig13_breakdown derives its table from the same MigrationPhases).
std::string PhaseReportText(const Tracer& tracer);

}  // namespace flux

// ----- instrumentation macros -----
//
// All call sites go through these. When FLUX_TRACE_ENABLED is 0 they expand
// to a discarded `if (false)` branch: operands are parsed (so the code keeps
// compiling and variables count as used) but never evaluated, and the
// optimizer deletes the branch entirely.
#if FLUX_TRACE_ENABLED

#define FLUX_TRACE_SPAN(var, tracer, name) \
  ::flux::TraceSpan var((tracer), (name))
#define FLUX_TRACE_EMIT(tracer, name, begin_ts, end_ts)      \
  do {                                                       \
    ::flux::Tracer* flux_trace_t = (tracer);                 \
    if (flux_trace_t != nullptr) {                           \
      flux_trace_t->EmitSpan((name), (begin_ts), (end_ts));  \
    }                                                        \
  } while (0)
#define FLUX_TRACE_EMIT_ON_TRACK(tracer, name, track, begin_ts, end_ts)      \
  do {                                                                       \
    ::flux::Tracer* flux_trace_t = (tracer);                                 \
    if (flux_trace_t != nullptr) {                                           \
      flux_trace_t->EmitSpanOnTrack((name), (track), (begin_ts), (end_ts));  \
    }                                                                        \
  } while (0)
#define FLUX_TRACE_EMIT_ON_TRACK_CTX(tracer, name, track, begin_ts, end_ts, \
                                     ctx)                                   \
  do {                                                                      \
    ::flux::Tracer* flux_trace_t = (tracer);                                \
    if (flux_trace_t != nullptr) {                                          \
      flux_trace_t->EmitSpanOnTrack((name), (track), (begin_ts), (end_ts),  \
                                    (ctx));                                 \
    }                                                                       \
  } while (0)
#define FLUX_TRACE_COUNT(tracer, name, delta)     \
  do {                                            \
    ::flux::Tracer* flux_trace_t = (tracer);      \
    if (flux_trace_t != nullptr) {                \
      flux_trace_t->Count((name), (delta));       \
    }                                             \
  } while (0)
#define FLUX_TRACE_COUNTER_ADD(counter_ptr, delta)   \
  do {                                               \
    ::flux::TraceCounter* flux_trace_c = (counter_ptr); \
    if (flux_trace_c != nullptr) {                   \
      flux_trace_c->Add(delta);                      \
    }                                                \
  } while (0)
#define FLUX_TRACE_OBSERVE(tracer, name, value)      \
  do {                                               \
    ::flux::Tracer* flux_trace_t = (tracer);         \
    if (flux_trace_t != nullptr) {                   \
      flux_trace_t->Observe((name), (value));        \
    }                                                \
  } while (0)
#define FLUX_TRACE_HIST_RECORD(hist_ptr, value)            \
  do {                                                     \
    ::flux::TraceHistogram* flux_trace_h = (hist_ptr);     \
    if (flux_trace_h != nullptr) {                         \
      flux_trace_h->Record(value);                         \
    }                                                      \
  } while (0)

#else  // !FLUX_TRACE_ENABLED

#define FLUX_TRACE_DISCARD_(...)      \
  do {                                \
    if (false) {                      \
      (void)sizeof((__VA_ARGS__, 0)); \
    }                                 \
  } while (0)
#define FLUX_TRACE_SPAN(var, tracer, name) \
  FLUX_TRACE_DISCARD_((tracer), (name))
#define FLUX_TRACE_EMIT(tracer, name, begin_ts, end_ts) \
  FLUX_TRACE_DISCARD_((tracer), (name), (begin_ts), (end_ts))
#define FLUX_TRACE_EMIT_ON_TRACK(tracer, name, track, begin_ts, end_ts) \
  FLUX_TRACE_DISCARD_((tracer), (name), (track), (begin_ts), (end_ts))
#define FLUX_TRACE_EMIT_ON_TRACK_CTX(tracer, name, track, begin_ts, end_ts, \
                                     ctx)                                   \
  FLUX_TRACE_DISCARD_((tracer), (name), (track), (begin_ts), (end_ts), (ctx))
#define FLUX_TRACE_COUNT(tracer, name, delta) \
  FLUX_TRACE_DISCARD_((tracer), (name), (delta))
#define FLUX_TRACE_COUNTER_ADD(counter_ptr, delta) \
  FLUX_TRACE_DISCARD_((counter_ptr), (delta))
#define FLUX_TRACE_OBSERVE(tracer, name, value) \
  FLUX_TRACE_DISCARD_((tracer), (name), (value))
#define FLUX_TRACE_HIST_RECORD(hist_ptr, value) \
  FLUX_TRACE_DISCARD_((hist_ptr), (value))

#endif  // FLUX_TRACE_ENABLED

#endif  // FLUX_SRC_FLUX_TRACE_H_
