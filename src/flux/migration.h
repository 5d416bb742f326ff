// The migration pipeline (§3.1): Migration Out + transfer + Migration In.
//
// Stages, matching Figure 13's breakdown:
//  1. preparation  — reject unmigratable apps (multi-process, preserved EGL
//                    context, external Binder connections), background the
//                    app, wait out the task idler (activities -> Stopped,
//                    surfaces freed), trim memory at the highest severity,
//                    eglUnload the vendor library;
//  2. checkpoint   — CRIA checkpoint of the process + the pruned call log +
//                    a hardware snapshot, compressed;
//  3. transfer     — APK verification, data-directory delta sync, and the
//                    compressed image over WiFi;
//  4. restore      — decompress + CRIA restore into the wrapper app's PID
//                    namespace, service handles re-bound on the guest;
//  5. reintegration— Adaptive Replay of the log, connectivity loss/regain
//                    events, bring-to-foreground and redraw at the guest's
//                    display size.
#ifndef FLUX_SRC_FLUX_MIGRATION_H_
#define FLUX_SRC_FLUX_MIGRATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/apps/app_instance.h"
#include "src/base/compress.h"
#include "src/base/hash.h"
#include "src/cria/cria.h"
#include "src/flux/cost_model.h"
#include "src/flux/flux_agent.h"
#include "src/flux/forensics.h"
#include "src/flux/pairing.h"
#include "src/flux/pipeline.h"
#include "src/flux/trace.h"
#include "src/net/network.h"

namespace flux {

class ThreadPool;

// Through every migration wait the world keeps moving: the clock advances
// in slices of at most this, ticking both devices (task idlers, due alarms)
// at each boundary. Like the stage costs, chunk size and compress fan-out
// of the shared cost model (cost_model.h), it is not configurable.
inline constexpr SimDuration kTransferTick = Millis(250);

struct MigrationConfig {
  // Ablation of the serial path: ship the image uncompressed. Every chunked
  // mode compresses (the constructor forces this on with pipelined).
  bool compress_image = true;
  // Extension beyond the paper's prototype (§3.4 future work): migrate
  // multi-process apps by checkpointing the whole process tree.
  bool enable_multiprocess = false;
  // Extension: post-copy memory transfer with adaptive pre-paging (the
  // optimization §4 proposes). Only the hot fraction of the image moves
  // before restore; the rest streams in the background, overlapped with the
  // restore and reintegration stages.
  bool post_copy = false;
  // Fraction of the compressed image pre-paged up front when post_copy is
  // on (the adaptively chosen working set).
  double post_copy_priority_fraction = 0.25;
  // Extension (the §4 overlap, taken further): chunked, pipelined
  // migration. The CRIA image is split into kMigrationChunkBytes chunks;
  // serialize → compress (home) → wire → decompress → restore-apply
  // (guest) overlap per chunk, and chunk compression fans out over
  // kCompressThreads device cores (and, for real wall-clock wins, host
  // threads). Off by default so the paper-baseline figures are unchanged.
  bool pipelined = false;
  // Worker pool for chunk compression. Null (the default) uses the lazily
  // created process-shared pool of width kCompressThreads
  // (ThreadPool::Shared); tests and embedders may inject their own. The
  // pool must outlive the manager.
  ThreadPool* compress_pool = nullptr;
  // Extension: content-addressed delta transfer. Implies pipelined (the
  // constructor forces it on): every raw image chunk is hashed; a manifest
  // handshake asks the guest which hashes its ChunkCache already holds, and
  // hits ship as 16-byte refs instead of compressed bytes. Warm
  // re-migrations (A->B->A) shrink to the chunks that actually changed.
  // Off by default: baseline payloads and figures stay bit-for-bit
  // unchanged.
  bool chunk_dedup = false;
  // Extension (DESIGN.md §10): iterative pre-copy. After preparation the
  // full image streams into the guest's chunk cache while the app keeps
  // running (and dirtying memory at its workload's rate); each converging
  // round cuts a full image again and re-sends only the chunks the guest
  // cache is missing; then a short stop-and-copy ships the final image, in
  // which every warmed chunk travels as a 16-byte ref. Implies pipelined
  // and chunk_dedup (the constructor forces both on). Off by default:
  // every baseline figure stays bit-for-bit unchanged.
  bool precopy = false;
  // Round budget before pre-copy gives up on convergence (forensics).
  int precopy_max_rounds = 8;
  // Bandwidth-aware termination: freeze once the estimated stop-and-copy
  // of the chunks the guest cache still misses drops below this.
  SimDuration precopy_stop_copy_target = Millis(250);
  // Test hook: runs once, right after the final stop-and-copy cut (models
  // a write racing the freeze; exercises the re-cut path that keeps such
  // writes from being silently dropped).
  std::function<void()> precopy_after_final_cut;
  // Extension (DESIGN.md §13): hostile-network modeling. A non-clean
  // profile frames every wire byte (src/net/frame.h, PROTOCOL.md) and runs
  // the real frame codec per chunk under the profile's loss, jitter and
  // rate-dip processes; it implies pipelined (the constructor forces it
  // on), since the codec works on the chunk stream. The default (clean)
  // profile leaves every transfer path byte-identical to the baseline
  // model — framing overhead is only ever charged on non-clean profiles.
  NetProfile net_profile;
  // Decorrelates the per-migration loss/jitter draws and the recurring
  // outage phase across sweep points (XORed into the app-derived seed).
  uint64_t net_seed = 0;
  // Frame-stream shape when a profile is active (PROTOCOL.md §5); parity
  // groups are FrameStreamOptions' default 8 data frames.
  bool fec = true;
  uint32_t frame_payload_bytes = 16 * 1024;
  // Extension (DESIGN.md §13): chunk-resumable transfers. An interrupted
  // migration waits out a recoverable outage, re-offers the chunk manifest
  // (PROTOCOL.md §8), the guest acks what its cache already holds, and only
  // un-acked chunks retransmit, for at most 8 handshakes. Implies
  // pipelined + chunk_dedup (the constructor forces both on). Off by
  // default: interruption still aborts to rollback, and every baseline
  // figure stays bit-for-bit unchanged.
  bool resume = false;
  // An outage longer than this is treated as unrecoverable.
  SimDuration resume_wait_max = Seconds(30);
  // Fault injection for tests: mutates the payload after checkpoint,
  // before transfer (models wire corruption; exercises restore rollback).
  std::function<void(Bytes&)> payload_fault;
  // Observability (OBSERVABILITY.md): when set, the migration emits phase
  // spans and counters into this tracer, and propagates it to both agents
  // (recorder, replayer, chunk cache, binder) and the network for the
  // duration of the manager's use. Null = no tracing (the default; the
  // instrumented sites cost nothing beyond a pointer test).
  Tracer* trace = nullptr;
  // Causal identity for this migration (telemetry.h). The coordinator
  // mints one at admission and passes it down; when left zero, Migrate()
  // mints its own deterministically from (package, home, guest, sim time).
  // Carried in the manifest/resume handshakes (PROTOCOL.md §7.1), stamped
  // into every span and flight event on both devices, and reported in
  // MigrationReport::trace_context. Not gated on tracing: the wire cost
  // of the handshake context field is charged whether or not a tracer is
  // attached, keeping the three-config byte identity.
  TraceContext trace_context;
  // Telemetry poll hook (TimeSeriesSampler::Poll): invoked at every
  // transfer-tick boundary while the migration advances the clock, so a
  // sampler sees mid-flight counter state on the single-migration path
  // (fleet runs drive sampling from the event scheduler instead). The
  // hook must be read-only with respect to simulated state — it runs on
  // the simulation path and anything it mutates breaks byte identity.
  std::function<void()> telemetry_poll;
};

// Wire-byte split of the pre-image data sync (SyncAppData). The APK
// verification advances the clock itself (it is a real protocol exchange);
// the data-directory delta sync only reports bytes, which the transfer
// paths charge to the wire afterwards. Keeping the two apart is what lets
// the pipelined schedule charge each exactly once.
struct AppDataSync {
  uint64_t apk_wire_bytes = 0;   // clock already advanced for these
  uint64_t data_wire_bytes = 0;  // still to be charged to the wire
  uint64_t total() const { return apk_wire_bytes + data_wire_bytes; }
};

// Delta-transfer accounting for one migration (chunk_dedup mode).
struct DedupStats {
  bool enabled = false;
  uint32_t chunk_count = 0;
  uint32_t ref_chunks = 0;     // shipped as 16-byte cache references
  uint32_t stored_chunks = 0;  // incompressible; shipped raw
  uint64_t ref_raw_bytes = 0;  // raw image bytes the guest cache covered
  // Hash manifest + availability bitmap, charged to the wire ahead of the
  // first image chunk (overlapped with the data-dir sync).
  uint64_t manifest_wire_bytes = 0;
  SimDuration manifest_rtt = 0;
};

// Frame-codec accounting for one migration under a non-clean NetProfile
// (every chunk runs encode -> lose -> FEC-reconstruct -> retransmit; byte
// counts include frame headers). All zero on the clean profile.
struct FrameWireStats {
  bool enabled = false;
  uint64_t frames_sent = 0;
  uint64_t data_frames = 0;
  uint64_t parity_frames = 0;
  uint64_t frames_lost = 0;
  uint64_t crc_errors = 0;        // losses that arrived corrupt
  uint64_t frames_recovered = 0;  // rebuilt from parity, no retransmit
  uint64_t frames_retransmitted = 0;
  uint64_t wire_bytes = 0;        // framed bytes on the air, incl. re-sends
  uint64_t lost_bytes = 0;
  uint64_t retransmit_bytes = 0;
};

// Resumable-transfer accounting (MigrationConfig::resume): every outage the
// migration rode out instead of rolling back.
struct ResumeStats {
  bool enabled = false;
  uint32_t interruptions = 0;     // outages observed at entry or mid-stream
  uint32_t attempts = 0;          // resume handshakes completed
  uint32_t chunks_acked = 0;      // manifest chunks the guest already held
  uint64_t handshake_wire_bytes = 0;
  uint64_t lost_bytes = 0;        // in-flight bytes an outage destroyed
  uint64_t retransmit_bytes = 0;  // bytes re-sent after resume handshakes
  SimDuration stalled = 0;        // total time waiting out outages
  std::vector<TimedInterval> stalls;  // one per stall (migration/resume spans)
};

struct RunningApp {
  Device* device = nullptr;
  Pid pid = kInvalidPid;          // the main (activity-hosting) process
  std::vector<Pid> all_pids;      // main first; helpers for multi-process apps
  Uid uid = -1;
  std::string package;
  std::string display_name;
  std::shared_ptr<ActivityThread> thread;

  static RunningApp FromInstance(AppInstance& app);
};

struct MigrationReport {
  std::string app;
  std::string home_device;
  std::string guest_device;
  bool success = false;
  std::string refusal_reason;

  // Stage intervals on the shared timeline (Figure 13).
  TimedInterval prepare;
  TimedInterval checkpoint;
  TimedInterval transfer;
  TimedInterval restore;
  TimedInterval reintegrate;
  // Sub-phase intervals (contained in the five above; not added to Total).
  // compress ⊂ checkpoint on the serial path but extends into transfer on
  // the pipelined path (chunk compression overlaps the wire); replay_window
  // ⊂ reintegrate; data_sync ⊂ transfer (serial) / the pipeline fill
  // (pipelined).
  TimedInterval compress;
  TimedInterval replay_window;
  TimedInterval data_sync;
  // Post-copy only: background streaming of the deferred image bytes,
  // overlapped with restore/reintegration; the tail (if any) extends the
  // total beyond reintegration.
  SimDuration background_transfer = 0;
  SimDuration background_tail = 0;     // portion not hidden by overlap
  uint64_t deferred_bytes = 0;
  SimDuration Total() const;
  // The user sees the target menu during prepare+checkpoint (§4).
  SimDuration UserPerceived() const;
  SimDuration PerceivedExcludingTransfer() const;

  // Byte accounting (Figure 15).
  uint64_t image_raw_bytes = 0;
  uint64_t image_compressed_bytes = 0;
  uint64_t log_bytes = 0;
  uint64_t data_sync_bytes = 0;  // data dirs + APK verification
  uint64_t total_wire_bytes = 0;

  CriaStats cria;
  ReplayStats replay;
  // Pipelined mode only: stage-overlap accounting (chunk counts, per-stage
  // busy/finish times, time saved vs strictly serial staging).
  PipelineStats pipeline;
  // chunk_dedup mode only.
  DedupStats dedup;
  // precopy mode only: round-by-round warm-up accounting.
  PrecopyStats precopy;
  // Non-clean net_profile only: per-frame wire outcomes.
  FrameWireStats frame_wire;
  // resume mode only: interruption/stall accounting.
  ResumeStats resume;
  // Whole-image digests for end-to-end identity checks: the raw CRIA image
  // as checkpointed at home and as reassembled on the guest.
  Hash128 image_hash;
  Hash128 restored_image_hash;

  // The causal context this migration ran under (adopted from
  // MigrationConfig::trace_context or minted at Migrate() entry); every
  // span and flight event of the migration carries the same value.
  TraceContext trace_context;

  // Where the app lives now.
  RunningApp migrated;

  // Set when something went wrong that did not abort the migration — some
  // replayed calls failed but the app is live on the guest. Aborted
  // migrations return an error Status instead; their forensics hang off
  // MigrationManager::last_forensics().
  std::shared_ptr<const ForensicReport> forensics;
};

class MigrationManager {
 public:
  MigrationManager(FluxAgent& home, FluxAgent& guest,
                   MigrationConfig config = {});
  ~MigrationManager();

  // Migrates a running app home -> guest. On success the home process is
  // gone and `report.migrated` points at the guest instance. On refusal the
  // app keeps running at home and `refusal_reason` is set (success=false
  // with an OK status).
  Result<MigrationReport> Migrate(const RunningApp& app,
                                  const AppSpec& spec);

  // The forensic report cut by the most recent failed (rolled-back or
  // partially failed) migration; null until something goes wrong. Snapshots
  // both devices' flight-recorder rings, the Status cause chain, the
  // tracer's counters and still-open spans, and the replay audit journal.
  std::shared_ptr<const ForensicReport> last_forensics() const {
    return last_forensics_;
  }

 private:
  Status Prepare(const RunningApp& app, MigrationReport& report);
  // A checkpoint cut, planned for shipping: in chunked modes its chunks are
  // encoded once, and with chunk_dedup they are keyed and probed against
  // the guest's cache (the probe's hits travel as refs). BuildPayload
  // frames it and hands it on by value: the transfer reads the payload,
  // re-offers `hashes` in a resume handshake and, under resume only,
  // delivers chunks of the raw image (BuildPayload frees it otherwise).
  struct PlannedCut {
    CriaCheckpointResult cria;
    std::vector<Hash128> hashes;  // chunk_dedup: each raw chunk's key
    std::vector<uint8_t> cached;  // chunk_dedup: 1 = the guest holds it
    LzChunkStreams streams;       // chunked modes; digest not yet set
    Bytes payload;                // set by BuildPayload
  };
  // Cuts the app's process tree and plans the cut (host work only; the
  // simulated clock does not move). Every pre-copy round and every fresh
  // stop-and-copy plans the same way.
  Result<PlannedCut> CutAndPlan(const RunningApp& app);
  // Builds the payload from `planned` when given (a pre-copy round's cut,
  // taken with nothing run or written since), else from a fresh cut, and
  // returns that cut carrying it.
  Result<PlannedCut> BuildPayload(
      const RunningApp& app, MigrationReport& report,
      std::optional<PlannedCut> planned = std::nullopt);
  // Pre-copy mode: runs the converging warm-up rounds (streaming chunks
  // into the guest cache while the app keeps dirtying memory), then
  // freezes the app and ships the stop-and-copy payload — the last round's
  // cut when the rounds end right after planning it, a fresh cut after a
  // streaming round, and a re-cut if a write raced either. Fills
  // report.precopy and folds the whole window into the checkpoint interval.
  Result<PlannedCut> BuildPayloadPrecopy(const RunningApp& app,
                                         const AppSpec& spec,
                                         LinkShaper* shaper,
                                         MigrationReport& report);
  Status Transfer(const RunningApp& app, const AppSpec& spec,
                  uint64_t payload_bytes, MigrationReport& report);
  // APK verification + data-directory delta sync into the pairing root;
  // returns the wire bytes it cost, split by whether the clock was already
  // advanced for them (shared by both transfer paths).
  Result<AppDataSync> SyncAppData(const RunningApp& app, const AppSpec& spec,
                                  MigrationReport& report);
  // Pipelined mode: data sync + the stop-and-copy chunk stream. A link
  // that is down at entry is the stream's first stall (AdvanceStream).
  // Fills report.pipeline, re-stamps the checkpoint/transfer intervals with
  // the overlapped boundaries, and returns the end of the overlapped guest
  // stages, which RestoreOnGuest drains to.
  Result<SimTime> TransferPipelined(const RunningApp& app, const AppSpec& spec,
                                    PlannedCut& cut, LinkShaper* shaper,
                                    MigrationReport& report);
  // One chunk of a stream: a pre-copy round's pending chunk or a
  // stop-and-copy container slice.
  struct StreamChunk {
    uint64_t raw_bytes = 0;
    LzChunkKind kind = LzChunkKind::kLz;
    // Its bytes on the link; empty when post-copy defers it.
    ByteSpan wire;
    bool serialize = true;  // home still serializes it
    bool restore = true;    // the guest restore-applies it
    // Delivered into the guest cache as its wire window closes, if set.
    Hash128 key;
    ByteSpan raw;
  };
  // A chunk stream on the wire and how far it has slipped behind its
  // loss-free schedule.
  struct ChunkStream {
    WifiNetwork& wifi;
    const EffectiveLink& link;
    // What a resume handshake re-offers (PROTOCOL.md §8).
    const std::vector<Hash128>& manifest;
    // The kUnavailable cause when the stream cannot ride an outage out.
    const char* fail_msg;
    std::vector<StreamChunk> chunks = {};
    // Set by ScheduleChunks, in offsets from the stream's start.
    std::vector<PipelineStageModel> stages = {};
    PipelinePlan plan = {};
    // Set by StreamChunks.
    uint64_t wire_bytes = 0;  // the chunks' loss-free wire bytes
    SimDuration extra = 0;    // stalls, handshakes, re-sends, codec time
    uint64_t extra_wire = 0;  // handshake, re-send and retransmit bytes
  };
  // Schedules the chunks on the cost model's five stages (serialize →
  // compress → wire → decompress → restore), the wire busy until
  // `wire_offset`.
  void ScheduleChunks(ChunkStream& stream, SimDuration wire_offset) const;
  // The walker: paces the clock from `t0` through each scheduled wire
  // window; on a shaped link every chunk runs the frame codec under
  // `shaper`, and each delivery enters the guest cache as its window
  // closes.
  Status StreamChunks(ChunkStream& stream, SimTime t0, LinkShaper* shaper,
                      MigrationReport& report);
  // Advances the clock to `target` + stream.extra, watching the link. At
  // each outage on the way it waits for the link to recover (devices keep
  // ticking), runs the resume handshake — a framed manifest re-offer out, a
  // cache-ack bitmap back — counting the manifest chunks the guest cache
  // already holds, and re-sends `resend_wire` (the in-flight bytes the
  // outage destroyed) in full; the stall and re-send shift the rest of the
  // stream. Fails with a clean kUnavailable cause (fail_msg) when resume is
  // off, the outage is permanent or longer than resume_wait_max, or
  // kResumeMaxAttempts is spent — the caller rolls back exactly as before
  // resume existed.
  Status AdvanceStream(ChunkStream& stream, SimTime target,
                       uint64_t resend_wire, MigrationReport& report);
  // Wire bytes charged for `bytes` of stream payload: framed under a
  // non-clean profile (PROTOCOL.md §5), as-is on a clean link.
  uint64_t Charged(uint64_t bytes) const;
  // Decodes and restores `payload` on the guest; pipelined mode then
  // drains the overlapped guest stages up to `restore_deadline`.
  Result<CriaRestoredApp> RestoreOnGuest(ByteSpan payload,
                                         SimTime restore_deadline,
                                         MigrationReport& report,
                                         CallLog& log_out,
                                         HardwareSnapshot& hw_out);
  Status Reintegrate(CriaRestoredApp& restored, const CallLog& log,
                     const HardwareSnapshot& home_hw,
                     MigrationReport& report, ReplayAuditJournal& journal);

  // Freezes the failure evidence: both flight-recorder rings, the cause
  // chain, tracer counters + open spans, and the (already cross-checked)
  // replay audit journal.
  std::shared_ptr<ForensicReport> BuildForensics(const char* phase,
                                                 const Status& cause,
                                                 bool rolled_back,
                                                 ReplayAuditJournal journal,
                                                 const MigrationReport& report);

  // Advances the shared clock to `target` in kTransferTick slices, ticking
  // both devices at each boundary so their timers observe time passing. It
  // is the only code in the manager that moves the clock through a wait.
  // With `watch` set — bytes are on that link — each slice is counted there
  // (net.transfer_ticks, net.tick_us), and the walk stops early and returns
  // false if the network is down at a slice boundary; returns true once
  // `target` is reached.
  bool AdvanceWithTicks(SimTime target, WifiNetwork* watch = nullptr);

  // Stamps the finished report's phase intervals into config_.trace as
  // spans (no-op without a tracer). Post-hoc emission keeps the simulated
  // timeline byte-identical with tracing on or off.
  void EmitTraceSpans(const MigrationReport& report);

  // Worker pool for chunk compression: the injected
  // MigrationConfig::compress_pool, or the process-shared pool of the
  // configured width (spawning threads per manager is pure host overhead —
  // no simulated time involved).
  ThreadPool* CompressionPool();

  FluxAgent& home_;
  FluxAgent& guest_;
  MigrationConfig config_;
  // Frame-stream shape under a non-clean profile, from config_.
  FrameStreamOptions frame_options_;
  // The active migration's causal context: adopted or minted at Migrate()
  // entry, cleared (with both recorders' and the tracer's ambient context)
  // on every exit path.
  TraceContext ctx_;
  // Pre-copy only: the modeled write load of the still-running app,
  // invoked from AdvanceWithTicks with each slice's duration. Installed
  // for the duration of the warm-up rounds; null (the default) leaves
  // every other path byte-identical.
  std::function<void(SimDuration)> precopy_mutator_;
  std::shared_ptr<const ForensicReport> last_forensics_;
};

}  // namespace flux

#endif  // FLUX_SRC_FLUX_MIGRATION_H_
