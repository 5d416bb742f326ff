#include "src/flux/migration.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/base/compress.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/synthetic_content.h"
#include "src/base/thread_pool.h"
#include "src/flux/telemetry.h"

namespace flux {

namespace {

constexpr uint32_t kPayloadMagic = 0x464C5558;  // "FLUX"

// A pre-copy round must shrink the pending set to at most this fraction of
// the previous round's, or pre-copy declares non-convergence.
constexpr double kPrecopyMinRoundShrink = 0.85;
// Resume gives up after this many handshakes (forensics, then rollback).
constexpr int kResumeMaxAttempts = 8;

// Modeled wire bytes of one manifest exchange over `n` chunks: the dedup
// handshake (PROTOCOL.md §7) and the resume offer/ack (§8). The home side
// sends a 32-byte header — 16 bytes of framing fields plus the 16-byte
// trace-context field added in manifest v2 (§7.1) — plus one 16-byte hash
// per chunk; the guest answers with an 8-byte header plus a one-bit-per-chunk
// availability bitmap. `framed` adds a frame header to each direction. The
// context travels whether or not tracing is compiled in: it is protocol
// data, and charging it unconditionally is what keeps the three telemetry
// configs byte-identical.
struct ManifestExchange {
  uint64_t out = 0;
  uint64_t back = 0;
  uint64_t total() const { return out + back; }
};

ManifestExchange ManifestExchangeBytes(uint64_t n, bool framed) {
  const uint64_t frame = framed ? kFrameHeaderSize : 0;
  return {frame + 32 + 16 * n, frame + 8 + (n + 7) / 8};
}

// The cost model's CpuCost at `device`'s CPU speed.
SimDuration CpuCost(const Device& device, uint64_t bytes, double mbps) {
  return flux::CpuCost(device.profile().cpu_factor, bytes, mbps);
}

// One chunk's CPU stage costs in the chunk pipeline. `kind` is how the
// chunk travels: kLz (compressed), kStored (incompressible: the compress
// attempt ran, the decode is a plain copy) or kRef (a cache reference: no
// codec on either side). `serialize` and `restore` say whether each
// endpoint still works on it: a chunk the pre-copy rounds warmed skips
// both, and a round's chunk is only cached on the guest, never applied.
struct ChunkCpuCosts {
  SimDuration serialize = 0;
  SimDuration compress = 0;
  SimDuration decompress = 0;
  SimDuration restore = 0;
};

ChunkCpuCosts ChunkCosts(const Device& home, const Device& guest, uint64_t raw,
                         LzChunkKind kind, bool serialize, bool restore) {
  ChunkCpuCosts c;
  c.serialize = serialize ? CpuCost(home, raw, kSerializeMbps) : 0;
  // The compress stage fans out over the device's cores (quad-core
  // baseline), which is what the host thread pool mirrors in wall time.
  c.compress = kind != LzChunkKind::kRef
                   ? CpuCost(home, raw, kCompressMbps) / kCompressThreads
                   : 0;
  c.decompress =
      kind == LzChunkKind::kLz ? CpuCost(guest, raw, kDecompressMbps) : 0;
  c.restore = restore ? CpuCost(guest, raw, kRestoreMbps) : 0;
  return c;
}

// The cost model's pipeline stages, in order.
constexpr size_t kCompressStage = 1;
constexpr size_t kWireStage = 2;

// The write load of a prepared-but-still-running app during the pre-copy
// window (DESIGN.md §10): deterministic page-granular heap writes at the
// workload's dirty rate, with hot-region locality — most writes land in
// the head of each anonymous segment, the rest scatter. Page content comes
// from the synthetic generator at the heap's own compressibility, so
// dirtied pages compress like the rest of the image.
class PrecopyWriteLoad {
 public:
  PrecopyWriteLoad(Device& device, const std::vector<Pid>& pids,
                   const AppSpec& spec)
      : device_(device),
        spec_(spec),
        rng_(FluxHash64(
            ByteSpan(reinterpret_cast<const uint8_t*>(spec.package.data()),
                     spec.package.size()),
            /*seed=*/0x70726563)) {
    for (const Pid pid : pids) {
      if (SimProcess* process = device.kernel().FindProcess(pid)) {
        for (const MemorySegment& segment :
             process->address_space().segments()) {
          if (segment.kind == SegmentKind::kAnonPrivate &&
              segment.content.size() >= kPage) {
            targets_.push_back({pid, segment.start, segment.content.size()});
            total_bytes_ += segment.content.size();
          }
        }
      }
    }
  }

  // Dirties pages for `elapsed` of app runtime; fractional pages carry
  // over so the rate holds across arbitrary tick slices.
  void Apply(SimDuration elapsed) {
    if (targets_.empty() || spec_.workload.dirty_bytes_per_s == 0 ||
        elapsed <= 0) {
      return;
    }
    budget_ += static_cast<double>(spec_.workload.dirty_bytes_per_s) *
               ToSecondsF(elapsed);
    while (budget_ >= static_cast<double>(kPage)) {
      budget_ -= static_cast<double>(WriteBurst());
    }
  }

 private:
  static constexpr uint64_t kPage = 4096;
  // Cold (non-hot-set) writes land as contiguous runs — allocation sweeps
  // and buffer fills, not uniformly scattered single pages. Uniform
  // scatter would touch nearly every 256 KiB pipeline chunk and no write
  // load could ever converge, which is not how real heaps behave.
  static constexpr uint64_t kColdBurstPages = 16;

  struct Target {
    Pid pid = kInvalidPid;
    uint64_t start = 0;
    uint64_t size = 0;
  };

  // Writes one hot page (9 in 10) or one cold contiguous burst; returns
  // the bytes dirtied.
  uint64_t WriteBurst() {
    // Segment weighted by size.
    uint64_t point = rng_.NextBelow(total_bytes_);
    const Target* target = &targets_.back();
    for (const Target& t : targets_) {
      if (point < t.size) {
        target = &t;
        break;
      }
      point -= t.size;
    }
    const uint64_t pages = target->size / kPage;
    if (pages == 0) {
      return kPage;
    }
    SimProcess* process = device_.kernel().FindProcess(target->pid);
    if (process == nullptr) {
      return kPage;
    }
    const double hot =
        std::clamp(spec_.workload.dirty_hot_fraction, 0.001, 1.0);
    const uint64_t hot_pages = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(pages) * hot));
    uint64_t page = 0;
    uint64_t run = 1;
    if (rng_.NextDouble() < 0.9) {
      page = rng_.NextBelow(hot_pages);
    } else {
      page = rng_.NextBelow(pages);
      run = std::min(kColdBurstPages, pages - page);
    }
    const Bytes content = GenerateContent(rng_.NextU64(), run * kPage,
                                          spec_.heap_compressibility);
    (void)process->address_space().Write(
        target->start, page * kPage,
        ByteSpan(content.data(), content.size()));
    return run * kPage;
  }

  Device& device_;
  const AppSpec& spec_;
  Rng rng_;
  std::vector<Target> targets_;
  uint64_t total_bytes_ = 0;
  double budget_ = 0;
};

}  // namespace

RunningApp RunningApp::FromInstance(AppInstance& app) {
  RunningApp running;
  running.device = &app.device();
  running.pid = app.pid();
  running.all_pids = app.all_pids();
  running.uid = app.uid();
  running.package = app.spec().package;
  running.display_name = app.spec().display_name;
  running.thread = app.shared_thread();
  return running;
}

SimDuration MigrationReport::Total() const {
  return prepare.duration() + checkpoint.duration() + transfer.duration() +
         restore.duration() + reintegrate.duration() + background_tail;
}

SimDuration MigrationReport::UserPerceived() const {
  // Preparation and checkpoint overlap with the user picking the migration
  // target from the menu (§4).
  return transfer.duration() + restore.duration() + reintegrate.duration();
}

SimDuration MigrationReport::PerceivedExcludingTransfer() const {
  return restore.duration() + reintegrate.duration();
}

MigrationManager::MigrationManager(FluxAgent& home, FluxAgent& guest,
                                   MigrationConfig config)
    : home_(home), guest_(guest), config_(config) {
  if (config_.precopy || config_.resume) {
    // Pre-copy rides on the content-addressed cache: rounds warm the guest
    // cache, and the final stop-and-copy ships warmed chunks as refs.
    // Resume acks against the chunk manifest, so it needs the cache too.
    config_.chunk_dedup = true;
  }
  if (config_.chunk_dedup || !config_.net_profile.IsClean()) {
    // Dedup refs and the frame codec both work on the chunk stream.
    config_.pipelined = true;
  }
  if (config_.pipelined) {
    // Shipping the image raw is the serial path's ablation; every chunk
    // stream is compressed.
    config_.compress_image = true;
  }
  frame_options_.frame_payload_bytes = config_.frame_payload_bytes;
  frame_options_.fec = config_.fec;
}

MigrationManager::~MigrationManager() = default;

uint64_t MigrationManager::Charged(uint64_t bytes) const {
  return config_.net_profile.IsClean() ? bytes
                                       : FramedWireBytes(bytes, frame_options_);
}

ThreadPool* MigrationManager::CompressionPool() {
  if (config_.compress_pool != nullptr) {
    return config_.compress_pool;
  }
  // Process-shared pool, one per width: a fleet of managers compresses on
  // the same workers instead of spawning pool-per-device threads. The
  // encoded output is a pure function of the input and pool width, so
  // sharing changes no bytes.
  return ThreadPool::Shared(kCompressThreads);
}

Status MigrationManager::Prepare(const RunningApp& app,
                                 MigrationReport& report) {
  Device& device = *app.device;
  SimClock& clock = device.clock();
  ScopedTimer timer(clock, report.prepare);

  // 1. Background the app: resumed activities pause, then the task idler
  //    stops them and the WindowManager frees their surfaces.
  FLUX_RETURN_IF_ERROR(device.activity_manager().MoveAppToBackground(app.pid));
  AdvanceWithTicks(clock.now() + device.activity_manager().idle_stop_delay());
  device.activity_manager().RunTaskIdler();

  // 2. Trim memory at the highest severity: flush renderer caches, destroy
  //    hardware resources and GL contexts (§3.3).
  FLUX_RETURN_IF_ERROR(device.activity_manager().RequestTrimMemory(
      app.pid, kTrimMemoryComplete));

  // 3. Flux's eglUnload: remove the vendor GL library from every process of
  //    the app (helpers rarely hold one, but the invariant is per-process).
  for (const Pid pid : app.all_pids.empty() ? std::vector<Pid>{app.pid}
                                            : app.all_pids) {
    FLUX_RETURN_IF_ERROR(device.egl().EglUnload(pid));
  }

  device.context().SpendCpu(kPrepareFixed);
  return OkStatus();
}

Result<MigrationManager::PlannedCut> MigrationManager::CutAndPlan(
    const RunningApp& app) {
  const std::vector<Pid> pids =
      app.all_pids.empty() ? std::vector<Pid>{app.pid} : app.all_pids;
  PlannedCut cut;
  FLUX_ASSIGN_OR_RETURN(
      cut.cria,
      Cria::CheckpointTree(*app.device, pids, *app.thread, config_.trace));
  if (!config_.pipelined) {
    return cut;
  }
  // Chunked modes split the image into fixed-size chunks, each an
  // independent stream compressed across host threads. Dedup first hashes
  // every raw chunk and asks the guest's cache which ones it already holds
  // (the manifest bytes and round trip are charged to the wire in
  // TransferPipelined); hits become 16-byte refs, and the rest compress
  // with the stored fallback for incompressible chunks. Both hash passes
  // run on the compression pool. The container digest is left to
  // BuildPayload: only a cut that ships needs it.
  const ByteSpan image(cut.cria.image.data(), cut.cria.image.size());
  LzChunkDedupPlan plan;
  plan.defer_digest = true;
  if (config_.chunk_dedup) {
    plan.stored_fallback = true;
    plan.hashes = LzChunkHashes(image, kMigrationChunkBytes, CompressionPool());
    plan.ref_chunks =
        guest_.chunk_cache().HasValidBatch(plan.hashes, CompressionPool());
  }
  cut.streams = LzCompressChunkStreamsDeduped(image, kMigrationChunkBytes,
                                              CompressionPool(), plan);
  cut.hashes = std::move(plan.hashes);
  cut.cached = std::move(plan.ref_chunks);
  return cut;
}

Result<MigrationManager::PlannedCut> MigrationManager::BuildPayload(
    const RunningApp& app, MigrationReport& report,
    std::optional<PlannedCut> planned) {
  Device& device = *app.device;
  ScopedTimer timer(device.clock(), report.checkpoint);

  // Recording stops with the app frozen; the log travels with the image.
  home_.recorder().PauseRecording(app.pid);
  const CallLog* log = home_.recorder().LogFor(app.pid);
  if (log == nullptr) {
    return FailedPrecondition("app is not managed by the home Flux agent");
  }

  if (!planned.has_value()) {
    FLUX_ASSIGN_OR_RETURN(planned, CutAndPlan(app));
  }
  CriaCheckpointResult& cria = planned->cria;
  report.cria = cria.stats;
  report.image_raw_bytes = cria.image.size();
  // Digest of the raw image as checkpointed; the guest recomputes it after
  // reassembly so tests can assert end-to-end byte identity. It doubles as
  // the FLZ2 container digest below, so the image is hashed whole once.
  // Host-side work only — no simulated time.
  report.image_hash =
      FluxHash128(ByteSpan(cria.image.data(), cria.image.size()));
  if (!config_.pipelined) {
    // Pipelined mode charges serialize (and compress) per chunk from the
    // overlapped stage schedule in TransferPipelined, not up front.
    device.context().SpendCpu(
        CpuCost(device, cria.image.size(), kSerializeMbps));
  }

  ArchiveWriter payload;
  payload.PutU32(kPayloadMagic);
  payload.PutString(app.package);

  // Hardware snapshot for Adaptive Replay's diffing.
  ArchiveWriter hw;
  HardwareSnapshot::FromContext(device.context()).Serialize(hw);
  payload.PutSection(hw);

  // The pruned call log.
  ArchiveWriter log_section;
  log->Serialize(log_section);
  report.log_bytes = log_section.size();
  payload.PutSection(log_section);

  // The CRIA image, compressed for transfer. Pipelined mode ships the chunk
  // streams CutAndPlan encoded and charges the serialize/compress CPU from
  // the overlapped stage schedule (TransferPipelined) instead of up front
  // here.
  if (config_.pipelined) {
    PipelineStats& stats = report.pipeline;
    stats.enabled = true;
    stats.chunk_bytes = kMigrationChunkBytes;
    const ByteSpan image_span(cria.image.data(), cria.image.size());
    LzChunkStreams& streams = planned->streams;
    streams.content_hash = report.image_hash;
    if (config_.chunk_dedup) {
      // Every chunk also lands in the home cache so the return hop can
      // dedup against this checkpoint.
      DedupStats& dedup = report.dedup;
      dedup.enabled = true;
      dedup.chunk_count = static_cast<uint32_t>(planned->hashes.size());
      dedup.manifest_wire_bytes =
          ManifestExchangeBytes(planned->hashes.size(), /*framed=*/false)
              .total();
      ChunkCache& home_cache = home_.chunk_cache();
      for (size_t i = 0; i < planned->hashes.size(); ++i) {
        const uint64_t begin = uint64_t{i} * kMigrationChunkBytes;
        const uint64_t len = std::min<uint64_t>(kMigrationChunkBytes,
                                                image_span.size() - begin);
        if (planned->cached[i] != 0) {
          ++dedup.ref_chunks;
          dedup.ref_raw_bytes += len;
        }
        home_cache.Insert(planned->hashes[i],
                          ByteSpan(image_span.data() + begin, len));
      }
    }
    if (!config_.resume) {
      // The streams carry the content now. Resume keeps the raw chunks for
      // transfer time: the guest caches each as its wire window closes.
      Bytes().swap(cria.image);
    }
    stats.chunk_count = static_cast<uint32_t>(streams.chunks.size());
    stats.chunk_kind = streams.kinds;
    stats.chunk_wire_bytes.reserve(streams.chunks.size());
    for (size_t i = 0; i < streams.chunks.size(); ++i) {
      stats.chunk_wire_bytes.push_back(streams.ChunkWireBytes(i));
      if (streams.KindOf(i) == LzChunkKind::kStored) {
        ++report.dedup.stored_chunks;
      }
    }
    if (!stats.chunk_wire_bytes.empty()) {
      stats.chunk_wire_bytes[0] += streams.HeaderBytes();
    }
    report.image_compressed_bytes = streams.ContainerSize();
    payload.PutBool(true);
    // Frame the container straight into the payload, releasing each chunk
    // buffer as it lands: peak memory stays ~1x the compressed image.
    const size_t token = payload.BeginBytes();
    LzFrameChunkContainer(
        streams, [&payload](ByteSpan part) { payload.AppendRaw(part); },
        /*release_chunks=*/true);
    payload.EndBytes(token);
    planned->payload = payload.TakeData();
    return std::move(*planned);
  }

  if (config_.compress_image) {
    report.compress.begin = device.clock().now();
    Bytes compressed = LzCompress(
        ByteSpan(cria.image.data(), cria.image.size()));
    device.context().SpendCpu(
        CpuCost(device, report.image_raw_bytes, kCompressMbps));
    report.compress.end = device.clock().now();
    // The raw image is dead once compressed; free it before the payload
    // append so peak checkpoint memory stays ~1x the image, not ~3x.
    Bytes().swap(cria.image);
    payload.PutBool(true);
    payload.PutBytes(ByteSpan(compressed.data(), compressed.size()));
    report.image_compressed_bytes = compressed.size();
  } else {
    report.compress.begin = device.clock().now();
    report.compress.end = report.compress.begin;
    payload.PutBool(false);
    payload.PutBytes(ByteSpan(cria.image.data(), cria.image.size()));
    report.image_compressed_bytes = report.image_raw_bytes;
    Bytes().swap(cria.image);
  }
  planned->payload = payload.TakeData();
  return std::move(*planned);
}

Result<MigrationManager::PlannedCut> MigrationManager::BuildPayloadPrecopy(
    const RunningApp& app, const AppSpec& spec, LinkShaper* shaper,
    MigrationReport& report) {
  Device& device = *app.device;
  Device& guest_device = guest_.device();
  SimClock& clock = device.clock();
  WifiNetwork& wifi = device.wifi();
  FlightRecorder* home_rec = &device.flight_recorder();
  PrecopyStats& pre = report.precopy;
  pre.enabled = true;
  pre.window.begin = clock.now();

  const std::vector<Pid> pids =
      app.all_pids.empty() ? std::vector<Pid>{app.pid} : app.all_pids;

  // The app is prepared (backgrounded, trimmed, GL-free) but its processes
  // keep running until the freeze: this write load dirties the heap at the
  // workload's rate from every AdvanceWithTicks slice below.
  PrecopyWriteLoad load(device, pids, spec);
  precopy_mutator_ = [&load](SimDuration elapsed) { load.Apply(elapsed); };
  // Every early return also stops the write load (it points at `load`).
  struct MutatorReset {
    std::function<void(SimDuration)>& mutator;
    ~MutatorReset() { mutator = nullptr; }
  } mutator_reset{precopy_mutator_};

  const EffectiveLink link = wifi.LinkBetween(device.profile().radio,
                                              guest_device.profile().radio);
  ChunkCache& home_cache = home_.chunk_cache();

  uint64_t pending_prev = 0; // pending raw bytes at the previous cut
  bool converged = false;
  std::string stop_reason;
  // The last round's cut when the rounds end right after planning it: the
  // app has not run since, so it is the stop-and-copy image. `final_epoch`
  // opened right before that cut.
  std::optional<PlannedCut> final_cut;
  uint64_t final_epoch = 0;

  for (int round = 0; round < config_.precopy_max_rounds; ++round) {
    PrecopyRound r;
    r.index = round;
    r.interval.begin = clock.now();
    const SimTime t0 = clock.now();

    // Cut: every round is a full checkpoint, the same cut the
    // stop-and-copy takes, so planning sees exactly the thread, fd, Binder
    // and app-state bytes a freeze at this instant would ship. The dirty
    // epoch opens first, in case this cut becomes the stop-and-copy.
    //
    // Plan: which chunks of this cut the guest cache is missing, and what
    // they would cost. The wire works in content-addressed chunks — a
    // re-written page only re-ships its chunk if the bytes actually
    // changed, so the pending set (not DirtyBytesSince) is what
    // termination must reason about. CutAndPlan compresses each pending
    // chunk once, with the dedup container's stored fallback; its wire size
    // is what a round streams and what the stop-and-copy would ship.
    const uint64_t epoch = Cria::BeginDirtyEpoch(device, pids);
    FLUX_ASSIGN_OR_RETURN(PlannedCut cut, CutAndPlan(app));
    const LzChunkStreams& streams = cut.streams;
    r.chunk_count = static_cast<uint32_t>(cut.hashes.size());
    std::vector<size_t> pending;
    uint64_t pending_wire = 0;  // pending chunks are compressed or stored
    for (size_t i = 0; i < cut.hashes.size(); ++i) {
      if (cut.cached[i] == 0) {
        pending.push_back(i);
        r.pending_raw_bytes += streams.RawChunkSize(i);
        pending_wire += Charged(streams.chunks[i].size());
      }
    }
    r.pending_chunks = static_cast<uint32_t>(pending.size());
    pre.dirty_bytes += r.pending_raw_bytes;

    // Bandwidth-aware termination: what would freezing at this cut cost?
    // The pending chunks pay the full serialize → wire → restore path in
    // the stop-and-copy; everything else rides the cache as refs.
    r.est_stop_copy = CpuCost(device, r.pending_raw_bytes, kSerializeMbps) +
                      wifi.TransferTime(pending_wire, link) +
                      CpuCost(guest_device, r.pending_raw_bytes, kRestoreMbps);
    FLUX_EVENT(home_rec, flight_events::kSubMigration,
               flight_events::kMigrationPrecopyRound, EventSeverity::kInfo,
               static_cast<uint64_t>(round), r.pending_raw_bytes);
    if (r.est_stop_copy <= config_.precopy_stop_copy_target) {
      // Freeze here: this cut is a probe, nothing streams, the pending
      // chunks ship in the stop-and-copy itself.
      converged = true;
    } else if (round > 0 && pending_prev > 0 &&
               static_cast<double>(r.pending_raw_bytes) >
                   kPrecopyMinRoundShrink * static_cast<double>(pending_prev)) {
      stop_reason = StrFormat(
          "pending set stopped shrinking (%llu -> %llu bytes in round %d)",
          static_cast<unsigned long long>(pending_prev),
          static_cast<unsigned long long>(r.pending_raw_bytes), round);
    }
    if (converged || !stop_reason.empty()) {
      r.interval.end = clock.now();
      pre.rounds.push_back(r);
      final_cut = std::move(cut);
      final_epoch = epoch;
      break;
    }
    pending_prev = r.pending_raw_bytes;

    // Stream the missing chunks, warming both caches for the final
    // stop-and-copy's dedup pass. Round 0 streams the whole image; later
    // rounds only the chunks the writes actually changed. The home caches
    // what it sends; the guest caches each chunk as its wire window
    // closes, and only applies it in the stop-and-copy. The app keeps
    // mutating while the stream walks the clock — that is the race
    // pre-copy iterates against.
    const ByteSpan image_span(cut.cria.image.data(), cut.cria.image.size());
    ChunkStream stream{wifi, link, cut.hashes,
                       "network lost during pre-copy round"};
    stream.chunks.reserve(pending.size());
    for (const size_t i : pending) {
      StreamChunk& c = stream.chunks.emplace_back();
      c.raw_bytes = streams.RawChunkSize(i);
      c.kind = streams.KindOf(i);
      c.wire = ByteSpan(streams.chunks[i].data(), streams.chunks[i].size());
      c.restore = false;
      c.key = cut.hashes[i];
      c.raw = image_span.subspan(uint64_t{i} * kMigrationChunkBytes,
                                 c.raw_bytes);
      home_cache.Insert(c.key, c.raw);
      r.raw_bytes_sent += c.raw_bytes;
    }
    r.chunks_sent = static_cast<uint32_t>(pending.size());
    ScheduleChunks(stream, /*wire_offset=*/0);
    FLUX_RETURN_IF_ERROR(StreamChunks(stream, t0, shaper, report));
    // The round ends when the guest has decoded its last chunk.
    AdvanceWithTicks(t0 + stream.plan.makespan + stream.extra);
    r.wire_bytes = stream.wire_bytes + stream.extra_wire;
    wifi.AccountTraffic(r.wire_bytes);
    pre.wire_bytes += r.wire_bytes;
    r.interval.end = clock.now();
    pre.rounds.push_back(r);
  }

  // Freeze: the app stops mutating; everything after this is the
  // stop-and-copy the user can perceive.
  precopy_mutator_ = nullptr;
  pre.converged = converged;
  pre.window.end = clock.now();
  if (!converged) {
    if (stop_reason.empty()) {
      stop_reason = StrFormat("round budget (%d) exhausted",
                              config_.precopy_max_rounds);
    }
    // Not fatal — the stop-and-copy still runs, just longer than the
    // target — but it is a policy failure worth evidence: freeze both
    // flight-recorder rings and the counters for post-hoc analysis.
    FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyAbortedConvergence,
                     1);
    last_forensics_ = BuildForensics(
        "precopy",
        Internal("pre-copy did not converge: " + stop_reason),
        /*rolled_back=*/false, ReplayAuditJournal{}, report);
    report.forensics = last_forensics_;
  }

  // The stop-and-copy ships the last round's cut when the rounds ended
  // right after planning it, and a fresh cut after a streaming round. A
  // write can race the freeze (the test hook models one): if anything
  // dirtied since the cut's epoch opened, the image is stale — re-cut
  // instead of silently dropping the bytes. The mutator is off, so the
  // loop terminates as soon as the racing writer goes quiet.
  PlannedCut shipped;
  for (int cut = 0;; ++cut) {
    const bool reuse = cut == 0 && final_cut.has_value();
    const uint64_t epoch =
        reuse ? final_epoch : Cria::BeginDirtyEpoch(device, pids);
    report.pipeline = PipelineStats{};
    report.dedup = DedupStats{};
    FLUX_ASSIGN_OR_RETURN(
        shipped, BuildPayload(app, report,
                              reuse ? std::move(final_cut) : std::nullopt));
    if (cut == 0 && config_.precopy_after_final_cut) {
      config_.precopy_after_final_cut();
    }
    if (Cria::DirtyBytesSince(device, pids, epoch) == 0) {
      break;
    }
    ++pre.final_recuts;
    FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyFinalRecuts, 1);
    if (cut >= 4) {
      return Internal("pre-copy final cut kept racing writes");
    }
  }
  // The warm-up rounds live inside the checkpoint interval (the user is
  // still at the target menu; §4): fold the window back in. The end gets
  // re-stamped by TransferPipelined at the pipeline-fill boundary.
  report.checkpoint.begin = pre.window.begin;

  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyRounds,
                   pre.rounds.size());
  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyWireBytes,
                   pre.wire_bytes);
  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyDirtyBytes,
                   pre.dirty_bytes);
  uint64_t resent = 0;
  for (const PrecopyRound& r : pre.rounds) {
    if (r.index > 0) {
      resent += r.chunks_sent;
    }
  }
  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyChunksResent, resent);
  return shipped;
}

Result<AppDataSync> MigrationManager::SyncAppData(const RunningApp& app,
                                                  const AppSpec& spec,
                                                  MigrationReport& report) {
  Device& home_device = *app.device;
  Device& guest_device = guest_.device();
  ScopedTimer timer(home_device.clock(), report.data_sync);

  // Verify (and if needed refresh) the paired APK (§3.1). This is a real
  // protocol exchange: the clock advances here, for exactly these bytes.
  FLUX_ASSIGN_OR_RETURN(
      uint64_t apk_wire,
      VerifyPairedApk(home_, guest_, spec, config_.trace));

  // Delta-sync the app's data directories into the pairing root.
  const std::string pair_root = FluxAgent::PairRoot(home_device.name());
  SyncOptions options;
  options.compress = true;
  uint64_t data_wire = 0;
  const std::string data_dir = "/data/data/" + app.package;
  if (home_device.filesystem().Exists(data_dir)) {
    FLUX_ASSIGN_OR_RETURN(
        SyncStats sync,
        SyncTree(home_device.filesystem(), data_dir, guest_device.filesystem(),
                 pair_root + data_dir, options));
    data_wire += sync.WireBytes();
  }
  const std::string sd_dir = "/sdcard/Android/data/" + app.package;
  if (home_device.filesystem().Exists(sd_dir)) {
    FLUX_ASSIGN_OR_RETURN(
        SyncStats sync,
        SyncTree(home_device.filesystem(), sd_dir, guest_device.filesystem(),
                 pair_root + sd_dir, options));
    data_wire += sync.WireBytes();
  }
  return AppDataSync{apk_wire, data_wire};
}

bool MigrationManager::AdvanceWithTicks(SimTime target, WifiNetwork* watch) {
  Device& home_device = home_.device();
  Device& guest_device = guest_.device();
  SimClock& clock = home_device.clock();
  while (clock.now() < target) {
    if (watch != nullptr && !watch->UpAt(clock.now())) {
      return false;
    }
    const SimDuration step =
        std::min<SimDuration>(kTransferTick, target - clock.now());
    clock.Advance(step);
    if (watch != nullptr) {
      watch->CountTick(step);
    }
    if (precopy_mutator_) {
      // Pre-copy rounds only: the app is still running at home and keeps
      // dirtying its heap while chunks stream.
      precopy_mutator_(step);
    }
    home_device.Tick();
    guest_device.Tick();
    if (config_.telemetry_poll) {
      // Read-only sampler poll (TimeSeriesSampler::Poll) — observes
      // counter state mid-flight without touching simulated state.
      config_.telemetry_poll();
    }
  }
  return watch == nullptr || watch->UpAt(clock.now());
}

Status MigrationManager::AdvanceStream(ChunkStream& stream, SimTime target,
                                       uint64_t resend_wire,
                                       MigrationReport& report) {
  SimClock& clock = home_.device().clock();
  WifiNetwork& wifi = stream.wifi;
  const EffectiveLink& link = stream.link;
  ResumeStats& res = report.resume;
  while (!AdvanceWithTicks(target + stream.extra, &wifi)) {
    ++res.interruptions;
    if (!config_.resume) {
      return Unavailable(stream.fail_msg);
    }
    if (static_cast<int>(res.attempts) >= kResumeMaxAttempts) {
      return Unavailable(StrFormat("resume attempt budget (%d) exhausted",
                                   kResumeMaxAttempts))
          .WithCause(Unavailable(stream.fail_msg));
    }
    const SimTime down_at = clock.now();
    SimTime recovery = 0;
    if (!wifi.NextUpAt(down_at, &recovery)) {
      return Unavailable("link lost permanently; nothing to resume to")
          .WithCause(Unavailable(stream.fail_msg));
    }
    if (recovery - down_at > static_cast<SimTime>(config_.resume_wait_max)) {
      return Unavailable(
                 StrFormat("outage outlasts resume_wait_max (%.1f s down)",
                           ToSecondsF(static_cast<SimDuration>(recovery -
                                                               down_at))))
          .WithCause(Unavailable(stream.fail_msg));
    }
    res.enabled = true;
    TimedInterval stall;
    stall.begin = down_at;
    // Wait out the outage; both devices keep ticking (and a pre-copy app
    // keeps dirtying its heap — the stall is part of the round's race).
    AdvanceWithTicks(recovery);
    ++res.attempts;

    // The handshake (PROTOCOL.md §8): one kResumeOffer frame carrying the
    // manifest out, one kResumeAck frame carrying the availability bitmap
    // back. Same shape as the dedup manifest exchange, always framed; the
    // offer header carries the 16-byte trace-context field (§7.1), so the
    // resumed transfer re-joins the same causal trace on the guest.
    const ManifestExchange offer =
        ManifestExchangeBytes(stream.manifest.size(), /*framed=*/true);
    const SimDuration handshake = wifi.TransferTime(offer.out, link) +
                                  wifi.TransferTime(offer.back, link);
    AdvanceWithTicks(clock.now() + handshake);
    res.handshake_wire_bytes += offer.total();

    // The ack: chunks the guest's cache already holds — everything
    // delivered before the outage plus anything warm from earlier hops —
    // never travel again. Only the chunk that was in flight re-sends, in
    // full.
    uint32_t acked = 0;
    for (const uint8_t held : guest_.chunk_cache().HasValidBatch(
             stream.manifest, CompressionPool())) {
      acked += held;
    }
    res.chunks_acked += acked;
    res.lost_bytes += resend_wire;
    res.retransmit_bytes += resend_wire;
    stall.end = clock.now();
    res.stalls.push_back(stall);
    res.stalled += stall.end - stall.begin;
    FLUX_EVENT(&home_.device().flight_recorder(), flight_events::kSubMigration,
               flight_events::kMigrationResume, EventSeverity::kWarning,
               res.attempts, acked);

    // The rest of the stream shifts by the stall, the handshake and the
    // in-flight re-send.
    stream.extra_wire += offer.total() + resend_wire;
    stream.extra += (stall.end - stall.begin) +
                    (resend_wire > 0
                         ? wifi.TransferTime(resend_wire, link) - link.latency
                         : 0);
  }
  return OkStatus();
}

Status MigrationManager::Transfer(const RunningApp& app, const AppSpec& spec,
                                  uint64_t payload_bytes,
                                  MigrationReport& report) {
  Device& home_device = *app.device;
  SimClock& clock = home_device.clock();
  WifiNetwork& wifi = home_device.wifi();
  ScopedTimer timer(clock, report.transfer);

  if (!wifi.UpAt(clock.now())) {
    return Unavailable("network unreachable during migration transfer");
  }
  FLUX_ASSIGN_OR_RETURN(AppDataSync sync, SyncAppData(app, spec, report));
  report.data_sync_bytes = sync.total();
  report.total_wire_bytes = report.data_sync_bytes + payload_bytes;

  const EffectiveLink link = wifi.LinkBetween(home_device.profile().radio,
                                              guest_.device().profile().radio);
  // One monolithic transfer, walked like every other wait: the world keeps
  // moving while the bytes are in flight, and the link is watched at every
  // slice boundary.
  if (!AdvanceWithTicks(
          clock.now() + wifi.TransferTime(report.total_wire_bytes, link),
          &wifi)) {
    return Unavailable("network lost mid-transfer; payload incomplete");
  }
  wifi.AccountTransfer(report.total_wire_bytes, link);
  return OkStatus();
}

void MigrationManager::ScheduleChunks(ChunkStream& stream,
                                      SimDuration wire_offset) const {
  for (const char* name :
       {"serialize", "compress", "wire", "decompress", "restore"}) {
    stream.stages.push_back({name, {}, 0});
    stream.stages.back().chunk_cost.reserve(stream.chunks.size());
  }
  std::vector<PipelineStageModel>& stages = stream.stages;
  for (size_t i = 0; i < stream.chunks.size(); ++i) {
    const StreamChunk& c = stream.chunks[i];
    const ChunkCpuCosts cost =
        ChunkCosts(home_.device(), guest_.device(), c.raw_bytes, c.kind,
                   c.serialize, c.restore);
    stages[0].chunk_cost.push_back(cost.serialize);
    stages[1].chunk_cost.push_back(cost.compress);
    // Transfer time, with the link latency charged once for the whole
    // stream (chunk 0); a deferred chunk costs the foreground wire nothing.
    stages[2].chunk_cost.push_back(
        c.wire.empty()
            ? 0
            : stream.wifi.TransferTime(Charged(c.wire.size()), stream.link) -
                  (i == 0 ? 0 : stream.link.latency));
    stages[3].chunk_cost.push_back(cost.decompress);
    stages[4].chunk_cost.push_back(cost.restore);
  }
  stages[kWireStage].initial_offset = wire_offset;
  stream.plan = SchedulePipeline(stages);
}

Status MigrationManager::StreamChunks(ChunkStream& stream, SimTime t0,
                                      LinkShaper* shaper,
                                      MigrationReport& report) {
  WifiNetwork& wifi = stream.wifi;
  const EffectiveLink& link = stream.link;
  // Advance to each wire-stage finish, watching for outages at every tick
  // boundary. Without resume an outage aborts the stream; with it, the
  // stream rides the outage out and the rest of the schedule shifts by
  // `stream.extra`. A shaped link also runs the frame codec per chunk,
  // adding its retransmissions, jitter and rate dips.
  FLUX_RETURN_IF_ERROR(AdvanceStream(
      stream, t0 + stream.stages[kWireStage].initial_offset + link.latency,
      /*resend_wire=*/0, report));
  FrameWireStats& fw = report.frame_wire;
  fw.enabled = shaper != nullptr;
  uint32_t next_seq = 0;
  uint32_t next_group = 0;
  for (size_t i = 0; i < stream.chunks.size(); ++i) {
    const StreamChunk& c = stream.chunks[i];
    if (c.wire.empty()) {
      continue;  // deferred: never on the foreground wire
    }
    uint64_t in_flight = Charged(c.wire.size());
    stream.wire_bytes += in_flight;
    if (shaper != nullptr) {
      // The real codec over this chunk's bytes: encode, lose, CRC-reject
      // corrupt arrivals, FEC-reconstruct, retransmit — and the reassembly
      // is checked byte-for-byte against what was sent.
      FLUX_ASSIGN_OR_RETURN(
          const ChunkTransmission tx,
          TransmitFramedChunk(c.wire, *shaper, frame_options_, next_seq,
                              next_group, &home_.device().flight_recorder()));
      next_seq = tx.next_seq;
      next_group = tx.next_group;
      fw.frames_sent += tx.frames_sent;
      fw.data_frames += tx.data_frames;
      fw.parity_frames += tx.parity_frames;
      fw.frames_lost += tx.frames_lost;
      fw.crc_errors += tx.crc_errors;
      fw.frames_recovered += tx.frames_recovered;
      fw.frames_retransmitted += tx.frames_retransmitted;
      fw.wire_bytes += tx.wire_bytes;
      fw.lost_bytes += tx.lost_bytes;
      fw.retransmit_bytes += tx.retransmit_bytes;
      stream.extra_wire += tx.retransmit_bytes;
      in_flight = tx.wire_bytes;
      // Time beyond the loss-free framed plan: retransmission rounds, this
      // chunk's jitter draw, and a rate dip stretching its window.
      SimDuration chunk_extra = shaper->NextJitter();
      if (tx.retransmit_bytes > 0) {
        chunk_extra +=
            wifi.TransferTime(tx.retransmit_bytes, link) - link.latency;
      }
      const double dip = shaper->NextRateFactor();
      if (dip < 1.0) {
        const SimDuration base =
            wifi.TransferTime(tx.wire_bytes, link) - link.latency;
        chunk_extra += FromSecondsF(ToSecondsF(base) * (1.0 / dip - 1.0));
      }
      stream.extra += chunk_extra;
    }
    FLUX_RETURN_IF_ERROR(AdvanceStream(
        stream, t0 + stream.plan.finish[kWireStage][i], in_flight, report));
    if (!c.raw.empty()) {
      // Chunk-granular delivery: a resume ack, and what a lost stream
      // leaves cached, cover exactly the chunks whose windows closed.
      guest_.chunk_cache().Insert(c.key, c.raw);
    }
  }
  return OkStatus();
}

Result<SimTime> MigrationManager::TransferPipelined(const RunningApp& app,
                                                    const AppSpec& spec,
                                                    PlannedCut& cut,
                                                    LinkShaper* shaper,
                                                    MigrationReport& report) {
  Device& home_device = *app.device;
  Device& guest_device = guest_.device();
  SimClock& clock = home_device.clock();
  WifiNetwork& wifi = home_device.wifi();
  PipelineStats& stats = report.pipeline;
  const ByteSpan payload(cut.payload.data(), cut.payload.size());

  // Hostile-network path (DESIGN.md §13): a non-clean profile frames every
  // wire byte and runs the real frame codec per chunk; resume additionally
  // rides out recoverable outages. Both off (the default) leaves this
  // function byte-identical to the baseline schedule — Charged() is the
  // identity and there is no shaper.
  const bool shaped = shaper != nullptr;
  if (config_.resume) {
    report.resume.enabled = true;
  }
  // Dedup's manifest handshake, as two control frames (kManifest +
  // kManifestAck) under a profile.
  const ManifestExchange manifest =
      ManifestExchangeBytes(report.dedup.chunk_count, shaped);

  const EffectiveLink link = wifi.LinkBetween(home_device.profile().radio,
                                              guest_device.profile().radio);

  const size_t count = stats.chunk_count;
  uint64_t container_bytes = 0;
  for (const uint64_t wire : stats.chunk_wire_bytes) {
    container_bytes += wire;
  }
  // Payload bytes outside the image container (magic, package name, hw +
  // log sections) ship with the data sync, ahead of the chunk stream.
  if (payload.size() < container_bytes) {
    return Corrupt("payload is shorter than its image container");
  }
  const uint64_t prefix_payload = payload.size() - container_bytes;

  // Post-copy composition: only the priority prefix of chunks streams in
  // the foreground; deferred chunks cost nothing on the foreground wire
  // (they stream in the background; demand paging serves faults).
  size_t foreground_chunks = count;
  if (config_.post_copy && count > 0) {
    const double fraction =
        std::clamp(config_.post_copy_priority_fraction, 0.05, 1.0);
    foreground_chunks = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(static_cast<double>(count) * fraction)));
    foreground_chunks = std::min(foreground_chunks, count);
  }

  // The stream: the container's chunk slices, prefixes included.
  ChunkStream stream{wifi, link, cut.hashes,
                     "network lost mid-transfer; payload incomplete"};
  stream.chunks.resize(count);
  uint64_t chunk_off = prefix_payload;
  for (size_t i = 0; i < count; ++i) {
    StreamChunk& c = stream.chunks[i];
    c.raw_bytes = cut.streams.RawChunkSize(i);
    // Dedup mode: a ref chunk never runs the codec — the home side ships
    // its hash and the guest memcpys verified cache content. A stored
    // chunk still paid the compress attempt (that is how it was found
    // incompressible) but decodes with a plain copy.
    c.kind = cut.streams.KindOf(i);
    // Pre-copy: a ref chunk was serialized during the warm-up rounds (its
    // content hash proves it unchanged since), and the guest applied its
    // cached content then too — both endpoints skip it in the stop-and-copy.
    const bool prewarmed = config_.precopy && c.kind == LzChunkKind::kRef;
    c.serialize = !prewarmed;
    c.restore = !prewarmed;
    const uint64_t chunk_len = stats.chunk_wire_bytes[i];
    if (i < foreground_chunks) {
      c.wire = payload.subspan(chunk_off, chunk_len);
    } else {
      report.deferred_bytes += Charged(chunk_len);
    }
    chunk_off += chunk_len;
    if (config_.resume) {
      // The guest caches each chunk as its wire window closes, so a resume
      // ack covers exactly the delivered prefix (plus anything warm from
      // earlier hops).
      c.key = cut.hashes[i];
      c.raw = ByteSpan(cut.cria.image.data(), cut.cria.image.size())
                  .subspan(uint64_t{i} * kMigrationChunkBytes, c.raw_bytes);
    }
  }

  // The pipeline's time origin: checkpoint work (serialize + compress) was
  // deferred by BuildPayload and is charged from here via the schedule, so
  // the checkpoint interval stamped there collapses to ~0 and gets
  // re-stamped below. A link that is down here is an ordinary stall of the
  // stream: without resume it aborts, with it the stream rides the outage
  // out, and the stall stays in the checkpoint interval.
  const SimTime t0 = clock.now();
  FLUX_RETURN_IF_ERROR(AdvanceStream(stream, t0, /*resend_wire=*/0, report));
  // The schedule's offsets count from `start`, which is t0 shifted by that
  // stall (`stream.extra` so far). StreamChunks and the drain deadline keep
  // counting from t0: every stall, this one included, is in stream.extra.
  const SimTime start = clock.now();

  // APK verification + data sync run first on the wire, concurrent with
  // home-side serialization of the early chunks: they are the wire stage's
  // initial busy period.
  FLUX_ASSIGN_OR_RETURN(AppDataSync sync, SyncAppData(app, spec, report));
  report.data_sync_bytes = sync.total();
  const SimDuration sync_elapsed = clock.now() - start;

  // The wire is busy before chunk 0 can stream: the sync protocol itself
  // (already on the clock — `sync_elapsed` covers the APK verification
  // exchange), then the data-sync bytes + non-image payload prefix still
  // owed to the stream. Only the data-dir bytes are owed: the APK bytes
  // rode the verification exchange inside sync_elapsed, so charging
  // sync.total() here would bill them twice (pinned by
  // PipelineTest.ApkResyncChargedOnce). The stream handshake latency is
  // charged once, on chunk 0.
  SimDuration wire_offset =
      sync_elapsed +
      wifi.TransferTime(Charged(sync.data_wire_bytes + prefix_payload), link) -
      link.latency;
  if (report.dedup.enabled) {
    // The manifest handshake: hashes go out as soon as the checkpoint is
    // hashed, and the home streams data chunks optimistically while the
    // availability bitmap is in flight — only a hop that actually encodes
    // ref chunks had to wait for the reply. Even then the round trip
    // overlaps the data sync on the same link and the home-side fill of
    // chunk 0 (hashing finishes before compression begins), so it delays
    // the stream only when it outlasts both.
    report.dedup.manifest_rtt = wifi.TransferTime(manifest.out, link) +
                                wifi.TransferTime(manifest.back, link);
    const StreamChunk c0 = count > 0 ? stream.chunks[0] : StreamChunk{};
    const ChunkCpuCosts cost0 = ChunkCosts(home_device, guest_device,
                                           c0.raw_bytes, c0.kind,
                                           c0.serialize, c0.restore);
    const SimDuration fill0 = cost0.serialize + cost0.compress;
    if (report.dedup.ref_chunks > 0 && report.dedup.manifest_rtt > fill0) {
      wire_offset = std::max(wire_offset, report.dedup.manifest_rtt);
    }
  }

  ScheduleChunks(stream, wire_offset);
  const std::vector<PipelineStageModel>& stages = stream.stages;
  const PipelinePlan& plan = stream.plan;
  stats.makespan = plan.makespan;
  stats.stages = plan.stages;

  // Now walk the simulated clock along the schedule. The checkpoint
  // interval (home-side fill) ends when chunk 0 is compressed and ready to
  // ship; everything after that is perceived as transfer.
  AdvanceWithTicks(start + plan.stages[kCompressStage].first_finish);
  report.checkpoint.end = clock.now();
  report.transfer.begin = clock.now();

  // The compress sub-phase, re-derived from the schedule: chunk 0's
  // compress start through the last chunk's compress finish. It extends
  // past checkpoint.end into the transfer window — compression overlaps
  // the wire by design; it is a contained detail, not a sixth timeline
  // phase (Total() stays the sum of the five + tail).
  if (count > 0 && plan.stages[kCompressStage].busy > 0) {
    report.compress.begin = start + plan.finish[kCompressStage][0] -
                            stages[kCompressStage].chunk_cost[0];
    report.compress.end = start + plan.stages[kCompressStage].finish;
  } else {
    report.compress.begin = report.checkpoint.end;
    report.compress.end = report.checkpoint.end;
  }

#if FLUX_TRACE_ENABLED
  // Per-chunk stage spans on "pipeline/<stage>" tracks, straight from the
  // schedule (zero-cost chunks — deduped refs, deferred wire — skipped).
  if (Tracer* trace = config_.trace; trace != nullptr) {
    for (size_t s = 0; s < stages.size(); ++s) {
      const std::string track =
          std::string(trace_names::kTrackPipelinePrefix) + stages[s].name;
      // Per-chunk stage latencies also feed the pipeline.<stage>_us
      // histograms (the name matches the kHistPipeline* constants).
      TraceHistogram* hist =
          trace->histogram("pipeline." + stages[s].name + "_us");
      for (size_t i = 0; i < count; ++i) {
        const SimDuration cost = stages[s].chunk_cost[i];
        if (cost <= 0) {
          continue;
        }
        hist->Record(static_cast<uint64_t>(cost));
        const SimTime end = start + plan.finish[s][i];
        trace->EmitSpanOnTrack("chunk " + std::to_string(i), track,
                               end - cost, end);
      }
    }
  }
#endif  // FLUX_TRACE_ENABLED
  FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationChunksTotal,
                   stats.chunk_count);
  FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationChunksDeduped,
                   report.dedup.ref_chunks);

  FLUX_RETURN_IF_ERROR(StreamChunks(stream, t0, shaper, report));
  // The manifest handshake (hashes out, availability bitmap back) is real
  // wire traffic even though its latency mostly hides under the data sync.
  // Under a profile every component is charged framed: chunks per chunk,
  // the non-image prefix as one stream, and the manifest as two control
  // frames.
  const uint64_t foreground_wire =
      report.data_sync_bytes + Charged(prefix_payload) + stream.wire_bytes +
      (report.dedup.enabled ? manifest.total() : 0);
  wifi.AccountTraffic(foreground_wire + stream.extra_wire);
  report.total_wire_bytes = foreground_wire + stream.extra_wire;
  report.transfer.end = clock.now();
  Bytes().swap(cut.cria.image);  // the guest cache holds the chunks now
  // What the strictly serial staging would have cost for the same work:
  // full-image serialize + single-core compress, one monolithic transfer,
  // then decompress + restore — the Figure 13 sum.
  stats.serial_estimate =
      CpuCost(home_device, report.image_raw_bytes, kSerializeMbps) +
      CpuCost(home_device, report.image_raw_bytes, kCompressMbps) +
      sync_elapsed + wifi.TransferTime(foreground_wire, link) +
      CpuCost(guest_device, report.image_raw_bytes, kDecompressMbps) +
      CpuCost(guest_device, report.image_raw_bytes, kRestoreMbps);
  stats.saved = stats.serial_estimate > stats.makespan
                    ? stats.serial_estimate - stats.makespan
                    : 0;

  if (report.frame_wire.enabled) {
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesSent,
                     report.frame_wire.frames_sent);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesLost,
                     report.frame_wire.frames_lost);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFrameCrcErrors,
                     report.frame_wire.crc_errors);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesRecovered,
                     report.frame_wire.frames_recovered);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesRetransmitted,
                     report.frame_wire.frames_retransmitted);
  }
  if (report.resume.enabled) {
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationResumeAttempts,
                     report.resume.attempts);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationResumeChunksAcked,
                     report.resume.chunks_acked);
    FLUX_TRACE_COUNT(config_.trace,
                     trace_names::kMigrationResumeRetransmitBytes,
                     report.resume.retransmit_bytes);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationResumeLostBytes,
                     report.resume.lost_bytes);
  }

  // The guest-side drain (decompress + restore-apply beyond the last wire
  // finish) is charged by RestoreOnGuest up to this deadline, shifted by
  // whatever the hostile path added.
  return t0 + plan.makespan + stream.extra;
}

Result<CriaRestoredApp> MigrationManager::RestoreOnGuest(
    ByteSpan payload, SimTime restore_deadline, MigrationReport& report,
    CallLog& log_out, HardwareSnapshot& hw_out) {
  Device& guest_device = guest_.device();
  ScopedTimer timer(guest_device.clock(), report.restore);

  ArchiveReader reader(payload);
  uint32_t magic = 0;
  FLUX_RETURN_IF_ERROR(reader.GetU32(magic));
  if (magic != kPayloadMagic) {
    return Corrupt("not a Flux migration payload");
  }
  std::string package;
  FLUX_RETURN_IF_ERROR(reader.GetString(package));

  ArchiveReader hw_section({});
  FLUX_RETURN_IF_ERROR(reader.GetSection(hw_section));
  FLUX_ASSIGN_OR_RETURN(hw_out, HardwareSnapshot::Deserialize(hw_section));

  ArchiveReader log_section({});
  FLUX_RETURN_IF_ERROR(reader.GetSection(log_section));
  FLUX_ASSIGN_OR_RETURN(log_out, CallLog::Deserialize(log_section));

  bool compressed = false;
  ByteSpan image_view;
  FLUX_RETURN_IF_ERROR(reader.GetBool(compressed));
  // Zero-copy view into the payload: the image is only staged once more if
  // it needs decompressing.
  FLUX_RETURN_IF_ERROR(reader.GetBytesView(image_view));
  Bytes image_bytes;
  ByteSpan image = image_view;
  std::optional<Hash128> container_digest;
  // Dedup mode feeds the restored chunks back into this device's cache, so
  // the next hop (either direction) dedups against them. Only a container
  // cut at the cache's own chunk size is re-inserted: that is every
  // container the engine cuts and the only size a manifest can hit, and
  // the home picks the size, so a container of tiny chunks would otherwise
  // make the guest pay an entry's list and map overhead per few bytes.
  std::vector<Hash128> chunk_keys;
  bool reinsert = false;
  if (compressed) {
    if (LzIsChunkedStream(image_view)) {
      std::optional<ChunkCacheRefSource> refs;
      if (config_.chunk_dedup) {
        // Ref chunks resolve from this device's cache, every entry
        // re-verified against its hash on the pool, so a poisoned entry
        // reads as a miss and the decode fails loudly instead of
        // corrupting the restore.
        refs.emplace(guest_.chunk_cache());
        const auto info = LzPeekChunkContainer(image_view);
        reinsert =
            info.ok() && info.value().chunk_size == kChunkCacheChunkBytes;
      }
      FLUX_ASSIGN_OR_RETURN(
          Bytes raw,
          LzDecompressChunks(image_view, refs ? &*refs : nullptr,
                             &container_digest, CompressionPool(),
                             reinsert ? &chunk_keys : nullptr));
      image_bytes = std::move(raw);
    } else {
      FLUX_ASSIGN_OR_RETURN(Bytes raw, LzDecompress(image_view));
      image_bytes = std::move(raw);
    }
    if (!config_.pipelined) {
      guest_device.context().SpendCpu(
          CpuCost(guest_device, image_bytes.size(), kDecompressMbps));
    }
    image = ByteSpan(image_bytes.data(), image_bytes.size());
  }
  if (!config_.pipelined) {
    guest_device.context().SpendCpu(
        CpuCost(guest_device, image.size(), kRestoreMbps));
  }
  // The decoder computed a v2 container's digest from the reassembled bytes
  // and matched it; anything else is hashed here.
  report.restored_image_hash = container_digest.has_value()
                                   ? *container_digest
                                   : FluxHash128(image);
  if (reinsert) {
    // Content is verified — the container digest already matched — and
    // the decoder reported each chunk's key: the ref it resolved, or a
    // hash of the bytes it decoded.
    ChunkCache& cache = guest_.chunk_cache();
    for (size_t i = 0; i < chunk_keys.size(); ++i) {
      const uint64_t begin = uint64_t{i} * kChunkCacheChunkBytes;
      const uint64_t len =
          std::min<uint64_t>(kChunkCacheChunkBytes, image.size() - begin);
      cache.Insert(chunk_keys[i], image.subspan(begin, len));
    }
  }

  CriaRestoreOptions options;
  options.jail_root = FluxAgent::PairRoot(hw_out.device_name);
  options.trace = config_.trace;
  auto restored = Cria::Restore(guest_device, image, options);
  if (restored.ok() && config_.pipelined) {
    // Decompress + restore-apply overlapped with the transfer; only the
    // pipeline drain past the last wire byte lands in this interval.
    AdvanceWithTicks(restore_deadline);
  }
  return restored;
}

Status MigrationManager::Reintegrate(CriaRestoredApp& restored,
                                     const CallLog& log,
                                     const HardwareSnapshot& home_hw,
                                     MigrationReport& report,
                                     ReplayAuditJournal& journal) {
  Device& guest_device = guest_.device();
  ScopedTimer timer(guest_device.clock(), report.reintegrate);

  // The guest agent manages the app from now on; replay's own calls must
  // not be re-recorded (§3.1).
  guest_.Manage(restored.pid, restored.package);
  guest_.recorder().PauseRecording(restored.pid);

  {
    ScopedTimer replay_timer(guest_device.clock(), report.replay_window);
    FLUX_ASSIGN_OR_RETURN(
        report.replay,
        guest_.replayer().Replay(log, restored, home_hw, &journal));
  }

  // The log keeps living on the guest so the app can migrate again — keyed
  // by the guest's node ids, or the next hop's replay could not map the
  // app-owned objects it names.
  CallLog guest_log = log;
  guest_log.RemapNodes(restored.node_mapping);
  guest_.recorder().InstallLog(restored.pid, std::move(guest_log));

  // Connectivity: the app sees a loss and a new connection (§3.1).
  Intent lost;
  lost.action = "android.net.conn.CONNECTIVITY_CHANGE";
  lost.extras["connected"] = "false";
  guest_device.activity_manager().BroadcastIntent(lost);
  Intent regained;
  regained.action = "android.net.conn.CONNECTIVITY_CHANGE";
  regained.extras["connected"] = "true";
  regained.extras["network"] =
      guest_device.context().connectivity.network_name;
  guest_device.activity_manager().BroadcastIntent(regained);

  guest_.recorder().ResumeRecording(restored.pid);

  // Foreground: surfaces are recreated at the guest's resolution and the
  // first draw reinitializes graphics via conditional initialization.
  FLUX_RETURN_IF_ERROR(
      guest_device.activity_manager().BringAppToForeground(restored.pid));
  for (const std::string& token : restored.activity_tokens) {
    FLUX_RETURN_IF_ERROR(restored.thread->DrawFrame(token));
  }
  guest_device.context().SpendCpu(kReintegrateFixed);
  return OkStatus();
}

Result<MigrationReport> MigrationManager::Migrate(const RunningApp& app,
                                                  const AppSpec& spec) {
  MigrationReport report;
  report.app = app.display_name.empty() ? app.package : app.display_name;
  report.home_device = home_.device().name();
  report.guest_device = guest_.device().name();

  // Fan the tracer out to every layer the migration touches (agents cover
  // recorder/replayer/chunk-cache/binder). Null is valid and clears it.
  home_.set_tracer(config_.trace);
  guest_.set_tracer(config_.trace);
  home_.device().wifi().set_tracer(config_.trace);
  guest_.device().wifi().set_tracer(config_.trace);
  // The shared network has no device of its own; its outage/transfer events
  // land in the home ring for the duration of this migration.
  home_.device().wifi().set_flight_recorder(
      &home_.device().flight_recorder());
  FlightRecorder* home_rec = &home_.device().flight_recorder();

  // Causal context (telemetry.h): adopt the coordinator's, or mint our own
  // for standalone runs. Both recorders and the tracer stamp it into every
  // event/span until Migrate returns; the guard clears it on every exit
  // path so the next migration on these devices starts clean.
  ctx_ = config_.trace_context.valid()
             ? config_.trace_context
             : MintTraceContext(app.package, report.home_device,
                                report.guest_device,
                                home_.device().clock().now());
  report.trace_context = ctx_;
  home_.device().flight_recorder().set_context(ctx_);
  guest_.device().flight_recorder().set_context(ctx_);
  if (config_.trace != nullptr) {
    config_.trace->set_context(ctx_);
  }
  struct ContextGuard {
    MigrationManager* manager;
    ~ContextGuard() {
      manager->home_.device().flight_recorder().clear_context();
      manager->guest_.device().flight_recorder().clear_context();
      if (manager->config_.trace != nullptr) {
        manager->config_.trace->clear_context();
      }
      manager->ctx_ = TraceContext{};
    }
  } context_guard{this};

  // A shaped link draws every framed chunk of this migration, pre-copy
  // rounds first, from one shaper: the draw sequence is part of the
  // deterministic contract.
  std::unique_ptr<LinkShaper> shaper;
  if (!config_.net_profile.IsClean()) {
    const ByteSpan package(
        reinterpret_cast<const uint8_t*>(app.package.data()),
        app.package.size());
    home_.device().wifi().ApplyProfile(
        config_.net_profile,
        FluxHash64(package, 0x6f757467u) ^ config_.net_seed);
    shaper = std::make_unique<LinkShaper>(
        config_.net_profile,
        FluxHash64(package, /*seed=*/0x6672616d) ^ config_.net_seed);
  }

  if (app.device != &home_.device()) {
    return InvalidArgument("app is not running on the home agent's device");
  }
  if (!home_.IsPairedWith(guest_.device().name())) {
    return FailedPrecondition("devices are not paired");
  }
  FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                    flight_events::kMigrationStart, EventSeverity::kInfo,
                    static_cast<uint64_t>(app.pid), 0,
                    app.package + " -> " + report.guest_device);

  auto refuse = [&](std::string reason) -> MigrationReport {
    report.refusal_reason = std::move(reason);
    FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                      flight_events::kMigrationRefused,
                      EventSeverity::kWarning,
                      static_cast<uint64_t>(app.pid), 0,
                      report.refusal_reason);
    return report;
  };

  // API-level compatibility (§3.1).
  const PackageInfo* info =
      home_.device().package_manager().Find(app.package);
  if (info != nullptr &&
      info->min_api_level > guest_.device().context().api_level) {
    return refuse(StrFormat("app requires API level %d but guest runs %d",
                            info->min_api_level,
                            guest_.device().context().api_level));
  }

  // Up-front refusals (§3.4): these leave the app running untouched.
  if (!config_.enable_multiprocess &&
      home_.device().kernel().ProcessesOfUid(app.uid).size() > 1) {
    return refuse("multi-process apps are not supported");
  }
  if (home_.device().egl().HasPreservedContext(app.pid)) {
    return refuse(
        "app requests its EGL context persist in the background "
        "(setPreserveEGLContextOnPause)");
  }
  CriaCheckOptions check;
  check.allow_multiprocess = config_.enable_multiprocess;
  if (Status migratable =
          Cria::CheckMigratable(home_.device(), app.pid, check);
      !migratable.ok()) {
    return refuse(std::string(migratable.message()));
  }

  // Filled by Reintegrate's replay pass; rolled into the forensic report
  // whether the migration aborts or merely limps (partial replay failure).
  ReplayAuditJournal journal;

  // From here on the app is frozen at home; any failure before the guest
  // copy is live must roll the home copy back to a usable state. `phase`
  // names the pipeline stage that failed, for the forensic report.
  auto rollback = [&](const char* phase, const Status& cause) -> Status {
    // A restore that failed partway may have left wrapper processes on the
    // guest; tear them down so the guest is clean for the next attempt.
    if (const PackageInfo* wrapper =
            guest_.device().package_manager().Find(app.package)) {
      for (const Pid orphan :
           guest_.device().kernel().ProcessesOfUid(wrapper->uid)) {
        (void)guest_.device().KillAppProcess(orphan);
      }
    }
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationRollbacks, 1);
    home_.recorder().ResumeRecording(app.pid);
    Status fg = app.device->activity_manager().BringAppToForeground(app.pid);
    if (!fg.ok()) {
      // Double fault: the rollback itself failed and the app is in limbo —
      // the worst state this pipeline can reach. Counted and journaled so
      // a fleet can alert on it.
      FLUX_TRACE_COUNT(config_.trace,
                       trace_names::kMigrationRollbackFailures, 1);
      FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                        flight_events::kMigrationRollbackFailed,
                        EventSeverity::kError,
                        static_cast<uint64_t>(app.pid), 0, fg.ToString());
      FLUX_LOG(kError, "migration")
          << "rollback foreground failed: " << fg.ToString();
    }
    FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                      flight_events::kMigrationRollback,
                      EventSeverity::kError, static_cast<uint64_t>(app.pid),
                      0, phase);
    FLUX_LOG(kWarning, "migration")
        << report.app << ": migration aborted (" << cause.ToString()
        << "); app resumed on " << report.home_device;
    // Freeze the evidence only after the rollback ran, so its own events
    // (including a double fault) are in the snapshot.
    last_forensics_ =
        BuildForensics(phase, cause, /*rolled_back=*/true, std::move(journal),
                       report);
    return cause.WithCause(
        Internal(StrFormat("migration of %s from %s to %s aborted during "
                           "%s; app rolled back to %s",
                           report.app.c_str(), report.home_device.c_str(),
                           report.guest_device.c_str(), phase,
                           report.home_device.c_str())));
  };

  if (Status prepared = Prepare(app, report); !prepared.ok()) {
    return rollback("prepare", prepared);
  }
  FLUX_EVENT(home_rec, flight_events::kSubMigration,
             flight_events::kMigrationPrepared, EventSeverity::kInfo,
             static_cast<uint64_t>(app.pid), 0);
  auto shipped_result =
      config_.precopy ? BuildPayloadPrecopy(app, spec, shaper.get(), report)
                      : BuildPayload(app, report);
  if (!shipped_result.ok()) {
    return rollback("checkpoint", shipped_result.status());
  }
  PlannedCut shipped = shipped_result.TakeValue();
  Bytes& payload = shipped.payload;
  FLUX_EVENT(home_rec, flight_events::kSubMigration,
             flight_events::kMigrationCheckpointed, EventSeverity::kInfo,
             payload.size(), report.image_raw_bytes);
  if (config_.payload_fault) {
    // Test hook: corrupt the payload between checkpoint and transfer, as a
    // wire or storage fault would.
    config_.payload_fault(payload);
  }

  // Where the guest-side drain of a pipelined transfer ends.
  SimTime restore_deadline = 0;
  if (config_.pipelined) {
    // Chunked streaming: post-copy deferral happens per chunk inside the
    // schedule, and the transfer is paced chunk by chunk.
    auto transferred =
        TransferPipelined(app, spec, shipped, shaper.get(), report);
    if (!transferred.ok()) {
      return rollback("transfer", transferred.status());
    }
    restore_deadline = transferred.value();
  } else {
    // Post-copy (§4's proposed optimization): only the hot working set of
    // the image is pre-paged before restore; the rest streams while the app
    // is already usable on the guest.
    uint64_t foreground_bytes = payload.size();
    if (config_.post_copy) {
      const double fraction =
          std::clamp(config_.post_copy_priority_fraction, 0.05, 1.0);
      foreground_bytes = static_cast<uint64_t>(
          static_cast<double>(payload.size()) * fraction);
      report.deferred_bytes = payload.size() - foreground_bytes;
    }
    if (Status transferred = Transfer(app, spec, foreground_bytes, report);
        !transferred.ok()) {
      return rollback("transfer", transferred);
    }
  }
  if (config_.precopy) {
    // The warm-up traffic already hit the wire round by round; fold it
    // into the migration's byte accounting (Figure 15).
    report.total_wire_bytes += report.precopy.wire_bytes;
  }
  FLUX_EVENT(home_rec, flight_events::kSubMigration,
             flight_events::kMigrationTransferred, EventSeverity::kInfo,
             report.total_wire_bytes, 0);

  CallLog log;
  HardwareSnapshot home_hw;
  auto restored_result =
      RestoreOnGuest(ByteSpan(payload.data(), payload.size()),
                     restore_deadline, report, log, home_hw);
  if (!restored_result.ok()) {
    return rollback("restore", restored_result.status());
  }
  CriaRestoredApp restored = restored_result.TakeValue();
  FLUX_EVENT(&guest_.device().flight_recorder(), flight_events::kSubMigration,
             flight_events::kMigrationRestored, EventSeverity::kInfo,
             static_cast<uint64_t>(restored.pid), 0);
  if (Status reintegrated =
          Reintegrate(restored, log, home_hw, report, journal);
      !reintegrated.ok()) {
    // The replay journal covers however far replay got; cross-check it
    // against the frozen log before the evidence is bundled.
    CrossCheckJournal(journal, log);
    return rollback("reintegrate", reintegrated);
  }
  CrossCheckJournal(journal, log);

  if (report.deferred_bytes > 0) {
    // The deferred bytes streamed while restore + reintegration ran; only
    // the tail that outlasts those stages delays completion, and none of it
    // delays the user (demand paging serves faults from the stream).
    Device& home_device = *app.device;
    const EffectiveLink link = home_device.wifi().LinkBetween(
        home_device.profile().radio, guest_.device().profile().radio);
    report.background_transfer =
        home_device.wifi().TransferTime(report.deferred_bytes, link);
    const SimDuration overlap =
        report.restore.duration() + report.reintegrate.duration();
    report.background_tail =
        std::max<SimDuration>(0, report.background_transfer - overlap);
    AdvanceWithTicks(home_device.clock().now() + report.background_tail);
    report.total_wire_bytes += report.deferred_bytes;
  }

  // The home copy is gone; its processes and tracking state are torn down.
  home_.Unmanage(app.pid);
  for (const Pid pid :
       app.all_pids.empty() ? std::vector<Pid>{app.pid} : app.all_pids) {
    FLUX_RETURN_IF_ERROR(home_.device().KillAppProcess(pid));
  }

  report.success = true;
  report.migrated.device = &guest_.device();
  report.migrated.pid = restored.pid;
  report.migrated.all_pids = restored.all_pids;
  report.migrated.uid = restored.uid;
  report.migrated.package = restored.package;
  report.migrated.display_name = report.app;
  report.migrated.thread = restored.thread;
  FLUX_EVENT(&guest_.device().flight_recorder(), flight_events::kSubMigration,
             flight_events::kMigrationComplete, EventSeverity::kInfo,
             static_cast<uint64_t>(restored.pid), report.total_wire_bytes);
  if (report.replay.failed > 0) {
    // The migration survived, but not unscathed: some replayed calls
    // failed on the guest. Attach the evidence to the report so the caller
    // can diagnose without re-running.
    last_forensics_ = BuildForensics(
        "replay",
        Internal(StrFormat("%d of %d replayed calls failed on %s",
                           report.replay.failed,
                           static_cast<int>(journal.entries.size()),
                           report.guest_device.c_str())),
        /*rolled_back=*/false, std::move(journal), report);
    report.forensics = last_forensics_;
  }
  FLUX_LOG(kInfo, "migration")
      << report.app << ": " << report.home_device << " -> "
      << report.guest_device << " in "
      << StrFormat("%.2f s", ToSecondsF(report.Total())) << " ("
      << report.total_wire_bytes / 1024 << " KB transferred)";
  // The perceived-unavailability distribution the SLO catalog's p99
  // objective watches (telemetry.h).
  FLUX_TRACE_OBSERVE(config_.trace, trace_names::kHistMigrationPerceived,
                     static_cast<uint64_t>(report.UserPerceived()));
  EmitTraceSpans(report);
  return report;
}

std::shared_ptr<ForensicReport> MigrationManager::BuildForensics(
    const char* phase, const Status& cause, bool rolled_back,
    ReplayAuditJournal journal, const MigrationReport& report) {
  auto forensics = std::make_shared<ForensicReport>();
  forensics->app = report.app;
  forensics->home_device = report.home_device;
  forensics->guest_device = report.guest_device;
  forensics->failure_phase = phase;
  forensics->captured_at = home_.device().clock().now();
  forensics->rolled_back = rolled_back;
  forensics->trace_context = ctx_;
  forensics->cause_chain = FlattenCauseChain(cause);
  forensics->home_events = home_.device().flight_recorder().Snapshot();
  forensics->guest_events = guest_.device().flight_recorder().Snapshot();
#if FLUX_TRACE_ENABLED
  if (config_.trace != nullptr) {
    forensics->counters = config_.trace->Counters();
    forensics->open_spans = config_.trace->OpenSpanNames();
  }
#endif
  forensics->replay_journal = std::move(journal);
  return forensics;
}

void MigrationManager::EmitTraceSpans(const MigrationReport& report) {
#if FLUX_TRACE_ENABLED
  Tracer* trace = config_.trace;
  if (trace == nullptr) {
    return;
  }
  // The five timeline phases nest under the total on the caller's thread
  // track (they tile it, so containment is exact). Sub-phases that overlap
  // a timeline phase only partially (pipelined compress runs into the
  // transfer window) go on the detail track.
  namespace names = trace_names;
  const SimTime total_end = report.reintegrate.end + report.background_tail;
  trace->EmitSpan(names::kSpanTotal, report.prepare.begin, total_end);
  trace->EmitSpan(names::kSpanPrepare, report.prepare.begin,
                  report.prepare.end);
  trace->EmitSpan(names::kSpanCheckpoint, report.checkpoint.begin,
                  report.checkpoint.end);
  trace->EmitSpan(names::kSpanTransfer, report.transfer.begin,
                  report.transfer.end);
  trace->EmitSpan(names::kSpanRestore, report.restore.begin,
                  report.restore.end);
  trace->EmitSpan(names::kSpanReintegrate, report.reintegrate.begin,
                  report.reintegrate.end);
  if (report.background_tail > 0) {
    trace->EmitSpan(names::kSpanBackgroundTail, report.reintegrate.end,
                    total_end);
  }
  trace->EmitSpanOnTrack(names::kSpanCompress, names::kTrackDetail,
                         report.compress.begin, report.compress.end);
  trace->EmitSpanOnTrack(names::kSpanReplay, names::kTrackDetail,
                         report.replay_window.begin, report.replay_window.end);
  trace->EmitSpanOnTrack(names::kSpanDataSync, names::kTrackDetail,
                         report.data_sync.begin, report.data_sync.end);
  for (const TimedInterval& stall : report.resume.stalls) {
    trace->EmitSpanOnTrack(names::kSpanResume, names::kTrackDetail,
                           stall.begin, stall.end);
  }
  if (report.precopy.enabled) {
    trace->EmitSpanOnTrack(names::kSpanPrecopyWindow, names::kTrackDetail,
                           report.precopy.window.begin,
                           report.precopy.window.end);
    for (const PrecopyRound& round : report.precopy.rounds) {
      trace->EmitSpanOnTrack(std::string(names::kSpanPrecopyRoundPrefix) +
                                 std::to_string(round.index),
                             names::kTrackPrecopy, round.interval.begin,
                             round.interval.end);
    }
  }
#else
  (void)report;
#endif  // FLUX_TRACE_ENABLED
}

}  // namespace flux
