// Chunked-migration stage scheduler (the §4 overlap the paper sketches).
//
// A pipelined migration splits the CRIA image into fixed-size chunks and
// overlaps the per-chunk stages — serialize → compress (home) → wire
// transfer → decompress → restore-apply (guest) — so simulated migration
// time approaches max(stage throughputs) plus pipeline fill/drain instead
// of sum(stage times). The scheduler is pure timing arithmetic over the
// existing cost models: stage s of chunk i starts when stage s finished
// chunk i-1 AND stage s-1 finished chunk i (every stage processes chunks
// in order — chunk framing on the wire and restore-apply are sequential).
#ifndef FLUX_SRC_FLUX_PIPELINE_H_
#define FLUX_SRC_FLUX_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/sim_clock.h"

namespace flux {

struct PipelineStageTiming {
  std::string name;
  SimDuration busy = 0;          // sum of chunk costs in this stage
  SimDuration first_finish = 0;  // when chunk 0 left this stage (from t0)
  SimDuration finish = 0;        // when the last chunk left this stage
};

// One stage's input to the scheduler.
struct PipelineStageModel {
  std::string name;
  // Cost of each chunk in this stage; every stage sees the same chunk count.
  std::vector<SimDuration> chunk_cost;
  // Time (from pipeline start) before this stage may begin its first chunk
  // — e.g. the wire stage is busy with APK verification + data-dir sync
  // before image chunks can stream.
  SimDuration initial_offset = 0;
};

struct PipelinePlan {
  SimDuration makespan = 0;  // finish time of the last stage's last chunk
  std::vector<PipelineStageTiming> stages;
  // finish[s][i] = absolute finish time (from pipeline start) of chunk i in
  // stage s; used to pace the simulated clock chunk by chunk.
  std::vector<std::vector<SimDuration>> finish;
};

// Computes the overlapped timeline. All stages must agree on chunk count.
PipelinePlan SchedulePipeline(const std::vector<PipelineStageModel>& stages);

// Per-migration pipeline statistics surfaced in MigrationReport.
struct PipelineStats {
  bool enabled = false;
  uint32_t chunk_count = 0;
  uint64_t chunk_bytes = 0;               // configured raw chunk size
  std::vector<uint64_t> chunk_wire_bytes; // container bytes per chunk
  SimDuration makespan = 0;               // overlapped image-path time
  SimDuration serial_estimate = 0;        // same work staged strictly serially
  SimDuration saved = 0;                  // serial_estimate - makespan
  // chunk_dedup mode: per-chunk LzChunkKind (kLz/kStored/kRef) so the
  // scheduler can zero the compress/decompress cost of ref chunks. Empty
  // when every chunk is a plain LZ stream.
  std::vector<uint8_t> chunk_kind;
  std::vector<PipelineStageTiming> stages;
};

// ----- iterative pre-copy (DESIGN.md §10) -----

// One pre-copy round: a full checkpoint cut followed by streaming the
// chunks the guest cache is missing.
struct PrecopyRound {
  int index = 0;                  // 0 = the full-image warm-up round
  uint32_t chunk_count = 0;       // chunks in the image at this cut
  uint32_t pending_chunks = 0;    // guest-cache misses found at this cut
  uint32_t chunks_sent = 0;       // misses actually streamed this round
  uint64_t pending_raw_bytes = 0; // raw image bytes behind the misses
  uint64_t raw_bytes_sent = 0;    // raw bytes streamed this round
  uint64_t wire_bytes = 0;        // what the streamed chunks cost on wire
  // Estimated stop-and-copy time if the migration froze at this cut
  // (serialize + wire + restore of the pending chunks; drives the
  // bandwidth-aware termination policy). A round that undercuts the
  // target is a probe: it freezes without streaming (chunks_sent = 0).
  SimDuration est_stop_copy = 0;
  TimedInterval interval;
};

// Per-migration pre-copy accounting surfaced in MigrationReport.
struct PrecopyStats {
  bool enabled = false;
  // True when a cut found the estimated stop-and-copy of its pending
  // chunks below the configured target; false when the round budget ran
  // out or the pending set stopped shrinking (routed through forensics,
  // migration continues with a longer stop-and-copy).
  bool converged = false;
  int final_recuts = 0;        // extra cuts for writes racing the freeze
  uint64_t wire_bytes = 0;     // total pre-copy wire traffic (all rounds)
  uint64_t dirty_bytes = 0;    // pending raw bytes summed over all cuts
  TimedInterval window;        // all rounds; lives inside checkpoint
  std::vector<PrecopyRound> rounds;
};

}  // namespace flux

#endif  // FLUX_SRC_FLUX_PIPELINE_H_
