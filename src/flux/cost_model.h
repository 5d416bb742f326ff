// The migration cost model: the modeled stage costs behind Figure 13.
//
// One set of numbers for both timing paths — MigrationManager's serial,
// pipelined and pre-copy schedules and the fleet MigrationCoordinator's
// cpu_pre / cpu_post phases — so a fleet run and a single migration charge
// the same simulated time for the same work. Throughputs are single-core
// MiB/s at the Snapdragon S4 Pro baseline (cpu_factor 1.0); CpuCost scales
// them by each device's cpu_factor. Which stages a path sums is the path's
// own choice; the per-stage price is not.
#ifndef FLUX_SRC_FLUX_COST_MODEL_H_
#define FLUX_SRC_FLUX_COST_MODEL_H_

#include <cstdint>

#include "src/base/sim_clock.h"

namespace flux {

// Stage throughputs (MiB/s at cpu_factor 1.0).
inline constexpr double kSerializeMbps = 120.0;
inline constexpr double kCompressMbps = 25.0;
inline constexpr double kDecompressMbps = 25.0;
inline constexpr double kRestoreMbps = 35.0;

// Fixed preparation work beyond the task-idler wait (trim + eglUnload).
inline constexpr SimDuration kPrepareFixed = Millis(140);
// Fixed reintegration work (foreground, surface + first frame).
inline constexpr SimDuration kReintegrateFixed = Millis(160);

// Raw image bytes per chunk: the pipelined stream, the dedup manifest, the
// chunk caches and the fleet's modeled images all cut at this size.
inline constexpr uint64_t kMigrationChunkBytes = 256 * 1024;

// Device cores the pipelined compress stage fans out over (quad-core
// baseline); also the width of the host pool that mirrors it.
inline constexpr int kCompressThreads = 4;

// CPU time to push `bytes` through a `mbps` (MiB/s) stage on a device with
// `cpu_factor` (<= 0 reads as the 1.0 baseline). The order of operations is
// part of the model: the figure goldens pin its rounding.
constexpr SimDuration CpuCost(double cpu_factor, uint64_t bytes, double mbps) {
  const double factor = cpu_factor > 0 ? cpu_factor : 1.0;
  return FromSecondsF(static_cast<double>(bytes) / (mbps * 1024.0 * 1024.0) /
                      factor);
}

}  // namespace flux

#endif  // FLUX_SRC_FLUX_COST_MODEL_H_
