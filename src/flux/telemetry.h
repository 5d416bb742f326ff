// Fleet telemetry (OBSERVABILITY.md §time-series / §slo).
//
// The Tracer answers "what did this run total?"; this module answers "what
// was the fleet doing at t=42s?" and "is it healthy?". Three parts:
//
//  1. TimeSeriesSampler — snapshots every counter and histogram of the
//     attached tracers at a configurable sim-time cadence (default 250
//     virtual ms) into a bounded ring, from which windowed rates
//     (migrations/s, wire MB/s, rollback rate, retransmit ratio) are
//     derived. Sampling is read-only against relaxed atomics: it never
//     touches the simulated clock or any simulated state, so a run with a
//     sampler attached is bit-identical to one without (the three-config
//     byte-identity contract).
//
//  2. MintTraceContext — the deterministic mint for the 128-bit causal
//     TraceContext (declared in trace.h): a hash of the migration's
//     endpoints, package, and submission sim-time. No wall clock, no
//     randomness; reruns produce identical IDs.
//
//  3. SloMonitor — evaluates declared objectives (p99 latency bounds,
//     rate bounds, ratio bounds) over each sampling window, emits
//     `slo.breach` flight events carrying the breaching window's context
//     IDs, and renders a fleet health report.
//
// Exporter: a JSON time-series file (schema "flux.timeseries.v1", gated
// by scripts/check_telemetry.py) via WriteTimeSeries. TracerStatsJson/
// WriteTracerStats (the end-of-run `--stats-out` merge the bench harness
// wraps) also live here so unit tests can link them without the harness.
//
// Like trace/flight_recorder, this library depends only on flux_base.
#ifndef FLUX_SRC_FLUX_TELEMETRY_H_
#define FLUX_SRC_FLUX_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/sim_clock.h"
#include "src/flux/flight_recorder.h"
#include "src/flux/trace.h"

namespace flux {

// Deterministic mint for a migration's causal context: hashes (package,
// home, guest, submission sim-time, salt). `salt` disambiguates several
// submissions of the same tuple at the same instant (the coordinator
// passes its request key). Never returns the zero context.
TraceContext MintTraceContext(std::string_view package, std::string_view home,
                              std::string_view guest, SimTime at,
                              uint64_t salt = 0);

// ----- time-series sampler -----

// One ring slot: everything the attached tracers knew at `at`, plus the
// causal contexts in flight (from the context provider, when set).
// Counter/histogram values are indexed by the owning sampler's interned
// counter_names()/histogram_names() tables — index-vector samples keep the
// per-sample cost to table lookups plus flat copies, no string or node
// allocation (the ≤1% host-overhead budget). The tables are append-only;
// a sample taken before a name was first seen is shorter than the table,
// so an out-of-range index means "not yet registered at sample time".
struct TelemetrySample {
  uint64_t seq = 0;  // absolute sample index; survives ring drops
  SimTime at = 0;
  std::vector<uint64_t> counters;
  std::vector<TraceHistogram::Snapshot> histograms;
  std::vector<TraceContext> contexts;
};

class TimeSeriesSampler {
 public:
  struct Options {
    SimDuration cadence = Millis(250);
    size_t capacity = 4096;  // ring bound; oldest samples drop
  };

  explicit TimeSeriesSampler(const SimClock* clock);
  TimeSeriesSampler(const SimClock* clock, Options options);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Attaches a tracer; counters/histograms with the same name are summed
  // across attached tracers at sample time (the --stats-out merge rule).
  void Attach(const Tracer* tracer);
  // Optional: called at each sample to record the contexts in flight
  // (e.g. MigrationCoordinator::InflightContexts). SLO breaches cite them.
  void SetContextProvider(std::function<std::vector<TraceContext>()> provider);

  // Takes a sample if at least one cadence has elapsed since the last one
  // (or none was ever taken). Hook this wherever sim time advances: a
  // recurring scheduler event in fleet runs, MigrationConfig::
  // telemetry_poll on the single-migration tick path.
  void Poll();
  // Takes a sample unconditionally (run-end flush).
  void SampleNow();

  const SimClock* clock() const { return clock_; }
  SimDuration cadence() const { return options_.cadence; }
  const std::deque<TelemetrySample>& samples() const { return samples_; }
  uint64_t taken() const { return taken_; }
  uint64_t dropped() const { return dropped_; }
  // Host seconds spent inside sampling — the numerator of the ≤1% overhead
  // budget check (scripts/check_telemetry.py).
  double host_seconds() const { return host_seconds_; }

  // The interned name tables TelemetrySample vectors are indexed by
  // (append-only, first-seen order; sorted within one sample's arrivals
  // because the tracer registries iterate name-sorted).
  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  const std::vector<std::string>& histogram_names() const {
    return histogram_names_;
  }
  // Named lookups into one sample; 0 / nullptr when the name was not
  // registered at sample time.
  uint64_t CounterAt(const TelemetrySample& sample,
                     std::string_view name) const;
  const TraceHistogram::Snapshot* HistogramAt(const TelemetrySample& sample,
                                              std::string_view name) const;

 private:
  size_t CounterIndex(std::string_view name);
  size_t HistogramIndex(std::string_view name);

  const SimClock* clock_;
  Options options_;
  std::vector<const Tracer*> tracers_;
  std::function<std::vector<TraceContext>()> context_provider_;
  std::deque<TelemetrySample> samples_;
  std::vector<std::string> counter_names_;
  std::map<std::string, size_t, std::less<>> counter_index_;
  std::vector<std::string> histogram_names_;
  std::map<std::string, size_t, std::less<>> histogram_index_;
  // Reused accumulation buffers, so a steady-state sample allocates only
  // its own vector copies.
  std::vector<uint64_t> counter_scratch_;
  std::vector<TraceHistogram::Snapshot> histogram_scratch_;
  SimTime last_sample_ = 0;
  bool have_sample_ = false;
  uint64_t taken_ = 0;
  uint64_t dropped_ = 0;
  double host_seconds_ = 0;
};

// Windowed rates between adjacent samples. MB = 1e6 bytes.
struct TelemetryWindowRates {
  SimTime begin = 0;
  SimTime end = 0;
  double migrations_per_s = 0;   // Δ completed migrations / window s
  double wire_mb_per_s = 0;      // Δ (net + fleet) wire bytes / window s
  double rollback_rate = 0;      // Δ rollbacks / Δ completed (0 if none)
  double retransmit_ratio = 0;   // Δ resume retransmit / Δ resume lost bytes
};
std::vector<TelemetryWindowRates> DeriveWindowRates(
    const TimeSeriesSampler& sampler);

// ----- SLO health monitor -----

struct SloObjective {
  enum class Kind {
    kHistogramP99,   // p99 of `metric`'s windowed delta must stay <= bound
    kWindowRate,     // Δ`metric` per window second must stay <= bound
    kCounterRatio,   // Δ`metric` / Δ`denominator` must stay <= bound
  };
  std::string name;         // e.g. "migration.perceived_p99_us"
  Kind kind = Kind::kHistogramP99;
  std::string metric;       // histogram or numerator counter name
  std::string denominator;  // kCounterRatio only
  double bound = 0;         // inclusive ceiling; value > bound breaches
};

// The default catalog mirrors the headline claims the benches gate:
// sub-second p99 perceived time, zero rollbacks, and resume retransmits
// bounded by 1.2x the lost bytes (OBSERVABILITY.md §slo).
std::vector<SloObjective> DefaultSloCatalog();

struct SloBreach {
  std::string objective;
  size_t window = 0;   // index of the breaching window (1-based sample idx)
  SimTime begin = 0;
  SimTime end = 0;
  double value = 0;
  double bound = 0;
  TraceContext ctx;    // a context in flight during the window; may be zero
};

class SloMonitor {
 public:
  // Breaches are recorded and, when `recorder` is non-null, emitted as
  // `slo.breach` flight events (warning severity, a0/a1 = ctx hi/lo,
  // detail = objective name) stamped with the breaching context.
  SloMonitor(std::vector<SloObjective> objectives,
             FlightRecorder* recorder = nullptr);

  // Evaluates every not-yet-seen adjacent sample pair in the ring.
  // Incremental: safe to call repeatedly as the run progresses.
  void Evaluate(const TimeSeriesSampler& sampler);

  const std::vector<SloObjective>& objectives() const { return objectives_; }
  const std::vector<SloBreach>& breaches() const { return breaches_; }
  uint64_t windows_evaluated() const { return windows_evaluated_; }

  // Human-readable fleet health report: per objective, windows evaluated,
  // breach count, and worst observed value against the bound.
  std::string HealthReportText() const;

 private:
  std::vector<SloObjective> objectives_;
  FlightRecorder* recorder_;
  std::vector<SloBreach> breaches_;
  std::map<std::string, double> worst_;  // objective -> worst value seen
  uint64_t windows_evaluated_ = 0;
  uint64_t next_window_ = 1;  // first unevaluated sample index
};

// ----- causal-stitch records -----

// One migration's stitch record: the minted context plus the distinct
// contexts actually observed on the spans and on each device's flight
// ring. check_telemetry.py asserts each migration resolves to exactly one
// context and that home and guest agree on it.
struct StitchRecord {
  std::string label;
  TraceContext ctx;
  std::vector<std::string> span_ctxs;   // distinct non-zero ctx hex on spans
  std::vector<std::string> home_ctxs;   // distinct non-zero ctx hex, home ring
  std::vector<std::string> guest_ctxs;  // distinct non-zero ctx hex, guest ring
  size_t spans_stamped = 0;
  size_t home_events_stamped = 0;
  size_t guest_events_stamped = 0;
};
StitchRecord BuildStitchRecord(std::string_view label, const TraceContext& ctx,
                               const Tracer* tracer,
                               const std::vector<FlightEventView>& home_events,
                               const std::vector<FlightEventView>& guest_events);

// ----- exporters -----

struct TimeSeriesExport {
  struct Series {
    std::string label;
    const TimeSeriesSampler* sampler = nullptr;
  };
  std::vector<Series> series;
  const SloMonitor* monitor = nullptr;      // "slo" section when non-null
  const FlightRecorder* recorder = nullptr; // "breach_events" section
  std::vector<StitchRecord> stitch;         // "stitch" section when non-empty
  double run_host_seconds = 0;              // overhead budget denominator
};

// Schema "flux.timeseries.v1" (OBSERVABILITY.md documents it; scripts/
// check_telemetry.py gates it in CI).
std::string TimeSeriesJson(const TimeSeriesExport& exp);
// Writes TimeSeriesJson to `path`.
bool WriteTimeSeries(const TimeSeriesExport& exp, const char* path);

// ----- end-of-run stats merge (--stats-out) -----

// Merged counter/histogram JSON across tracers. Counters sum; histograms
// merge snapshots. "counters" lists every registered counter including
// zero-valued ones; "zero_counters" names them explicitly so a consumer
// can distinguish registered-but-zero from never-registered (absence from
// "counters" means the subsystem never registered it — i.e. never ran).
// Histogram entries carry count/max/p50/p90/p99 (unchanged) plus "sum"
// and the raw 64-entry power-of-two "buckets" array for re-binning.
std::string TracerStatsJson(const std::vector<const Tracer*>& tracers);
bool WriteTracerStats(const std::vector<const Tracer*>& tracers,
                      const char* path);

}  // namespace flux

#endif  // FLUX_SRC_FLUX_TELEMETRY_H_
