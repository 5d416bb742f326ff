#include "src/flux/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "src/base/hash.h"
#include "src/base/strings.h"

namespace flux {
namespace {

// Seed for the context mint; any fixed value works, it just keeps
// migration contexts out of the hash space the chunk cache uses.
constexpr uint64_t kContextSeed = 0x666c75782d637478ull;  // "flux-ctx"

uint64_t CounterDelta(const TimeSeriesSampler& sampler,
                      const TelemetrySample& prev, const TelemetrySample& cur,
                      std::string_view name) {
  const uint64_t a = sampler.CounterAt(prev, name);
  const uint64_t b = sampler.CounterAt(cur, name);
  return b >= a ? b - a : 0;
}

// Windowed histogram delta: counts and buckets subtract (counters are
// monotonic); max is not subtractable, so the cumulative max stands in as
// an upper bound for the interpolation clamp.
TraceHistogram::Snapshot HistogramDelta(const TimeSeriesSampler& sampler,
                                        const TelemetrySample& prev,
                                        const TelemetrySample& cur,
                                        std::string_view name) {
  TraceHistogram::Snapshot d;
  const TraceHistogram::Snapshot* ci = sampler.HistogramAt(cur, name);
  if (ci == nullptr) {
    return d;
  }
  d = *ci;
  const TraceHistogram::Snapshot* pi = sampler.HistogramAt(prev, name);
  if (pi != nullptr) {
    const TraceHistogram::Snapshot& p = *pi;
    d.count -= std::min(d.count, p.count);
    d.sum -= std::min(d.sum, p.sum);
    for (int b = 0; b < TraceHistogram::kBuckets; ++b) {
      d.buckets[b] -= std::min(d.buckets[b], p.buckets[b]);
    }
  }
  return d;
}

std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  AppendJsonEscaped(out, s);
  out += "\"";
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string_view SloKindName(SloObjective::Kind kind) {
  switch (kind) {
    case SloObjective::Kind::kHistogramP99:
      return "histogram_p99";
    case SloObjective::Kind::kWindowRate:
      return "window_rate";
    case SloObjective::Kind::kCounterRatio:
      return "counter_ratio";
  }
  return "?";
}

}  // namespace

TraceContext MintTraceContext(std::string_view package, std::string_view home,
                              std::string_view guest, SimTime at,
                              uint64_t salt) {
  std::string buf;
  buf.reserve(package.size() + home.size() + guest.size() + 19);
  buf.append(package).push_back('\0');
  buf.append(home).push_back('\0');
  buf.append(guest).push_back('\0');
  char scalar[16];
  std::memcpy(scalar, &at, 8);
  std::memcpy(scalar + 8, &salt, 8);
  buf.append(scalar, 16);
  const Hash128 h = FluxHash128(
      ByteSpan(reinterpret_cast<const uint8_t*>(buf.data()), buf.size()),
      kContextSeed);
  TraceContext ctx{h.hi, h.lo};
  if (!ctx.valid()) {
    ctx.lo = 1;  // the zero context means "none"
  }
  return ctx;
}

// ----- TimeSeriesSampler -----

TimeSeriesSampler::TimeSeriesSampler(const SimClock* clock)
    : TimeSeriesSampler(clock, Options()) {}

TimeSeriesSampler::TimeSeriesSampler(const SimClock* clock, Options options)
    : clock_(clock), options_(options) {
  if (options_.cadence <= 0) {
    options_.cadence = Millis(250);
  }
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
}

void TimeSeriesSampler::Attach(const Tracer* tracer) {
  if (tracer != nullptr) {
    tracers_.push_back(tracer);
  }
}

void TimeSeriesSampler::SetContextProvider(
    std::function<std::vector<TraceContext>()> provider) {
  context_provider_ = std::move(provider);
}

void TimeSeriesSampler::Poll() {
  const SimTime now = clock_->now();
  if (have_sample_ && now < last_sample_ + options_.cadence) {
    return;
  }
  SampleNow();
}

size_t TimeSeriesSampler::CounterIndex(std::string_view name) {
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) {
    return it->second;
  }
  const size_t idx = counter_names_.size();
  counter_names_.emplace_back(name);
  counter_index_.emplace(counter_names_.back(), idx);
  counter_scratch_.push_back(0);
  return idx;
}

size_t TimeSeriesSampler::HistogramIndex(std::string_view name) {
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) {
    return it->second;
  }
  const size_t idx = histogram_names_.size();
  histogram_names_.emplace_back(name);
  histogram_index_.emplace(histogram_names_.back(), idx);
  histogram_scratch_.emplace_back();
  return idx;
}

uint64_t TimeSeriesSampler::CounterAt(const TelemetrySample& sample,
                                      std::string_view name) const {
  auto it = counter_index_.find(name);
  if (it == counter_index_.end() || it->second >= sample.counters.size()) {
    return 0;
  }
  return sample.counters[it->second];
}

const TraceHistogram::Snapshot* TimeSeriesSampler::HistogramAt(
    const TelemetrySample& sample, std::string_view name) const {
  auto it = histogram_index_.find(name);
  if (it == histogram_index_.end() ||
      it->second >= sample.histograms.size()) {
    return nullptr;
  }
  return &sample.histograms[it->second];
}

void TimeSeriesSampler::SampleNow() {
  // The hot path the ≤1% overhead budget governs: transparent-comparator
  // index lookups (no per-lookup allocation) accumulating into reused
  // scratch buffers; the only steady-state allocations are the sample's
  // own two flat vector copies.
  const auto host_begin = std::chrono::steady_clock::now();
  std::fill(counter_scratch_.begin(), counter_scratch_.end(), 0);
  std::fill(histogram_scratch_.begin(), histogram_scratch_.end(),
            TraceHistogram::Snapshot{});
  for (const Tracer* tracer : tracers_) {
    tracer->VisitCounters([&](std::string_view name, uint64_t value) {
      counter_scratch_[CounterIndex(name)] += value;
    });
    tracer->VisitHistograms(
        [&](std::string_view name, const TraceHistogram& histogram) {
          histogram_scratch_[HistogramIndex(name)].Merge(histogram.Take());
        });
  }
  TelemetrySample sample;
  sample.seq = ++taken_;
  sample.at = clock_->now();
  sample.counters = counter_scratch_;
  sample.histograms = histogram_scratch_;
  if (context_provider_) {
    sample.contexts = context_provider_();
  }
  samples_.push_back(std::move(sample));
  while (samples_.size() > options_.capacity) {
    samples_.pop_front();
    ++dropped_;
  }
  last_sample_ = clock_->now();
  have_sample_ = true;
  host_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_begin)
          .count();
}

std::vector<TelemetryWindowRates> DeriveWindowRates(
    const TimeSeriesSampler& sampler) {
  std::vector<TelemetryWindowRates> out;
  const auto& samples = sampler.samples();
  for (size_t i = 1; i < samples.size(); ++i) {
    const TelemetrySample& prev = samples[i - 1];
    const TelemetrySample& cur = samples[i];
    TelemetryWindowRates r;
    r.begin = prev.at;
    r.end = cur.at;
    const double secs = ToSecondsF(static_cast<SimDuration>(cur.at - prev.at));
    if (secs <= 0) {
      out.push_back(r);
      continue;
    }
    // Fleet runs count completions in fleet.migrations_completed; the
    // full-fidelity single path restores exactly once per migration
    // (cria.restores). The two never coexist, so summing is safe.
    const uint64_t migrations =
        CounterDelta(sampler, prev, cur,
                     trace_names::kFleetMigrationsCompleted) +
        CounterDelta(sampler, prev, cur, trace_names::kCriaRestores);
    const uint64_t wire =
        CounterDelta(sampler, prev, cur, trace_names::kNetWireBytes) +
        CounterDelta(sampler, prev, cur, trace_names::kFleetWireBytes);
    const uint64_t rollbacks =
        CounterDelta(sampler, prev, cur, trace_names::kMigrationRollbacks);
    const uint64_t retransmit = CounterDelta(
        sampler, prev, cur, trace_names::kMigrationResumeRetransmitBytes);
    const uint64_t lost = CounterDelta(
        sampler, prev, cur, trace_names::kMigrationResumeLostBytes);
    r.migrations_per_s = static_cast<double>(migrations) / secs;
    r.wire_mb_per_s = static_cast<double>(wire) / 1e6 / secs;
    r.rollback_rate = static_cast<double>(rollbacks) /
                      static_cast<double>(std::max<uint64_t>(migrations, 1));
    r.retransmit_ratio =
        lost == 0 ? 0.0
                  : static_cast<double>(retransmit) / static_cast<double>(lost);
    out.push_back(r);
  }
  return out;
}

// ----- SloMonitor -----

std::vector<SloObjective> DefaultSloCatalog() {
  return {
      // Sub-second p99 perceived time (the pre-copy claim, bench_precopy).
      {"migration.perceived_p99_us", SloObjective::Kind::kHistogramP99,
       std::string(trace_names::kHistMigrationPerceived), "", 1e6},
      // No rollbacks in steady state: rollbacks per completed migration.
      {"migration.rollback_rate", SloObjective::Kind::kCounterRatio,
       std::string(trace_names::kMigrationRollbacks),
       std::string(trace_names::kCriaRestores), 0.0},
      // Resumed transfers re-send at most 1.2x the bytes an outage
      // destroyed (the chunk-granular resume claim, bench_hostile).
      {"migration.retransmit_ratio", SloObjective::Kind::kCounterRatio,
       std::string(trace_names::kMigrationResumeRetransmitBytes),
       std::string(trace_names::kMigrationResumeLostBytes), 1.2},
  };
}

SloMonitor::SloMonitor(std::vector<SloObjective> objectives,
                       FlightRecorder* recorder)
    : objectives_(std::move(objectives)), recorder_(recorder) {}

void SloMonitor::Evaluate(const TimeSeriesSampler& sampler) {
  const auto& samples = sampler.samples();
  for (size_t i = 1; i < samples.size(); ++i) {
    const TelemetrySample& prev = samples[i - 1];
    const TelemetrySample& cur = samples[i];
    if (cur.seq <= next_window_) {
      continue;  // already evaluated (seq is the absolute sample index)
    }
    next_window_ = cur.seq;
    ++windows_evaluated_;
    const double secs =
        ToSecondsF(static_cast<SimDuration>(cur.at - prev.at));
    for (const SloObjective& obj : objectives_) {
      double value = 0;
      bool have_value = false;
      switch (obj.kind) {
        case SloObjective::Kind::kHistogramP99: {
          const TraceHistogram::Snapshot delta =
              HistogramDelta(sampler, prev, cur, obj.metric);
          if (delta.count > 0) {
            value = delta.Percentile(99);
            have_value = true;
          }
          break;
        }
        case SloObjective::Kind::kWindowRate: {
          if (secs > 0) {
            value = static_cast<double>(
                        CounterDelta(sampler, prev, cur, obj.metric)) /
                    secs;
            have_value = true;
          }
          break;
        }
        case SloObjective::Kind::kCounterRatio: {
          const uint64_t den =
              CounterDelta(sampler, prev, cur, obj.denominator);
          if (den > 0) {
            value = static_cast<double>(
                        CounterDelta(sampler, prev, cur, obj.metric)) /
                    static_cast<double>(den);
            have_value = true;
          }
          break;
        }
      }
      if (!have_value) {
        continue;
      }
      auto worst = worst_.find(obj.name);
      if (worst == worst_.end() || value > worst->second) {
        worst_[obj.name] = value;
      }
      if (value <= obj.bound) {
        continue;
      }
      SloBreach breach;
      breach.objective = obj.name;
      breach.window = cur.seq;
      breach.begin = prev.at;
      breach.end = cur.at;
      breach.value = value;
      breach.bound = obj.bound;
      // Cite the smallest in-flight context: canonical regardless of the
      // provider's internal table order.
      if (!cur.contexts.empty()) {
        breach.ctx = *std::min_element(cur.contexts.begin(),
                                       cur.contexts.end());
      } else if (!prev.contexts.empty()) {
        breach.ctx = *std::min_element(prev.contexts.begin(),
                                       prev.contexts.end());
      }
      if (recorder_ != nullptr) {
        // Stamp the breach event with the breaching window's context so it
        // links back to the causal trace like any migration event.
        const TraceContext saved = recorder_->context();
        recorder_->set_context(breach.ctx);
        FLUX_EVENT_DETAIL(recorder_, flight_events::kSubSlo,
                          flight_events::kSloBreach, EventSeverity::kWarning,
                          breach.ctx.hi, breach.ctx.lo, breach.objective);
        recorder_->set_context(saved);
      }
      breaches_.push_back(std::move(breach));
    }
  }
}

std::string SloMonitor::HealthReportText() const {
  std::string out = "fleet SLO health\n";
  char buf[256];
  for (const SloObjective& obj : objectives_) {
    size_t count = 0;
    for (const SloBreach& b : breaches_) {
      if (b.objective == obj.name) {
        ++count;
      }
    }
    auto worst = worst_.find(obj.name);
    const double seen = worst == worst_.end() ? 0.0 : worst->second;
    std::snprintf(buf, sizeof(buf),
                  "  %-32s %s  bound %.6g  worst %.6g  breaches %zu  [%s]\n",
                  obj.name.c_str(), count == 0 ? "OK    " : "BREACH",
                  obj.bound, seen, count,
                  std::string(SloKindName(obj.kind)).c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  windows evaluated: %" PRIu64 "\n",
                windows_evaluated_);
  out += buf;
  return out;
}

// ----- causal-stitch records -----

StitchRecord BuildStitchRecord(
    std::string_view label, const TraceContext& ctx, const Tracer* tracer,
    const std::vector<FlightEventView>& home_events,
    const std::vector<FlightEventView>& guest_events) {
  StitchRecord rec;
  rec.label = std::string(label);
  rec.ctx = ctx;
  std::set<std::string> span_set;
  if (tracer != nullptr) {
    for (const TraceSpanRecord& s : tracer->Spans()) {
      if (s.ctx.valid()) {
        ++rec.spans_stamped;
        span_set.insert(s.ctx.ToHex());
      }
    }
  }
  rec.span_ctxs.assign(span_set.begin(), span_set.end());
  auto collect = [](const std::vector<FlightEventView>& events,
                    size_t& stamped) {
    std::set<std::string> out;
    for (const FlightEventView& e : events) {
      if (e.ctx.valid()) {
        ++stamped;
        out.insert(e.ctx.ToHex());
      }
    }
    return std::vector<std::string>(out.begin(), out.end());
  };
  rec.home_ctxs = collect(home_events, rec.home_events_stamped);
  rec.guest_ctxs = collect(guest_events, rec.guest_events_stamped);
  return rec;
}

// ----- exporters -----

std::string TimeSeriesJson(const TimeSeriesExport& exp) {
  std::string out = "{\n  \"schema\": \"flux.timeseries.v1\",\n";
  SimDuration cadence = Millis(250);
  if (!exp.series.empty() && exp.series.front().sampler != nullptr) {
    cadence = exp.series.front().sampler->cadence();
  }
  out += "  \"cadence_us\": " + std::to_string(cadence) + ",\n";
  out += "  \"series\": [";
  bool first_series = true;
  double sampler_host_s = 0;
  for (const TimeSeriesExport::Series& series : exp.series) {
    if (series.sampler == nullptr) {
      continue;
    }
    const TimeSeriesSampler& sampler = *series.sampler;
    sampler_host_s += sampler.host_seconds();
    out += first_series ? "\n" : ",\n";
    first_series = false;
    out += "    {\"label\": " + JsonStr(series.label);
    out += ", \"taken\": " + std::to_string(sampler.taken());
    out += ", \"dropped\": " + std::to_string(sampler.dropped());
    out += ",\n     \"samples\": [";
    bool first_sample = true;
    for (const TelemetrySample& s : sampler.samples()) {
      out += first_sample ? "\n" : ",\n";
      first_sample = false;
      out += "      {\"seq\": " + std::to_string(s.seq);
      out += ", \"t_us\": " + std::to_string(s.at);
      out += ", \"inflight\": " + std::to_string(s.contexts.size());
      out += ", \"contexts\": [";
      // Samples store contexts in the provider's (deterministic) table
      // order; sort here so the exported JSON is canonical. Export-time
      // sorting keeps the per-sample cost out of the ≤1% overhead budget.
      std::vector<TraceContext> ctxs(s.contexts);
      std::sort(ctxs.begin(), ctxs.end());
      for (size_t i = 0; i < ctxs.size(); ++i) {
        if (i != 0) out += ", ";
        out += JsonStr(ctxs[i].ToHex());
      }
      out += "], \"counters\": {";
      const auto& names = sampler.counter_names();
      for (size_t i = 0; i < s.counters.size(); ++i) {
        if (i != 0) out += ", ";
        out += JsonStr(names[i]) + ": " + std::to_string(s.counters[i]);
      }
      out += "}}";
    }
    out += "\n     ],\n     \"rates\": [";
    bool first_rate = true;
    for (const TelemetryWindowRates& r : DeriveWindowRates(sampler)) {
      out += first_rate ? "\n" : ",\n";
      first_rate = false;
      out += "      {\"begin_us\": " + std::to_string(r.begin);
      out += ", \"end_us\": " + std::to_string(r.end);
      out += ", \"migrations_per_s\": " + Num(r.migrations_per_s);
      out += ", \"wire_mb_per_s\": " + Num(r.wire_mb_per_s);
      out += ", \"rollback_rate\": " + Num(r.rollback_rate);
      out += ", \"retransmit_ratio\": " + Num(r.retransmit_ratio);
      out += "}";
    }
    out += "\n     ]}";
  }
  out += "\n  ]";

  if (exp.monitor != nullptr) {
    const SloMonitor& monitor = *exp.monitor;
    out += ",\n  \"slo\": {\"windows_evaluated\": " +
           std::to_string(monitor.windows_evaluated());
    out += ",\n    \"objectives\": [";
    bool first_obj = true;
    for (const SloObjective& obj : monitor.objectives()) {
      out += first_obj ? "\n" : ",\n";
      first_obj = false;
      out += "      {\"name\": " + JsonStr(obj.name);
      out += ", \"kind\": " + JsonStr(SloKindName(obj.kind));
      out += ", \"metric\": " + JsonStr(obj.metric);
      out += ", \"denominator\": " + JsonStr(obj.denominator);
      out += ", \"bound\": " + Num(obj.bound) + "}";
    }
    out += "\n    ],\n    \"breaches\": [";
    bool first_breach = true;
    for (const SloBreach& b : monitor.breaches()) {
      out += first_breach ? "\n" : ",\n";
      first_breach = false;
      out += "      {\"objective\": " + JsonStr(b.objective);
      out += ", \"window\": " + std::to_string(b.window);
      out += ", \"begin_us\": " + std::to_string(b.begin);
      out += ", \"end_us\": " + std::to_string(b.end);
      out += ", \"value\": " + Num(b.value);
      out += ", \"bound\": " + Num(b.bound);
      out += ", \"ctx\": " + JsonStr(b.ctx.valid() ? b.ctx.ToHex() : "");
      out += "}";
    }
    out += "\n    ]\n  }";
  }

  if (exp.recorder != nullptr) {
    out += ",\n  \"breach_events\": [";
    bool first_event = true;
    for (const FlightEventView& e : exp.recorder->Snapshot()) {
      if (e.subsystem != flight_events::kSubSlo) {
        continue;
      }
      out += first_event ? "\n" : ",\n";
      first_event = false;
      out += "    {\"t_us\": " + std::to_string(e.time);
      out += ", \"name\": " + JsonStr(e.name);
      out += ", \"ctx\": " + JsonStr(e.ctx.valid() ? e.ctx.ToHex() : "");
      out += ", \"detail\": " + JsonStr(e.detail) + "}";
    }
    out += "\n  ]";
  }

  if (!exp.stitch.empty()) {
    out += ",\n  \"stitch\": [";
    bool first_rec = true;
    auto hex_list = [](const std::vector<std::string>& v) {
      std::string s = "[";
      for (size_t i = 0; i < v.size(); ++i) {
        if (i != 0) s += ", ";
        s += JsonStr(v[i]);
      }
      s += "]";
      return s;
    };
    for (const StitchRecord& rec : exp.stitch) {
      out += first_rec ? "\n" : ",\n";
      first_rec = false;
      out += "    {\"label\": " + JsonStr(rec.label);
      out += ", \"ctx\": " + JsonStr(rec.ctx.valid() ? rec.ctx.ToHex() : "");
      out += ", \"spans_stamped\": " + std::to_string(rec.spans_stamped);
      out += ", \"span_ctxs\": " + hex_list(rec.span_ctxs);
      out += ", \"home_events_stamped\": " +
             std::to_string(rec.home_events_stamped);
      out += ", \"home_ctxs\": " + hex_list(rec.home_ctxs);
      out += ", \"guest_events_stamped\": " +
             std::to_string(rec.guest_events_stamped);
      out += ", \"guest_ctxs\": " + hex_list(rec.guest_ctxs) + "}";
    }
    out += "\n  ]";
  }

  const double pct = exp.run_host_seconds > 0
                         ? 100.0 * sampler_host_s / exp.run_host_seconds
                         : 0.0;
  out += ",\n  \"overhead\": {\"sampler_host_s\": " + Num(sampler_host_s);
  out += ", \"run_host_s\": " + Num(exp.run_host_seconds);
  out += ", \"pct\": " + Num(pct) + "}\n}\n";
  return out;
}

bool WriteTimeSeries(const TimeSeriesExport& exp, const char* path) {
  const std::string json = TimeSeriesJson(exp);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write time series to %s\n", path);
    return false;
  }
  out << json;
  std::fprintf(stderr, "time series written to %s (%zu bytes)\n", path,
               json.size());
  return true;
}

// ----- end-of-run stats merge (--stats-out) -----

std::string TracerStatsJson(const std::vector<const Tracer*>& tracers) {
  // std::map keeps the JSON key order deterministic across runs.
  std::map<std::string, TraceHistogram::Snapshot> histograms;
  std::map<std::string, uint64_t> counters;
  size_t traced_cells = 0;
  for (const Tracer* tracer : tracers) {
    if (tracer == nullptr) {
      continue;
    }
    ++traced_cells;
    for (const auto& [name, snapshot] : tracer->Histograms()) {
      histograms[name].Merge(snapshot);
    }
    for (const auto& [name, value] : tracer->Counters()) {
      counters[name] += value;
    }
  }
  std::ostringstream out;
  out << "{\n  \"cells\": " << traced_cells << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  // Registered-but-zero counters, named explicitly: a name listed here was
  // registered and observed nothing; a name absent from "counters" entirely
  // was never registered — its subsystem never ran (OBSERVABILITY.md).
  out << "\n  },\n  \"zero_counters\": [";
  first = true;
  for (const auto& [name, value] : counters) {
    if (value != 0) {
      continue;
    }
    out << (first ? "" : ", ") << "\"" << name << "\"";
    first = false;
  }
  out << "],\n  \"histograms\": {";
  first = true;
  for (const auto& [name, snap] : histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {"
        << "\"count\": " << snap.count << ", \"max\": " << snap.max
        << ", \"p50\": " << snap.Percentile(50)
        << ", \"p90\": " << snap.Percentile(90)
        << ", \"p99\": " << snap.Percentile(99) << ", \"sum\": " << snap.sum
        << ", \"buckets\": [";
    // The raw 64-entry power-of-two bucket array (bucket 0 holds only the
    // value 0; bucket b holds [2^(b-1), 2^b)) so downstream tools can
    // re-bin and plot full distributions, not just the three percentiles.
    for (int b = 0; b < TraceHistogram::kBuckets; ++b) {
      out << (b == 0 ? "" : ", ") << snap.buckets[b];
    }
    out << "]}";
    first = false;
  }
  out << "\n  }\n}\n";
  return std::move(out).str();
}

bool WriteTracerStats(const std::vector<const Tracer*>& tracers,
                      const char* path) {
  const std::string json = TracerStatsJson(tracers);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write stats to %s\n", path);
    return false;
  }
  out << json;
  std::fprintf(stderr, "stats written to %s (%zu bytes)\n", path,
               json.size());
  return true;
}

}  // namespace flux
