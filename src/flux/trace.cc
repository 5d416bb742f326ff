#include "src/flux/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "src/base/strings.h"

namespace flux {
namespace {

// Process-wide thread ordinals: the first thread that records a span gets 0,
// the next 1, … Stable across Tracers so a merged export keeps one row per
// real thread.
int ThisThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local int ord = next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

// Per-thread RAII nesting depth (global, not per-tracer: a thread drives one
// migration at a time, and cross-tracer nesting is not meaningful).
thread_local int g_span_depth = 0;

}  // namespace

std::string TraceContext::ToHex() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, hi, lo);
  return std::string(buf);
}

void TraceHistogram::Snapshot::Merge(const Snapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (int i = 0; i < kBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

double TraceHistogram::Snapshot::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  p = std::min(std::max(p, 0.0), 100.0);
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) {
      continue;
    }
    const uint64_t next = cumulative + buckets[b];
    if (static_cast<double>(next) >= rank) {
      // Bucket b holds values in [2^(b-1), 2^b); bucket 0 holds only 0.
      if (b == 0) {
        return 0.0;
      }
      const double lo = static_cast<double>(1ull << (b - 1));
      double hi = b < 63 ? static_cast<double>(1ull << b)
                         : static_cast<double>(max);
      hi = std::min(hi, static_cast<double>(max));
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[b]);
      return lo + std::min(std::max(frac, 0.0), 1.0) * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

TraceHistogram::Snapshot TraceHistogram::Take() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

TraceCounter* Tracer::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<TraceCounter>())
             .first;
  }
  return it->second.get();
}

TraceHistogram* Tracer::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<TraceHistogram>())
             .first;
  }
  return it->second.get();
}

void Tracer::set_context(const TraceContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  context_ = ctx;
}

TraceContext Tracer::context() const {
  std::lock_guard<std::mutex> lock(mu_);
  return context_;
}

size_t Tracer::OpenSpan(std::string_view name) {
  TraceSpanRecord rec;
  rec.name = std::string(name);
  rec.begin = clock_->now();
  rec.end = rec.begin;
  rec.thread_ord = ThisThreadOrdinal();
  rec.depth = g_span_depth++;
  rec.open = true;
  std::lock_guard<std::mutex> lock(mu_);
  rec.ctx = context_;
  spans_.push_back(std::move(rec));
  return spans_.size();  // slot + 1 so 0 stays "no token"
}

void Tracer::CloseSpan(size_t token) {
  const SimTime now = clock_->now();
  --g_span_depth;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[token - 1].end = now;
  spans_[token - 1].open = false;
}

void Tracer::EmitSpan(std::string_view name, SimTime begin, SimTime end,
                      const TraceContext& ctx) {
  TraceSpanRecord rec;
  rec.name = std::string(name);
  rec.begin = begin;
  rec.end = end;
  rec.thread_ord = ThisThreadOrdinal();
  rec.depth = 0;
  std::lock_guard<std::mutex> lock(mu_);
  rec.ctx = ctx.valid() ? ctx : context_;
  spans_.push_back(std::move(rec));
}

void Tracer::EmitSpanOnTrack(std::string_view name, std::string_view track,
                             SimTime begin, SimTime end,
                             const TraceContext& ctx) {
  TraceSpanRecord rec;
  rec.name = std::string(name);
  rec.track = std::string(track);
  rec.begin = begin;
  rec.end = end;
  std::lock_guard<std::mutex> lock(mu_);
  rec.ctx = ctx.valid() ? ctx : context_;
  spans_.push_back(std::move(rec));
}

std::vector<TraceSpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, uint64_t>> Tracer::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, TraceHistogram::Snapshot>>
Tracer::Histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, TraceHistogram::Snapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram->Take());
  }
  return out;
}

std::vector<std::string> Tracer::OpenSpanNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const TraceSpanRecord& s : spans_) {
    if (s.open) {
      out.push_back(s.name);
    }
  }
  return out;
}

SimDuration Tracer::SpanTotal(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  SimDuration total = 0;
  for (const TraceSpanRecord& s : spans_) {
    if (s.name == name) total += static_cast<SimDuration>(s.end - s.begin);
  }
  return total;
}

size_t Tracer::SpanCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const TraceSpanRecord& s : spans_) {
    if (s.name == name) ++n;
  }
  return n;
}

// ----- exporters -----

namespace {

// Maps a span to its Chrome trace tid. Real threads get tid = ord + 1
// (tid 0 renders oddly in some viewers); named tracks get 1000 + k in
// first-seen order, with the mapping accumulated in `track_tids`.
int SpanTid(const TraceSpanRecord& s,
            std::map<std::string, int, std::less<>>& track_tids) {
  if (s.track.empty()) return s.thread_ord + 1;
  auto it = track_tids.find(s.track);
  if (it == track_tids.end()) {
    it = track_tids.emplace(s.track, 1000 + static_cast<int>(track_tids.size()))
             .first;
  }
  return it->second;
}

void AppendEvent(std::string& out, bool& first, std::string_view body) {
  if (!first) out += ",\n";
  first = false;
  out += "  ";
  out += body;
}

}  // namespace

void WriteChromeTrace(const std::vector<TraceProcess>& processes,
                      std::ostream& out) {
  std::string json = "{\"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  int pid = 0;
  // One flow anchor per context-stamped span, keyed by context across all
  // processes: the first (by begin time) becomes the flow start ("s"), each
  // later one a step ("f" binding to its enclosing span) — the arrow chain
  // that stitches home → wire → guest → coordinator into one causal view.
  struct FlowPoint {
    SimTime ts = 0;
    int pid = 0;
    int tid = 0;
    size_t order = 0;  // insertion order breaks ts ties deterministically
  };
  std::map<TraceContext, std::vector<FlowPoint>> flows;
  size_t flow_order = 0;
  for (const TraceProcess& proc : processes) {
    ++pid;
    {
      std::string ev = "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
      std::snprintf(buf, sizeof(buf), "%d", pid);
      ev += buf;
      ev += ", \"tid\": 0, \"args\": {\"name\": \"";
      AppendJsonEscaped(ev, proc.name);
      ev += "\"}}";
      AppendEvent(json, first, ev);
    }
    if (proc.tracer == nullptr) continue;

    const std::vector<TraceSpanRecord> spans = proc.tracer->Spans();
    std::map<std::string, int, std::less<>> track_tids;
    std::map<int, std::string> tid_names;
    SimTime max_end = 0;
    for (const TraceSpanRecord& s : spans) {
      const int tid = SpanTid(s, track_tids);
      if (tid_names.find(tid) == tid_names.end()) {
        tid_names[tid] = s.track.empty()
                             ? "thread " + std::to_string(s.thread_ord)
                             : s.track;
      }
      max_end = std::max(max_end, s.end);

      std::string ev = "{\"name\": \"";
      AppendJsonEscaped(ev, s.name);
      ev += "\", \"cat\": \"flux\", \"ph\": \"X\", \"ts\": ";
      std::snprintf(buf, sizeof(buf), "%" PRIu64, s.begin);
      ev += buf;
      ev += ", \"dur\": ";
      std::snprintf(buf, sizeof(buf), "%" PRIu64,
                    static_cast<uint64_t>(s.end - s.begin));
      ev += buf;
      std::snprintf(buf, sizeof(buf), ", \"pid\": %d, \"tid\": %d", pid, tid);
      ev += buf;
      if (s.ctx.valid()) {
        ev += ", \"args\": {\"ctx\": \"";
        ev += s.ctx.ToHex();
        ev += "\"}";
        flows[s.ctx].push_back(FlowPoint{s.begin, pid, tid, flow_order++});
      }
      ev += "}";
      AppendEvent(json, first, ev);
    }
    for (const auto& [tid, name] : tid_names) {
      std::string ev = "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
      std::snprintf(buf, sizeof(buf), "%d, \"tid\": %d", pid, tid);
      ev += buf;
      ev += ", \"args\": {\"name\": \"";
      AppendJsonEscaped(ev, name);
      ev += "\"}}";
      AppendEvent(json, first, ev);
    }
    // Counters: one "C" sample stamped at the trace end (values are final
    // totals, not a time series — the migration is simulated, so sampling
    // mid-flight would be fiction).
    for (const auto& [name, value] : proc.tracer->Counters()) {
      std::string ev = "{\"name\": \"";
      AppendJsonEscaped(ev, name);
      ev += "\", \"cat\": \"flux\", \"ph\": \"C\", \"ts\": ";
      std::snprintf(buf, sizeof(buf), "%" PRIu64, max_end);
      ev += buf;
      std::snprintf(buf, sizeof(buf), ", \"pid\": %d, \"tid\": 0", pid);
      ev += buf;
      ev += ", \"args\": {\"value\": ";
      std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
      ev += buf;
      ev += "}}";
      AppendEvent(json, first, ev);
    }
  }
  // Flow events: one "s" at each context's earliest span, then an "f" step
  // (bp "e": bind to the enclosing slice) at every later span with the same
  // id. A context seen on a single span draws no arrow and emits nothing.
  for (auto& [ctx, points] : flows) {
    if (points.size() < 2) continue;
    std::stable_sort(points.begin(), points.end(),
                     [](const FlowPoint& a, const FlowPoint& b) {
                       return a.ts != b.ts ? a.ts < b.ts : a.order < b.order;
                     });
    for (size_t i = 0; i < points.size(); ++i) {
      const FlowPoint& p = points[i];
      std::string ev = "{\"name\": \"migration/flow\", \"cat\": \"flux\", ";
      ev += i == 0 ? "\"ph\": \"s\"" : "\"ph\": \"f\", \"bp\": \"e\"";
      ev += ", \"id\": \"";
      ev += ctx.ToHex();
      std::snprintf(buf, sizeof(buf),
                    "\", \"ts\": %" PRIu64 ", \"pid\": %d, \"tid\": %d}", p.ts,
                    p.pid, p.tid);
      ev += buf;
      AppendEvent(json, first, ev);
    }
  }
  json += "\n], \"displayTimeUnit\": \"ms\"}\n";
  out << json;
}

std::string ChromeTraceJson(const Tracer& tracer) {
  std::ostringstream out;
  WriteChromeTrace({{"flux", &tracer}}, out);
  return out.str();
}

MigrationPhases ExtractMigrationPhases(const Tracer& tracer) {
  MigrationPhases p;
  p.prepare = tracer.SpanTotal(trace_names::kSpanPrepare);
  p.checkpoint = tracer.SpanTotal(trace_names::kSpanCheckpoint);
  p.compress = tracer.SpanTotal(trace_names::kSpanCompress);
  p.transfer = tracer.SpanTotal(trace_names::kSpanTransfer);
  p.restore = tracer.SpanTotal(trace_names::kSpanRestore);
  p.reintegrate = tracer.SpanTotal(trace_names::kSpanReintegrate);
  p.replay = tracer.SpanTotal(trace_names::kSpanReplay);
  p.background_tail = tracer.SpanTotal(trace_names::kSpanBackgroundTail);
  return p;
}

std::string PhaseReportText(const Tracer& tracer) {
  const MigrationPhases p = ExtractMigrationPhases(tracer);
  const double total = ToSecondsF(p.Total());
  std::string out = "migration phase breakdown\n";
  char buf[160];
  auto row = [&](const char* name, SimDuration d) {
    const double sec = ToSecondsF(d);
    const double pct = total > 0 ? 100.0 * sec / total : 0.0;
    std::snprintf(buf, sizeof(buf), "  %-16s %10.6f s  %6.1f%%\n", name, sec,
                  pct);
    out += buf;
  };
  row("prepare", p.prepare);
  row("checkpoint", p.checkpoint);
  row("transfer", p.transfer);
  row("restore", p.restore);
  row("reintegrate", p.reintegrate);
  if (p.background_tail > 0) row("background_tail", p.background_tail);
  std::snprintf(buf, sizeof(buf), "  %-16s %10.6f s\n", "total", total);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  (sub-phases: compress %.6f s, replay %.6f s)\n",
                ToSecondsF(p.compress), ToSecondsF(p.replay));
  out += buf;

  const auto counters = tracer.Counters();
  if (!counters.empty()) {
    out += "counters\n";
    for (const auto& [name, value] : counters) {
      std::snprintf(buf, sizeof(buf), "  %-28s %" PRIu64 "\n", name.c_str(),
                    value);
      out += buf;
    }
  }
  return out;
}

}  // namespace flux
