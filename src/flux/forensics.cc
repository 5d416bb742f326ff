#include "src/flux/forensics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "src/base/strings.h"
#include "src/flux/call_log.h"

namespace flux {

namespace {

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  AppendJsonEscaped(out, s);
  out += '"';
}

void AppendEvents(std::string& out, const std::vector<FlightEventView>& events) {
  out += '[';
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEventView& e = events[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"t\":" + std::to_string(e.time);
    out += ",\"sub\":";
    AppendJsonString(out, e.subsystem);
    out += ",\"name\":";
    AppendJsonString(out, e.name);
    out += ",\"sev\":";
    AppendJsonString(out, EventSeverityName(e.severity));
    out += ",\"arg0\":" + std::to_string(e.arg0);
    out += ",\"arg1\":" + std::to_string(e.arg1);
    if (e.ctx.valid()) {
      out += ",\"ctx\":";
      AppendJsonString(out, e.ctx.ToHex());
    }
    if (!e.detail.empty()) {
      out += ",\"detail\":";
      AppendJsonString(out, e.detail);
    }
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string_view ReplayOutcomeName(ReplayOutcome outcome) {
  switch (outcome) {
    case ReplayOutcome::kVerbatim:
      return "verbatim";
    case ReplayOutcome::kProxied:
      return "proxied";
    case ReplayOutcome::kSkipped:
      return "skipped";
    case ReplayOutcome::kAdapted:
      return "adapted";
    case ReplayOutcome::kFailed:
      return "failed";
  }
  return "?";
}

void CrossCheckJournal(ReplayAuditJournal& journal, const CallLog& log) {
  const std::vector<CallRecord>& calls = log.entries();
  journal.log_calls = calls.size();
  const size_t covered = std::min(journal.entries.size(), calls.size());
  for (size_t i = 0; i < covered; ++i) {
    const ReplayAuditEntry& entry = journal.entries[i];
    const CallRecord& call = calls[i];
    if (entry.interface != call.interface || entry.method != call.method) {
      journal.mismatches.push_back(
          "journal[" + std::to_string(i) + "] replayed " + entry.interface +
          "." + entry.method + " but log holds " + call.interface + "." +
          call.method);
    } else if (entry.seq != call.seq) {
      journal.mismatches.push_back("journal[" + std::to_string(i) +
                                   "] seq " + std::to_string(entry.seq) +
                                   " != log seq " + std::to_string(call.seq));
    }
  }
  if (journal.entries.size() > calls.size()) {
    journal.mismatches.push_back(
        "journal has " + std::to_string(journal.entries.size()) +
        " entries but the log holds only " + std::to_string(calls.size()) +
        " calls");
  } else if (journal.entries.size() < calls.size()) {
    // A replay that aborts mid-log legitimately leaves a tail uncovered;
    // record it so the report shows how far replay got.
    journal.mismatches.push_back(
        "replay covered " + std::to_string(journal.entries.size()) + " of " +
        std::to_string(calls.size()) + " logged calls");
  }
}

std::vector<ForensicCause> FlattenCauseChain(const Status& status) {
  std::vector<ForensicCause> chain;
  if (status.ok()) {
    return chain;
  }
  for (const Status* link = &status; link != nullptr; link = link->cause()) {
    ForensicCause cause;
    cause.code = std::string(StatusCodeName(link->code()));
    cause.message = std::string(link->message());
    chain.push_back(std::move(cause));
  }
  return chain;
}

std::string ForensicReportJson(const ForensicReport& report) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"app\": ";
  AppendJsonString(out, report.app);
  out += ",\n  \"home_device\": ";
  AppendJsonString(out, report.home_device);
  out += ",\n  \"guest_device\": ";
  AppendJsonString(out, report.guest_device);
  out += ",\n  \"failure_phase\": ";
  AppendJsonString(out, report.failure_phase);
  out += ",\n  \"captured_at_us\": " + std::to_string(report.captured_at);
  out += ",\n  \"rolled_back\": ";
  out += report.rolled_back ? "true" : "false";
  out += ",\n  \"trace_context\": ";
  AppendJsonString(out, report.trace_context.valid()
                            ? report.trace_context.ToHex()
                            : std::string());

  out += ",\n  \"cause_chain\": [";
  for (size_t i = 0; i < report.cause_chain.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += "\n    {\"code\": ";
    AppendJsonString(out, report.cause_chain[i].code);
    out += ", \"message\": ";
    AppendJsonString(out, report.cause_chain[i].message);
    out += '}';
  }
  out += "\n  ]";

  out += ",\n  \"home_events\": ";
  AppendEvents(out, report.home_events);
  out += ",\n  \"guest_events\": ";
  AppendEvents(out, report.guest_events);

  out += ",\n  \"counters\": {";
  for (size_t i = 0; i < report.counters.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += "\n    ";
    AppendJsonString(out, report.counters[i].first);
    out += ": " + std::to_string(report.counters[i].second);
  }
  out += "\n  }";

  out += ",\n  \"open_spans\": [";
  for (size_t i = 0; i < report.open_spans.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    AppendJsonString(out, report.open_spans[i]);
  }
  out += ']';

  const ReplayAuditJournal& journal = report.replay_journal;
  out += ",\n  \"replay_journal\": {\n    \"log_calls\": " +
         std::to_string(journal.log_calls);
  out += ",\n    \"entries\": [";
  for (size_t i = 0; i < journal.entries.size(); ++i) {
    const ReplayAuditEntry& e = journal.entries[i];
    if (i > 0) {
      out += ',';
    }
    out += "\n      {\"index\": " + std::to_string(e.index);
    out += ", \"seq\": " + std::to_string(e.seq);
    out += ", \"call\": ";
    AppendJsonString(out, e.interface + "." + e.method);
    out += ", \"outcome\": ";
    AppendJsonString(out, ReplayOutcomeName(e.outcome));
    if (!e.detail.empty()) {
      out += ", \"detail\": ";
      AppendJsonString(out, e.detail);
    }
    out += '}';
  }
  out += "\n    ],\n    \"mismatches\": [";
  for (size_t i = 0; i < journal.mismatches.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    AppendJsonString(out, journal.mismatches[i]);
  }
  out += "]\n  }\n}\n";
  return out;
}

void WriteForensicReport(const ForensicReport& report, std::ostream& out) {
  out << ForensicReportJson(report);
}

std::string ForensicReportText(const ForensicReport& report) {
  std::ostringstream out;
  out << "=== forensic report: " << report.app << " " << report.home_device
      << " -> " << report.guest_device << " ===\n";
  out << "failed during: " << report.failure_phase
      << (report.rolled_back ? " (rolled back)" : "") << "  at t="
      << static_cast<double>(report.captured_at) / 1e6 << "s\n";
  if (report.trace_context.valid()) {
    out << "trace context: " << report.trace_context.ToHex() << "\n";
  }
  if (!report.cause_chain.empty()) {
    out << "cause chain:\n";
    for (size_t i = 0; i < report.cause_chain.size(); ++i) {
      out << "  " << std::string(i * 2, ' ') << (i == 0 ? "" : "<- ")
          << report.cause_chain[i].code << ": "
          << report.cause_chain[i].message << "\n";
    }
  }
  if (!report.open_spans.empty()) {
    out << "spans still open at capture:\n";
    for (const std::string& span : report.open_spans) {
      out << "  " << span << "\n";
    }
  }
  auto dump_events = [&out](const char* label,
                            const std::vector<FlightEventView>& events) {
    if (events.empty()) {
      return;
    }
    out << label << " flight recorder (" << events.size() << " events):\n";
    for (const FlightEventView& e : events) {
      out << "  [" << static_cast<double>(e.time) / 1e6 << "s] "
          << EventSeverityName(e.severity) << " " << e.name << " arg0="
          << e.arg0 << " arg1=" << e.arg1;
      if (!e.detail.empty()) {
        out << " \"" << e.detail << "\"";
      }
      out << "\n";
    }
  };
  dump_events("home", report.home_events);
  dump_events("guest", report.guest_events);
  const ReplayAuditJournal& journal = report.replay_journal;
  if (!journal.entries.empty() || journal.log_calls > 0) {
    out << "replay journal (" << journal.entries.size() << " of "
        << journal.log_calls << " logged calls):\n";
    for (const ReplayAuditEntry& e : journal.entries) {
      out << "  #" << e.index << " seq=" << e.seq << " " << e.interface << "."
          << e.method << " -> " << ReplayOutcomeName(e.outcome);
      if (!e.detail.empty()) {
        out << " (" << e.detail << ")";
      }
      out << "\n";
    }
    for (const std::string& mismatch : journal.mismatches) {
      out << "  MISMATCH: " << mismatch << "\n";
    }
  }
  if (!report.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : report.counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  return out.str();
}

}  // namespace flux
