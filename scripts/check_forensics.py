#!/usr/bin/env python3
"""Validate the forensics/observability artifacts in CI.

Usage:
  check_forensics.py report <forensic.json> <flight_recorder.h> <OBSERVABILITY.md>
  check_forensics.py stats <stats.json> <trace.h> <OBSERVABILITY.md>

`report` mode gates the forensic-report JSON schema (the output of
WriteForensicReport / the forensics_demo example) and keeps the event
taxonomy honest: every flight_events constant registered in
flight_recorder.h must appear in OBSERVABILITY.md, every event row there
must name a registered constant, and every event name in the report must
be a registered constant.

`stats` mode gates the --stats-out JSON written by the figure benches
(WriteMatrixStats): shape, monotone percentiles, that every histogram
constant registered in trace.h is documented, and that every histogram row
in OBSERVABILITY.md names a registered constant.

Both catalog checks run through catalog.py.
"""

import json
import re
import sys

import catalog

SEVERITIES = {"debug", "info", "warning", "error"}
OUTCOMES = {"verbatim", "proxied", "skipped", "adapted", "failed"}

REPORT_KEYS = {
    "app", "home_device", "guest_device", "failure_phase", "captured_at_us",
    "rolled_back", "trace_context", "cause_chain", "home_events",
    "guest_events", "counters", "open_spans", "replay_journal",
}
EVENT_KEYS = {"t", "sub", "name", "sev", "arg0", "arg1"}
HIST_KEYS = {"count", "max", "p50", "p90", "p99", "sum", "buckets"}


def fail(msg):
    print("check_forensics: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def registered_names(header, min_expected):
    """Dotted string constants from a header's inline constexpr table."""
    dotted = [n for n in catalog.registered_names(header) if "." in n]
    if len(dotted) < min_expected:
        fail("only %d dotted constants parsed from %s — regex drifted?"
             % (len(dotted), header))
    return dotted


def check_events(events, where, known):
    if not isinstance(events, list):
        fail("%s is not a list" % where)
    last_t = -1
    for event in events:
        if not EVENT_KEYS <= set(event):
            fail("%s event missing keys %s: %r"
                 % (where, EVENT_KEYS - set(event), event))
        if event["sev"] not in SEVERITIES:
            fail("%s event with unknown severity: %r" % (where, event))
        if not isinstance(event["t"], int) or event["t"] < 0:
            fail("%s event with bad timestamp: %r" % (where, event))
        if event["t"] < last_t:
            fail("%s events not oldest-to-newest at t=%d" % (where,
                                                             event["t"]))
        last_t = event["t"]
        if event["name"] not in known:
            fail("%s event name %r is not registered in flight_recorder.h"
                 % (where, event["name"]))


def check_report(report_path, recorder_h, observability_md):
    with open(report_path) as f:
        report = json.load(f)
    if set(report) != REPORT_KEYS:
        fail("report keys %s != expected %s" % (sorted(report),
                                                sorted(REPORT_KEYS)))
    if not isinstance(report["rolled_back"], bool):
        fail("rolled_back is not a bool")
    if not report["failure_phase"]:
        fail("failure_phase is empty")
    if not isinstance(report["captured_at_us"], int):
        fail("captured_at_us is not an integer")
    ctx = report["trace_context"]
    if not isinstance(ctx, str) or (ctx and not re.fullmatch(r"[0-9a-f]{32}",
                                                             ctx)):
        fail("trace_context is neither empty nor 32-hex: %r" % ctx)
    # Per-event ctx stamps (optional key) must agree with the report's.
    for where in ("home_events", "guest_events"):
        for event in report[where]:
            if "ctx" in event and ctx and event["ctx"] != ctx:
                fail("%s event ctx %r != report trace_context %r"
                     % (where, event["ctx"], ctx))
    chain = report["cause_chain"]
    if not isinstance(chain, list) or not chain:
        fail("cause_chain missing or empty")
    for link in chain:
        if set(link) != {"code", "message"}:
            fail("bad cause-chain link: %r" % link)

    known = set(registered_names(recorder_h, 20))
    check_events(report["home_events"], "home_events", known)
    check_events(report["guest_events"], "guest_events", known)
    if not report["home_events"]:
        fail("home_events is empty — the flight recorder captured nothing")

    if not isinstance(report["counters"], dict):
        fail("counters is not an object")
    if not isinstance(report["open_spans"], list):
        fail("open_spans is not a list")

    journal = report["replay_journal"]
    for key in ("log_calls", "entries", "mismatches"):
        if key not in journal:
            fail("replay_journal missing %r" % key)
    for entry in journal["entries"]:
        if not {"index", "seq", "call", "outcome"} <= set(entry):
            fail("bad journal entry: %r" % entry)
        if entry["outcome"] not in OUTCOMES:
            fail("unknown replay outcome: %r" % entry)

    catalog.check_catalog(sorted(known), known, observability_md,
                          ("event",), "flight-recorder events", fail)
    events = len(report["home_events"]) + len(report["guest_events"])
    print("check_forensics: OK: report for %r failed during %s; %d events, "
          "%d cause links, %d journal entries, %d events documented"
          % (report["app"], report["failure_phase"], events, len(chain),
             len(journal["entries"]), len(known)))


def check_stats(stats_path, trace_h, observability_md):
    with open(stats_path) as f:
        stats = json.load(f)
    for key in ("cells", "counters", "zero_counters", "histograms"):
        if key not in stats:
            fail("stats missing %r" % key)
    if not isinstance(stats["cells"], int) or stats["cells"] <= 0:
        fail("stats cells not a positive integer: %r" % stats.get("cells"))
    if not isinstance(stats["counters"], dict) or not stats["counters"]:
        fail("stats counters missing or empty")
    for name, value in stats["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail("counter %r has bad value %r" % (name, value))
    # zero_counters makes registered-but-zero explicit: it must name
    # exactly the zero-valued entries of "counters" (a name absent from
    # "counters" entirely was never registered — its subsystem never ran).
    zeros = stats["zero_counters"]
    if not isinstance(zeros, list):
        fail("zero_counters is not a list")
    expect_zeros = sorted(n for n, v in stats["counters"].items() if v == 0)
    if sorted(zeros) != expect_zeros:
        fail("zero_counters %s != zero-valued counters %s"
             % (sorted(zeros), expect_zeros))
    histograms = stats["histograms"]
    if not isinstance(histograms, dict) or not histograms:
        fail("stats histograms missing or empty")
    recorded = 0
    for name, hist in histograms.items():
        if set(hist) != HIST_KEYS:
            fail("histogram %r keys %s != %s" % (name, sorted(hist),
                                                 sorted(HIST_KEYS)))
        if hist["count"] < 0 or hist["max"] < 0 or hist["sum"] < 0:
            fail("histogram %r has negative count/max/sum" % name)
        if not hist["p50"] <= hist["p90"] <= hist["p99"] <= hist["max"]:
            fail("histogram %r percentiles not monotone: %r" % (name, hist))
        buckets = hist["buckets"]
        if not isinstance(buckets, list) or len(buckets) != 64:
            fail("histogram %r buckets is not a 64-entry array" % name)
        if sum(buckets) != hist["count"]:
            fail("histogram %r buckets sum %d != count %d"
                 % (name, sum(buckets), hist["count"]))
        if hist["count"] > 0:
            recorded += 1
    if recorded == 0:
        fail("no histogram recorded any value — instrumentation dead?")

    # Every histogram constant in trace.h ends in `_us`; the benches must
    # produce them under their registered names and the docs must list them.
    names = catalog.registered_names(trace_h)
    registered = [n for n in names if n.endswith("_us")]
    if len(registered) < 4:
        fail("only %d histogram constants parsed from %s" % (len(registered),
                                                             trace_h))
    missing = [n for n in registered
               if n not in histograms and not n.startswith("pipeline.")
               and not n.startswith("fleet.")]
    # pipeline.* histograms only exist in pipelined-mode runs; fleet.*
    # histograms come from bench_fleet's coordinator, not the fig13 matrix.
    if missing:
        fail("histograms registered in trace.h but absent from stats: %s"
             % ", ".join(missing))
    catalog.check_catalog(registered, names, observability_md,
                          ("histogram",), "histograms", fail)
    print("check_forensics: OK: stats over %d cells, %d counters, "
          "%d histograms (%d non-empty), %d registered names documented"
          % (stats["cells"], len(stats["counters"]), len(histograms),
             recorded, len(registered)))


def main(argv):
    if len(argv) != 5 or argv[1] not in ("report", "stats"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "report":
        check_report(argv[2], argv[3], argv[4])
    else:
        check_stats(argv[2], argv[3], argv[4])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
