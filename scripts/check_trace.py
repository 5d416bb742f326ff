#!/usr/bin/env python3
"""Validate a Chrome trace produced by the flux tracing layer.

Usage: check_trace.py <trace.json> <trace.h> <OBSERVABILITY.md>

Three gates, all cheap enough for every CI run:

  1. The file is well-formed Chrome trace_event JSON ("JSON Object
     Format"): a traceEvents array of objects whose required keys match
     their phase type, with non-negative timestamps and durations.
  2. Every successful migration in the trace (= every pid) carries each
     canonical migration phase span exactly once, and the five timeline
     phases tile [prepare.begin, reintegrate.end] without gaps.
  3. Every counter constant registered in src/flux/trace.h is documented
     in OBSERVABILITY.md, and every span, counter and histogram row there
     names something trace.h still registers, so the catalog cannot
     silently drift from the code in either direction (catalog.py).
  4. Causal flow events are well-formed: every s/f pair belongs to a
     migration/flow chain keyed by a 32-hex TraceContext id, each chain
     opens with exactly one "s" (at its earliest timestamp) and carries at
     least one "f", and every flow id also appears as an args.ctx on some
     complete span.
"""

import json
import re
import sys

import catalog

CANONICAL_PHASES = [
    "migration/prepare",
    "migration/checkpoint",
    "migration/compress",
    "migration/transfer",
    "migration/restore",
    "migration/replay",
]
TIMELINE_PHASES = [
    "migration/prepare",
    "migration/checkpoint",
    "migration/transfer",
    "migration/restore",
    "migration/reintegrate",
]


def fail(msg):
    print("check_trace: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def check_events(trace):
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    for event in events:
        ph = event.get("ph")
        if ph not in ("X", "M", "C", "s", "f"):
            fail("unexpected event phase %r" % ph)
        for key in ("name", "pid", "tid"):
            if key not in event:
                fail("event missing %r: %r" % (key, event))
        if ph == "X":
            if event.get("ts", -1) < 0 or event.get("dur", -1) < 0:
                fail("complete event with bad ts/dur: %r" % event)
        if ph == "C" and not isinstance(event.get("args"), dict):
            fail("counter event without args: %r" % event)
        if ph in ("s", "f"):
            if not re.fullmatch(r"[0-9a-f]{32}", str(event.get("id", ""))):
                fail("flow event without 32-hex id: %r" % event)
            if event.get("ts", -1) < 0:
                fail("flow event with bad ts: %r" % event)
    return events


def check_flows(events):
    # id -> list of (ts, ph), in file order; plus the ctx values stamped on
    # complete spans (flow chains must bind to actual spans).
    flows = {}
    span_ctxs = set()
    for event in events:
        if event["ph"] in ("s", "f"):
            flows.setdefault(event["id"], []).append((event["ts"], event["ph"]))
        elif event["ph"] == "X":
            ctx = (event.get("args") or {}).get("ctx")
            if ctx is not None:
                span_ctxs.add(ctx)
    for flow_id, points in flows.items():
        starts = [p for p in points if p[1] == "s"]
        finishes = [p for p in points if p[1] == "f"]
        if len(starts) != 1:
            fail("flow %s has %d start events, want exactly 1"
                 % (flow_id, len(starts)))
        if not finishes:
            fail("flow %s has a start but no finish step" % flow_id)
        if any(ts < starts[0][0] for ts, _ in finishes):
            fail("flow %s has a step before its start" % flow_id)
        if flow_id not in span_ctxs:
            fail("flow %s matches no span's args.ctx" % flow_id)
    return len(flows)


def check_migrations(events):
    # name -> pid -> list of (ts, dur), for complete events only.
    spans = {}
    for event in events:
        if event["ph"] != "X":
            continue
        spans.setdefault(event["name"], {}).setdefault(
            event["pid"], []).append((event["ts"], event["dur"]))
    if "migration/total" not in spans:
        fail("no migration/total span in trace")
    migrations = spans["migration/total"]
    for name in CANONICAL_PHASES:
        for pid in migrations:
            count = len(spans.get(name, {}).get(pid, ()))
            if count != 1:
                fail("pid %s: %s emitted %d times, want exactly once"
                     % (pid, name, count))
    # The five timeline phases tile the foreground migration contiguously.
    for pid in migrations:
        cursor = None
        for name in TIMELINE_PHASES:
            ((ts, dur),) = spans[name][pid]
            if cursor is not None and ts != cursor:
                fail("pid %s: %s begins at %d, previous phase ended at %d"
                     % (pid, name, ts, cursor))
            cursor = ts + dur
    return len(migrations)


def check_docs(trace_h, observability_md):
    # Spans use slash-separated names; counters dotted ones.
    names = catalog.registered_names(trace_h)
    counters = [n for n in names if "." in n]
    if len(counters) < 20:
        fail("only %d counter constants parsed from %s — regex drifted?"
             % (len(counters), trace_h))
    catalog.check_catalog(counters, names, observability_md,
                          ("span", "counter", "histogram"),
                          "counters in trace.h", fail)
    return counters


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trace_path, trace_h, observability_md = argv[1:]
    with open(trace_path) as f:
        trace = json.load(f)
    events = check_events(trace)
    migrations = check_migrations(events)
    flows = check_flows(events)
    counters = check_docs(trace_h, observability_md)
    print("check_trace: OK: %d events, %d migrations, %d flow chains, "
          "%d counters documented" % (len(events), migrations, flows,
                                      len(counters)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
