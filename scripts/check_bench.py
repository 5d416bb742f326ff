#!/usr/bin/env python3
"""Gate CI on benchmark regressions.

Usage: check_bench.py <pipeline|dedup|record|precopy|fleet|hostile> <fresh.json> <committed.json>

Compares a freshly produced BENCH_*.json against the committed one and
exits non-zero when the fresh numbers regress beyond tolerance:

  pipeline  mean_total_improvement_pct may drop at most 5 points below
            the committed value.
  dedup     mean_warm_reduction_pct must stay >= 50 (the acceptance
            floor) and within 5 points of the committed value;
            mean_cold_time_delta_s must stay <= 0.05 s.
  record    min_drop_speedup must stay >= 5 (the acceptance floor:
            drop-heavy record-path workloads run at least 5x faster
            through the compiled fast lane than the legacy engine).
            Wall-clock ratios vary across machines, so the committed
            value is informational only.
  precopy   p50_perceived_s must stay < 1.0 (the sub-second cold
            migration claim) and warm_perceived_s < 0.3 (warm
            re-migration); both must also stay within 10% of the
            committed values.
  fleet     per scale: the simulated fields (requested, completed,
            refused, pairings, queue_wait_p50_ms, queue_wait_p99_ms,
            max_in_flight, warm_chunk_pct, wire_mb, sim_span_s) are
            deterministic and must equal the committed values exactly,
            max_in_flight must stay >= 8 (the concurrent-migration
            claim), and the 10k-device run must finish in under 60 s of
            host wall clock. migrations_per_host_s is
            host-dependent: gated only by an absolute floor of 1000/s.
            stats_match must be true at every scale (the serial and
            threaded drivers produced byte-identical merged stats — the
            determinism contract of DESIGN.md §12). speedup is gated
            only where the host has the cores to show it: >= 2.0 with
            8+ cores, >= 1.2 with 4+. Below that (or with fewer than 4
            threads) the gate is reported as unmeasured, not passed:
            single-core CI runners legitimately see ~1.0x.
  hostile   success_rate_1pct_fec must stay >= 0.99 (at 1% per-frame
            loss with FEC on, migrations complete and restore
            byte-identically) and resume_retransmit_ratio <= 1.2 (a
            resumed transfer re-sends at most 1.2x the bytes the
            outage destroyed — the chunk-granular resume claim). Both
            are deterministic simulation outputs; the committed values
            are the exact expectation.

The simulation is deterministic, so in practice fresh == committed for
pipeline and dedup; the tolerances only absorb intentional
recalibrations small enough not to invalidate the claims. The fleet's
simulated fields have no tolerance: a change that moves them must
commit a new BENCH_fleet.json. The record
mode measures real wall-clock speedups and gates only on its floor.
"""

import json
import sys

TOLERANCE_PCT = 5.0
DEDUP_FLOOR_PCT = 50.0
COLD_DELTA_MAX_S = 0.05
RECORD_SPEEDUP_FLOOR = 5.0
PRECOPY_P50_MAX_S = 1.0
PRECOPY_WARM_MAX_S = 0.3
PRECOPY_DRIFT_FRAC = 0.10
FLEET_MIN_IN_FLIGHT = 8
FLEET_EXACT_FIELDS = ("requested", "completed", "refused", "pairings",
                      "queue_wait_p50_ms", "queue_wait_p99_ms",
                      "max_in_flight", "warm_chunk_pct", "wire_mb",
                      "sim_span_s")
FLEET_THROUGHPUT_FLOOR = 1000.0
FLEET_10K_WALL_MAX_S = 60.0
FLEET_SPEEDUP_8CORE = 2.0
FLEET_SPEEDUP_4CORE = 1.2
HOSTILE_SUCCESS_FLOOR = 0.99
HOSTILE_RETRANSMIT_MAX = 1.2


def fail(msg):
    print("check_bench: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) != 4 or argv[1] not in ("pipeline", "dedup", "record",
                                         "precopy", "fleet", "hostile"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, fresh_path, committed_path = argv[1], argv[2], argv[3]
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(committed_path) as f:
        committed = json.load(f)

    if mode == "pipeline":
        key = "mean_total_improvement_pct"
        got, want = fresh[key], committed[key]
        if got < want - TOLERANCE_PCT:
            fail("%s regressed: %.2f vs committed %.2f (tolerance %.1f)"
                 % (key, got, want, TOLERANCE_PCT))
        print("check_bench: pipeline OK (%s = %.2f, committed %.2f)"
              % (key, got, want))
    elif mode == "record":
        key = "min_drop_speedup"
        got, want = fresh[key], committed[key]
        if got < RECORD_SPEEDUP_FLOOR:
            fail("%s below the %.0fx acceptance floor: %.2fx"
                 % (key, RECORD_SPEEDUP_FLOOR, got))
        print("check_bench: record OK (%s = %.2fx, committed %.2fx, "
              "floor %.0fx)" % (key, got, want, RECORD_SPEEDUP_FLOOR))
    elif mode == "precopy":
        for key, ceiling in (("p50_perceived_s", PRECOPY_P50_MAX_S),
                             ("warm_perceived_s", PRECOPY_WARM_MAX_S)):
            got, want = fresh[key], committed[key]
            if got >= ceiling:
                fail("%s above the %.1f s acceptance ceiling: %.3f s"
                     % (key, ceiling, got))
            if got > want * (1.0 + PRECOPY_DRIFT_FRAC):
                fail("%s regressed: %.3f s vs committed %.3f s "
                     "(tolerance %.0f%%)"
                     % (key, got, want, PRECOPY_DRIFT_FRAC * 100))
        print("check_bench: precopy OK (p50 %.3f s < %.1f s, warm "
              "%.3f s < %.1f s)"
              % (fresh["p50_perceived_s"], PRECOPY_P50_MAX_S,
                 fresh["warm_perceived_s"], PRECOPY_WARM_MAX_S))
    elif mode == "fleet":
        committed_by_devices = {s["devices"]: s for s in committed["scales"]}
        host_cores = fresh.get("host_cores", 0)
        threads = fresh.get("threads", 1)
        if threads >= 4 and host_cores >= 4:
            floor = (FLEET_SPEEDUP_8CORE if host_cores >= 8
                     else FLEET_SPEEDUP_4CORE)
        else:
            floor = None
            print("check_bench: fleet speedup gate UNMEASURED: %d threads "
                  "on %d host cores cannot show a threaded speedup (needs "
                  ">= 4 of each)" % (threads, host_cores))
        # Simulated fields first, at every scale, so a changed fleet is
        # reported even where a host-dependent gate below would fail.
        for scale in fresh["scales"]:
            want = committed_by_devices.get(scale["devices"], {})
            for key in FLEET_EXACT_FIELDS:
                if scale[key] != want.get(key):
                    fail("%dk %s is %r, committed %r: the simulated fleet "
                         "changed" % (scale["devices"] // 1000, key,
                                      scale[key], want.get(key)))
        for scale in fresh["scales"]:
            devices = scale["devices"]
            want = committed_by_devices.get(devices)
            if want is None:
                fail("scale %d has no committed baseline" % devices)
            if scale["max_in_flight"] < FLEET_MIN_IN_FLIGHT:
                fail("%dk max_in_flight %d below the %d concurrent-"
                     "migration floor" % (devices // 1000,
                                          scale["max_in_flight"],
                                          FLEET_MIN_IN_FLIGHT))
            if scale["migrations_per_host_s"] < FLEET_THROUGHPUT_FLOOR:
                fail("%dk migrations_per_host_s below the %.0f/s floor: "
                     "%.0f" % (devices // 1000,
                               FLEET_THROUGHPUT_FLOOR,
                               scale["migrations_per_host_s"]))
            if devices == 10000 and scale["host_wall_s"] >= FLEET_10K_WALL_MAX_S:
                fail("10k-device run took %.1f s host wall clock (max %.0f)"
                     % (scale["host_wall_s"], FLEET_10K_WALL_MAX_S))
            if not scale.get("stats_match", False):
                fail("%dk stats_match is false: the %d-thread run diverged "
                     "from the serial driver (determinism break)"
                     % (devices // 1000, threads))
            if floor is not None and scale.get("speedup", 0.0) < floor:
                fail("%dk threaded speedup %.2fx below the %.1fx floor "
                     "(%d threads on %d cores)"
                     % (devices // 1000, scale.get("speedup", 0.0), floor,
                        threads, host_cores))
        print("check_bench: fleet OK (%d scales; 10k: %.0f mig/s, p99 wait "
              "%.1f ms, %.2f s wall; speedup %s)"
              % (len(fresh["scales"]),
                 next(s["migrations_per_host_s"] for s in fresh["scales"]
                      if s["devices"] == 10000),
                 next(s["queue_wait_p99_ms"] for s in fresh["scales"]
                      if s["devices"] == 10000),
                 next(s["host_wall_s"] for s in fresh["scales"]
                      if s["devices"] == 10000),
                 "unmeasured" if floor is None else
                 ">= %.1fx" % floor))
    elif mode == "hostile":
        got = fresh["success_rate_1pct_fec"]
        want = committed["success_rate_1pct_fec"]
        if got < HOSTILE_SUCCESS_FLOOR:
            fail("success_rate_1pct_fec below the %.2f floor: %.4f "
                 "(committed %.4f)" % (HOSTILE_SUCCESS_FLOOR, got, want))
        ratio = fresh["resume_retransmit_ratio"]
        if ratio > HOSTILE_RETRANSMIT_MAX:
            fail("resume_retransmit_ratio above the %.1fx ceiling: %.4f"
                 % (HOSTILE_RETRANSMIT_MAX, ratio))
        if fresh.get("resume_interrupted_hops", 0) < 1:
            fail("no interrupted hop resumed: the resume gate did not run")
        print("check_bench: hostile OK (1%%-loss FEC success %.2f >= %.2f, "
              "resume retransmit ratio %.3f <= %.1f)"
              % (got, HOSTILE_SUCCESS_FLOOR, ratio, HOSTILE_RETRANSMIT_MAX))
    else:
        key = "mean_warm_reduction_pct"
        got, want = fresh[key], committed[key]
        if got < DEDUP_FLOOR_PCT:
            fail("%s below the %.0f%% acceptance floor: %.2f"
                 % (key, DEDUP_FLOOR_PCT, got))
        if got < want - TOLERANCE_PCT:
            fail("%s regressed: %.2f vs committed %.2f (tolerance %.1f)"
                 % (key, got, want, TOLERANCE_PCT))
        cold = fresh["mean_cold_time_delta_s"]
        if cold > COLD_DELTA_MAX_S:
            fail("mean_cold_time_delta_s too high: %.4f s (max %.2f s)"
                 % (cold, COLD_DELTA_MAX_S))
        print("check_bench: dedup OK (%s = %.2f, committed %.2f, "
              "cold delta %+.4f s)" % (key, got, want, cold))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
