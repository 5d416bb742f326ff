// Sharded discrete-event scheduler for the simulated world.
//
// The original simulation core ticked every device on every time slice:
// World::AdvanceTime(d) advanced the clock and called Device::Tick() for the
// whole fleet, making a virtual second cost O(fleet) even when almost every
// device was idle. The scheduler inverts that: anything with timed work —
// alarms, idle-stop deadlines, workload dirty-write bursts, transfer
// completions, coordinator admission retries — registers a wake-up keyed by
// SimTime in one of N per-shard priority queues, and the world advances by
// popping events in global (due, seq) order. Idle devices register nothing
// and cost nothing, so a virtual second is O(active events), which is what
// lets one process simulate 1k-100k devices (bench_fleet).
//
// Determinism contract: events fire in strictly increasing (due, seq) order
// where `seq` is the global registration ordinal. The order is therefore a
// pure function of the schedule calls, independent of the shard count —
// sharding only partitions the heap maintenance cost. Handlers may schedule
// further events (including at the current instant) and cancel pending ones;
// cancellation is lazy (tombstoned, reaped on pop or by a fractional sweep
// once tombstones outnumber half the live set) so Cancel is O(1) amortized.
//
// ---- Parallel driver (DESIGN.md §12) ----
//
// Events come in two kinds. A *barrier* event (ScheduleAt) always fires
// serially on the driving thread, exactly as before. A *staged* event
// (ScheduleStagedAt) splits into a `run` phase that may execute on a
// ThreadPool worker and an optional `commit` phase that always executes
// serially. Whenever the globally next event is staged, the driver extracts
// a *window*: per shard, the run of staged events with (due, seq) below the
// earliest pending barrier event and within `lookahead` of the head. Run
// phases of different shards execute in parallel (same shard stays
// sequential in (due, seq) order); Schedule/Cancel calls made inside a run
// phase are transparently diverted into a per-shard mailbox. The driver
// then *merges*: it walks the window in global (due, seq) order, replaying
// each event's mailbox ops and firing its commit, interleaving any
// heap-resident event that sorts earlier. Because the merge replays every
// side effect in exactly the order a serial execution would have produced
// (including seq assignment), results are bit-identical at every thread
// count — including a pool of one, which is how the byte-identity CI gate
// compares runs. See DESIGN.md §12 for the shard-ownership rules run-phase
// handlers must follow (the coordinator's staged callbacks are the model
// citizen) and for why the lookahead is a throughput knob, not a
// correctness bound.
#ifndef FLUX_SRC_BASE_EVENT_QUEUE_H_
#define FLUX_SRC_BASE_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/sim_clock.h"

namespace flux {

class ThreadPool;

// Wake-up callback. Fired with the clock already advanced to the due time.
using EventFn = std::function<void()>;

// A two-phase event for the parallel driver. `run` may execute on a worker
// thread with a thread-local clock override at the event's due time; it must
// only touch state owned by its shard (plus relaxed-atomic counters) and may
// schedule/cancel freely (diverted into the mailbox). `commit` (optional)
// executes serially at the merge and may touch anything.
struct StagedEvent {
  EventFn run;
  EventFn commit;
};

// Handle for cancellation. seq 0 = invalid (default-constructed). Events
// scheduled from inside a staged run phase hand out a *provisional* seq
// (high bit set) that the scheduler aliases to the real seq at the merge;
// handles are interchangeable after that, so callers never need to care.
struct EventId {
  uint32_t shard = 0;
  uint64_t seq = 0;

  explicit operator bool() const { return seq != 0; }
};

class EventScheduler {
 public:
  // Tuning for the parallel window driver.
  struct DriverOptions {
    // Pool for staged run phases; null (or an inline pool) keeps execution
    // single-threaded while still driving the exact same window/merge state
    // machine — which is what makes stats identical across thread counts.
    ThreadPool* pool = nullptr;
    // Window width past the head event. Purely a throughput knob (wider =
    // more parallelism per barrier); correctness never depends on it, but
    // it must stay below the minimum spacing between same-shard events
    // whose run phases share mutable state (the coordinator's tightest
    // spacing is the cost model's kPrepareFixed = 140 ms).
    SimDuration lookahead = Millis(20);
  };

  // Host-side driver statistics. All fields are pure functions of the
  // schedule calls — independent of pool width and thread count — so they
  // are safe to fold into the byte-identity stats digest.
  struct DriverStats {
    uint64_t windows = 0;        // parallel windows extracted
    uint64_t window_events = 0;  // staged events fired through a window
    uint64_t serial_events = 0;  // events fired serially (barriers + inline)
    uint64_t mailbox_ops = 0;    // run-phase schedule/cancel calls replayed
    // windows by active-shard count: window_shards[k] = windows that ran k
    // shards in parallel (the shard-utilization histogram feed).
    std::vector<uint64_t> window_shards;
  };

  // `clock` must outlive the scheduler. `shards` partitions the pending set
  // (devices map to shards by index); values < 1 are clamped to 1, values
  // above 32767 are clamped down (provisional ids encode the shard in 15
  // bits).
  explicit EventScheduler(SimClock* clock, int shards = 1);

  // Registers a wake-up at `due` (clamped to now: scheduling into the past
  // fires at the current instant) on the given shard. Shards out of range
  // wrap. Returns a handle usable with Cancel.
  EventId ScheduleAt(SimTime due, EventFn fn, uint32_t shard = 0);
  EventId ScheduleAfter(SimDuration delay, EventFn fn, uint32_t shard = 0);

  // Registers a staged (parallel-run-phase) wake-up. The shard is the
  // serialization domain: same-shard staged events never run concurrently.
  EventId ScheduleStagedAt(SimTime due, StagedEvent ev, uint32_t shard = 0);
  EventId ScheduleStagedAfter(SimDuration delay, StagedEvent ev,
                              uint32_t shard = 0);

  // Tombstones a pending event. Returns false if the handle is invalid,
  // already fired, or already cancelled. From inside a staged run phase the
  // call is diverted into the mailbox; cancelling an id minted earlier in
  // the same window then reports optimistic success (the merge settles it).
  bool Cancel(EventId id);

  // Installs (or clears) the parallel driver. May be called between run
  // calls, not from inside a handler.
  void SetParallelDriver(const DriverOptions& options) { driver_ = options; }

  // Pops and runs every pending event with due <= target in (due, seq)
  // order, advancing the clock to each event's due time, then advances the
  // clock to `target`. Events scheduled by handlers at or before `target`
  // fire within the same call.
  void RunUntil(SimTime target);

  // Runs pending events until none remain at or before `horizon`; the clock
  // stops at the last event fired (or does not move if none is due). Unlike
  // RunUntil, the clock is NOT advanced to the horizon — fleet benches use
  // this to stop the instant the work dries up.
  void DrainUntil(SimTime horizon);

  // Earliest pending due time (the clock's now when idle); `has_pending()`
  // guards validity.
  bool has_pending() const { return !live_.empty(); }
  size_t pending() const { return live_.size(); }
  SimTime NextDue() const;

  SimClock& clock() { return *clock_; }
  int shards() const { return static_cast<int>(shards_.size()); }

  // Lifetime statistics (bench_fleet reports events popped per sim second).
  uint64_t scheduled_total() const { return next_seq_ - 1; }
  uint64_t fired_total() const { return fired_; }
  const DriverStats& driver_stats() const { return stats_; }

  // Heap residency including tombstones — the memory the fractional reap
  // bounds (event_sched_test pins heap_items <= ~1.5x live + slack).
  size_t heap_items() const;
  uint64_t reap_sweeps() const { return reap_sweeps_; }

 private:
  struct Item {
    SimTime due = 0;
    uint64_t seq = 0;
    EventFn fn;
    EventFn commit;       // staged events only
    bool staged = false;
  };
  // Min-heap ordering on (due, seq): `a` sorts after `b` when it is due
  // later or tied-but-registered-later.
  static bool Later(const Item& a, const Item& b) {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }

  // A Schedule/Cancel call captured during a staged run phase, replayed at
  // the merge in program order so seq assignment matches serial execution.
  struct MailboxOp {
    bool is_schedule = false;
    // Schedule payload.
    SimTime due = 0;
    EventFn run;
    EventFn commit;
    bool staged = false;
    uint32_t target_shard = 0;
    uint64_t provisional = 0;  // id handed back to the caller
    // Cancel payload.
    uint64_t target = 0;
    bool target_is_provisional = false;
    // True when the target sits in this window's own run list (no heap
    // tombstone is left behind, so the reap accounting must not count one).
    bool target_in_window = false;
  };

  struct Shard {
    std::vector<Item> heap;  // std::push_heap/pop_heap with Later
    // ---- per-window state (driver) ----
    std::vector<Item> run_list;  // extracted, (due, seq)-sorted
    std::vector<std::pair<uint32_t, uint32_t>> op_ranges;  // per run item
    std::vector<MailboxOp> mailbox;
    std::unordered_set<uint64_t> local_cancelled;  // same-window cancels
    size_t run_pos = 0;            // index of the item currently running
    uint64_t prov_counter = 0;     // provisional ids minted from this shard
    uint64_t window_prov_base = 0; // prov_counter at window start
  };

  // Thread-local run-phase context: which scheduler/shard the current
  // thread is executing a staged run phase for. Schedule/Cancel consult it
  // to divert into the mailbox, which is what makes handler code identical
  // between serial and parallel execution.
  struct RunCtx {
    EventScheduler* sched;
    uint32_t shard;
  };
  // Zero-initialized (static storage): no run phase active.
  inline static thread_local RunCtx tls_ctx_;

  static constexpr uint64_t kProvisionalBit = uint64_t{1} << 63;
  static uint64_t MakeProvisional(uint32_t shard, uint64_t counter) {
    return kProvisionalBit | (uint64_t{shard} << 48) |
           (counter & ((uint64_t{1} << 48) - 1));
  }
  static uint32_t ProvisionalShard(uint64_t p) {
    return static_cast<uint32_t>((p >> 48) & 0x7fff);
  }
  static uint64_t ProvisionalCount(uint64_t p) {
    return p & ((uint64_t{1} << 48) - 1);
  }

  EventId ScheduleImpl(SimTime due, EventFn run, EventFn commit, bool staged,
                       uint32_t shard);
  bool CancelFromRunPhase(EventId id);
  // Resolves a (possibly provisional) handle to a real seq; 0 if unknown.
  // `erase_alias` drops the alias entry on success.
  uint64_t ResolveSeq(uint64_t seq, bool erase_alias);

  // Index of the shard whose head is globally next, or -1 when idle.
  // Reaps cancelled heads as a side effect.
  int NextShard();
  // Pops the head of `shard` (assumed live) and runs it serially
  // (run + commit inline for staged items).
  void FireHead(Shard& shard);
  Item PopHeapHead(Shard& shard);
  void PushHeap(Shard& shard, Item item);

  // The common RunUntil/DrainUntil loop body.
  void RunLoop(SimTime bound, bool advance_to_bound);
  // Extracts, runs, and merges one window. `head_shard` holds the live
  // staged global head with due <= bound.
  void RunWindow(int head_shard, SimTime bound);
  // Merge step for one run-list item: replay its mailbox ops, fire commit.
  void CommitRunItem(Shard& shard, size_t index);

  // Fractional tombstone reap: when dead heap entries outnumber
  // max(live/2, 64), sweep every shard heap and the alias table. Serial
  // contexts only.
  void MaybeReap();

  SimClock* clock_;
  std::vector<Shard> shards_;
  // Seqs scheduled and not yet fired or cancelled. Cancel erases here and
  // leaves the heap entry behind as a tombstone, reaped when it surfaces
  // or by the fractional sweep. Frozen (read-only) during run phases.
  std::unordered_set<uint64_t> live_;
  // provisional id -> real seq, filled at merge replay. Entries die on
  // cancel-translation and at sweeps (once the real seq is gone).
  std::unordered_map<uint64_t, uint64_t> provisional_map_;
  DriverOptions driver_;
  DriverStats stats_;
  std::vector<uint32_t> active_shards_;  // scratch, reused per window
  std::vector<size_t> merge_cursor_;     // scratch, reused per window
  uint64_t next_seq_ = 1;
  uint64_t fired_ = 0;
  uint64_t dead_in_heap_ = 0;  // tombstone estimate feeding MaybeReap
  uint64_t reap_sweeps_ = 0;
};

}  // namespace flux

#endif  // FLUX_SRC_BASE_EVENT_QUEUE_H_
