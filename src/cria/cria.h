// CRIA: Checkpoint/Restore In Android (§3.3).
//
// Extends CRIU-style process checkpointing with the Android-specific state
// an app carries:
//  - the Binder handle table, references and pending transaction buffers,
//    with every handle *classified* at checkpoint time: references to named
//    system services (re-bound through the guest ServiceManager under the
//    same handle numbers), app-internal connections (both ends restored),
//    anonymous system-owned objects like SensorEventConnections (deferred to
//    Adaptive Replay's proxies), and external non-system connections
//    (migration refused, §3.3);
//  - Android driver state: logger (none to save), ashmem regions, wakelocks
//    and alarms (held only via services -> covered by record/replay), and
//    pmem (must be empty: preparation frees device-specific memory);
//  - memory: anonymous/dirty segments are serialized with their bytes;
//    read-only file-backed segments are re-mapped from the paired
//    filesystem; vendor-library segments must be gone (eglUnload).
//
// Checkpoint *requires* a prepared process: no GL contexts, no vendor
// libraries, no pmem — it fails loudly otherwise, because blindly saving
// device-specific state is exactly what breaks cross-device restore.
//
// Beyond the paper's prototype, CRIA here supports *process trees*
// (CheckpointTree / multi-pid restore), implementing the paper's §3.4
// "modest additional engineering effort" note: multi-process apps like
// Facebook migrate when the extension is enabled.
#ifndef FLUX_SRC_CRIA_CRIA_H_
#define FLUX_SRC_CRIA_CRIA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/archive.h"
#include "src/device/device.h"
#include "src/flux/trace.h"
#include "src/framework/activity_thread.h"

namespace flux {

enum class HandleClass : uint8_t {
  kService = 0,       // node registered with the ServiceManager
  kAppInternal,       // node owned by the app's own process(es)
  kAnonymousSystem,   // unnamed node owned by a system process
  kExternal,          // anything else: unmigratable
};

struct CheckpointedHandle {
  uint64_t handle = 0;
  uint64_t node_id = 0;
  int strong_refs = 0;
  int weak_refs = 0;
  HandleClass cls = HandleClass::kExternal;
  std::string service_name;  // for kService
  std::string interface;
};

struct CriaStats {
  uint64_t memory_bytes = 0;   // serialized segment content
  uint64_t image_bytes = 0;    // total serialized image
  int processes = 0;
  int segments = 0;
  int file_mappings = 0;       // re-mapped, not serialized
  int fds = 0;
  int handles = 0;
  int pending_transactions = 0;
  int threads = 0;
};

struct CriaCheckpointResult {
  Bytes image;  // uncompressed serialized image
  CriaStats stats;
};

struct CriaRestoreOptions {
  // Filesystem prefix the restored process is jailed to; file-backed
  // mappings resolve under it first, then the guest's own tree (identical
  // /system files are hard-linked there).
  std::string jail_root;
  // Optional: records a cria/restore span and cria.* counters.
  Tracer* trace = nullptr;
};

// Everything the reintegration phase needs from a restored process tree.
struct CriaRestoredApp {
  Pid pid = kInvalidPid;        // the main (activity-hosting) process
  Pid virtual_pid = kInvalidPid;
  Uid uid = -1;
  std::string package;
  SimTime checkpoint_time = 0;
  std::shared_ptr<ActivityThread> thread;
  std::vector<Pid> all_pids;    // main first, then helpers

  // Old (home) node id -> new (guest) node id, for app-owned objects.
  std::map<uint64_t, uint64_t> node_mapping;
  // The main process's old handle table (handle -> old node id).
  std::map<uint64_t, uint64_t> handle_to_old_node;

  // Handles to anonymous system objects: installed by replay proxies.
  struct DeferredHandle {
    uint64_t handle = 0;
    uint64_t old_node = 0;
    std::string interface;
  };
  std::vector<DeferredHandle> deferred_handles;

  // Unix-socket descriptors reserved by number for dup2 during replay.
  struct ReservedSocket {
    Fd fd = kInvalidFd;
    std::string peer_tag;
    uint64_t connection_id = 0;
  };
  std::vector<ReservedSocket> reserved_sockets;

  std::vector<std::string> activity_tokens;

  // Keep-alive for generic app-owned Binder objects recreated at restore
  // (listeners, tokens — Dalvik objects that in real CRIU come back with
  // the memory image).
  std::vector<std::shared_ptr<BinderObject>> restored_stubs;
};

struct CriaCheckOptions {
  // Extension beyond the paper's prototype: checkpoint the whole process
  // tree of a multi-process app (§3.4 future work).
  bool allow_multiprocess = false;
};

class Cria {
 public:
  // Checkpoints the single process `pid` (the paper's prototype behaviour).
  // A non-null tracer records a cria/checkpoint span and cria.* counters.
  static Result<CriaCheckpointResult> Checkpoint(Device& device, Pid pid,
                                                 const ActivityThread& thread,
                                                 Tracer* trace = nullptr);

  // Extension: checkpoints a whole process tree. `pids.front()` must be the
  // main (activity-hosting) process owning `thread`.
  static Result<CriaCheckpointResult> CheckpointTree(
      Device& device, const std::vector<Pid>& pids,
      const ActivityThread& thread, Tracer* trace = nullptr);

  // Restores an image on `guest` inside a fresh private PID namespace,
  // re-binding service handles through the guest's ServiceManager.
  static Result<CriaRestoredApp> Restore(Device& guest, ByteSpan image,
                                         const CriaRestoreOptions& options);

  // Preflight used by migration: classifies the process's Binder handles
  // and reports the first blocking condition, if any.
  static Status CheckMigratable(Device& device, Pid pid,
                                const CriaCheckOptions& options = {});

  // ----- dirty tracking (pre-copy's final cut, DESIGN.md §10) -----

  // Starts a new dirty epoch across every process of the app: all address
  // spaces advance to one common write generation, which is returned.
  // Segments written from this point on are "dirty since" the epoch. The
  // final stop-and-copy opens one right before its cut and re-cuts while
  // DirtyBytesSince reports a write that raced it.
  static uint64_t BeginDirtyEpoch(Device& device, const std::vector<Pid>& pids);

  // Checkpointable bytes dirtied since `epoch`, summed over the tree.
  static uint64_t DirtyBytesSince(Device& device, const std::vector<Pid>& pids,
                                  uint64_t epoch);
};

std::string_view HandleClassName(HandleClass cls);

}  // namespace flux

#endif  // FLUX_SRC_CRIA_CRIA_H_
