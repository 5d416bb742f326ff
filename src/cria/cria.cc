#include "src/cria/cria.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace flux {

namespace {

constexpr uint32_t kImageMagic = 0x43524941;  // "CRIA"
constexpr uint32_t kImageVersion = 2;         // v2: process trees

HandleClass ClassifyHandle(Device& device, Uid app_uid, uint64_t node_id) {
  BinderDriver& binder = device.binder();
  if (!binder.NodeServiceName(node_id).empty()) {
    return HandleClass::kService;
  }
  const Pid owner = binder.NodeOwner(node_id);
  if (owner == kInvalidPid) {
    // Dead node: treat as app-internal debris; it will simply not resolve.
    return HandleClass::kAppInternal;
  }
  const SimProcess* owner_process = device.kernel().FindProcess(owner);
  if (owner_process != nullptr && owner_process->uid() == app_uid) {
    return HandleClass::kAppInternal;
  }
  if (owner == device.system_server().pid() ||
      (owner_process != nullptr && owner_process->uid() == kSystemUid) ||
      (owner_process != nullptr && owner_process->uid() == 0)) {
    return HandleClass::kAnonymousSystem;
  }
  return HandleClass::kExternal;
}

std::vector<CheckpointedHandle> ClassifyAllHandles(Device& device, Pid pid,
                                                   Uid uid) {
  std::vector<CheckpointedHandle> out;
  for (const BinderHandleEntry& entry : device.binder().HandleTableOf(pid)) {
    CheckpointedHandle handle;
    handle.handle = entry.handle;
    handle.node_id = entry.node_id;
    handle.strong_refs = entry.strong_refs;
    handle.weak_refs = entry.weak_refs;
    handle.cls = ClassifyHandle(device, uid, entry.node_id);
    handle.service_name =
        std::string(device.binder().NodeServiceName(entry.node_id));
    handle.interface =
        std::string(device.binder().NodeInterface(entry.node_id));
    out.push_back(std::move(handle));
  }
  return out;
}

// Image bytes a segment's fields take beyond its content and strings: the
// tags and length prefixes of name, kind, start, content, mapped size and
// backing path.
constexpr size_t kSegmentFieldBytes = 64;
// Allowance per process for the small sections (identity, threads, fds,
// handles, pending transactions, owned nodes) and, once per image, the
// header and the app state.
constexpr size_t kProcessMetadataBytes = 64 * 1024;

// What serializing `segment`'s fields adds to an image.
size_t SegmentImageBytes(const MemorySegment& segment) {
  return kSegmentFieldBytes + segment.name.size() +
         segment.backing_path.size() + segment.content.size();
}

// Pre-size for a full image of `pids`, from their segment contents. An
// estimate that falls short only costs the buffer one regrowth.
size_t ImageCapacity(Device& device, const std::vector<Pid>& pids) {
  size_t bytes = kProcessMetadataBytes;
  for (const Pid pid : pids) {
    if (const SimProcess* process = device.kernel().FindProcess(pid)) {
      bytes += kProcessMetadataBytes;
      for (const MemorySegment& segment :
           process->address_space().segments()) {
        bytes += SegmentImageBytes(segment);
      }
    }
  }
  return bytes;
}

// Serializes everything process-local: identity, threads, memory, fds,
// classified handles, pending async transactions, owned Binder nodes.
// Each part is an in-place section of `out`.
Status SerializeProcess(Device& device, Pid pid, ArchiveWriter& out,
                        CriaStats& stats) {
  SimProcess* process = device.kernel().FindProcess(pid);
  if (process == nullptr) {
    return NotFound(StrFormat("no process %d", pid));
  }
  // The process must be *prepared*: device-specific state shed (§3.3).
  if (!device.egl().ContextsOf(pid).empty()) {
    return FailedPrecondition(
        "process still owns GL contexts; preparation did not shed them");
  }
  if (process->address_space().HasKind(SegmentKind::kVendorLibrary)) {
    return FailedPrecondition(
        "vendor GL library still mapped; eglUnload required before "
        "checkpoint");
  }
  if (device.kernel().pmem().BytesOf(pid) != 0) {
    return FailedPrecondition(
        "process still holds pmem (device-specific contiguous memory)");
  }

  out.PutString(process->name());
  out.PutI64(process->virtual_pid());
  ++stats.processes;

  // ----- threads -----
  const size_t threads = out.BeginSection();
  out.PutU64(process->threads().size());
  for (const SimThread& t : process->threads()) {
    out.PutI64(t.tid);
    out.PutString(t.name);
    out.PutU8(static_cast<uint8_t>(t.state));
    out.PutU64(t.stack_size);
    out.PutI64(t.priority);
    ++stats.threads;
  }
  out.EndSection(threads);

  // ----- memory segments -----
  const size_t memory = out.BeginSection();
  const auto& segments = process->address_space().segments();
  out.PutU64(segments.size());
  for (const MemorySegment& segment : segments) {
    if (segment.kind == SegmentKind::kPmem) {
      return FailedPrecondition("pmem segment present at checkpoint");
    }
    out.PutString(segment.name);
    out.PutU8(static_cast<uint8_t>(segment.kind));
    out.PutU64(segment.start);
    if (segment.checkpointed()) {
      out.PutBytes(ByteSpan(segment.content.data(), segment.content.size()));
      stats.memory_bytes += segment.content.size();
      ++stats.segments;
    } else {
      out.PutBytes({});
      out.PutU64(segment.mapped_size);
      out.PutString(segment.backing_path);
      ++stats.file_mappings;
    }
  }
  out.EndSection(memory);

  // ----- file descriptors -----
  const size_t fds = out.BeginSection();
  out.PutU64(process->fd_table().size());
  for (const auto& [fd, object] : process->fd_table()) {
    out.PutI64(fd);
    out.PutU8(static_cast<uint8_t>(object->kind()));
    switch (object->kind()) {
      case FdKind::kRegularFile: {
        const auto* file = static_cast<const RegularFileFd*>(object.get());
        out.PutString(file->path());
        out.PutU64(file->offset());
        out.PutBool(file->writable());
        break;
      }
      case FdKind::kUnixSocket: {
        const auto* socket = static_cast<const UnixSocketFd*>(object.get());
        out.PutString(socket->peer_tag());
        out.PutU64(socket->connection_id());
        break;
      }
      case FdKind::kAshmem: {
        const auto* region = static_cast<const AshmemFd*>(object.get());
        out.PutString(region->name());
        out.PutU64(region->size());
        break;
      }
      case FdKind::kLogger: {
        const auto* logger = static_cast<const LoggerFd*>(object.get());
        out.PutString(logger->log_name());
        break;
      }
      case FdKind::kBinder:
        break;  // per-process Binder state captured below
      case FdKind::kPmem:
        return FailedPrecondition("pmem fd present at checkpoint");
      default:
        return Unsupported(StrFormat(
            "cannot checkpoint fd kind %s",
            std::string(FdKindName(object->kind())).c_str()));
    }
    ++stats.fds;
  }
  out.EndSection(fds);

  // ----- Binder handle table (classified) -----
  const size_t handles = out.BeginSection();
  const auto classified = ClassifyAllHandles(device, pid, process->uid());
  out.PutU64(classified.size());
  for (const CheckpointedHandle& handle : classified) {
    out.PutU64(handle.handle);
    out.PutU64(handle.node_id);
    out.PutI64(handle.strong_refs);
    out.PutI64(handle.weak_refs);
    out.PutU8(static_cast<uint8_t>(handle.cls));
    out.PutString(handle.service_name);
    out.PutString(handle.interface);
    ++stats.handles;
  }
  out.EndSection(handles);

  // ----- pending async transactions (Binder buffers) -----
  const size_t pending = out.BeginSection();
  const auto& queue = device.binder().PendingFor(pid);
  out.PutU64(queue.size());
  for (const PendingAsyncTransaction& txn : queue) {
    out.PutU64(txn.node_id);
    out.PutString(txn.method);
    const size_t args = out.BeginSection();
    txn.args.Serialize(out);
    out.EndSection(args);
    ++stats.pending_transactions;
  }
  out.EndSection(pending);

  // ----- app-owned Binder nodes (internal connections, §3.3) -----
  const size_t owned = out.BeginSection();
  const auto owned_nodes = device.binder().NodesOwnedBy(pid);
  out.PutU64(owned_nodes.size());
  for (const auto& [node_id, interface] : owned_nodes) {
    out.PutU64(node_id);
    out.PutString(interface);
  }
  out.EndSection(owned);
  return OkStatus();
}

// A generic stand-in for an app-owned Binder object whose real
// implementation lives in the restored memory image.
class RestoredStub : public BinderObject {
 public:
  explicit RestoredStub(std::string interface)
      : interface_(std::move(interface)) {}
  std::string_view interface_name() const override { return interface_; }
  Result<Parcel> OnTransact(std::string_view, const Parcel&,
                            const BinderCallContext&) override {
    return Parcel();
  }

 private:
  std::string interface_;
};

struct PendingInternalHandle {
  Pid new_pid;
  uint64_t handle;
  uint64_t old_node;
  int strong;
  int weak;
};

struct PendingTxn {
  Pid new_pid;
  uint64_t old_node;
  std::string method;
  Parcel args;
};

// Deserializes one process section into a fresh process inside `ns`.
// Collects cross-process fixups into the out-params.
Result<SimProcess*> RestoreProcess(
    Device& guest, ArchiveReader& in, int ns, Uid uid,
    const CriaRestoreOptions& options, bool is_main, CriaRestoredApp& restored,
    std::vector<std::pair<uint64_t, std::string>>& owned_nodes_out,
    std::vector<PendingInternalHandle>& internal_handles,
    std::vector<PendingTxn>& pending_txns) {
  std::string process_name;
  int64_t virtual_pid = -1;
  FLUX_RETURN_IF_ERROR(in.GetString(process_name));
  FLUX_RETURN_IF_ERROR(in.GetI64(virtual_pid));

  FLUX_ASSIGN_OR_RETURN(SimProcess * process,
                        guest.kernel().CreateProcessInNamespace(
                            process_name, uid, ns,
                            static_cast<Pid>(virtual_pid)));
  process->set_jail_root(options.jail_root);

  // ----- threads -----
  ArchiveReader threads({});
  FLUX_RETURN_IF_ERROR(in.GetSection(threads));
  uint64_t thread_count = 0;
  FLUX_RETURN_IF_ERROR(threads.GetU64(thread_count));
  for (uint64_t i = 0; i < thread_count; ++i) {
    int64_t tid = 0;
    std::string name;
    uint8_t state = 0;
    uint64_t stack_size = 0;
    int64_t priority = 0;
    FLUX_RETURN_IF_ERROR(threads.GetI64(tid));
    FLUX_RETURN_IF_ERROR(threads.GetString(name));
    FLUX_RETURN_IF_ERROR(threads.GetU8(state));
    FLUX_RETURN_IF_ERROR(threads.GetU64(stack_size));
    FLUX_RETURN_IF_ERROR(threads.GetI64(priority));
    SimThread* t = nullptr;
    if (i == 0) {
      // CreateProcess spawned the main thread; align its attributes.
      t = process->FindThread(1);
      if (t != nullptr) {
        t->name = name;
        t->stack_size = stack_size;
      }
    } else {
      const Tid new_tid = process->SpawnThread(name, stack_size);
      t = process->FindThread(new_tid);
    }
    if (t != nullptr) {
      t->state = static_cast<ThreadState>(state);
      t->priority = static_cast<int>(priority);
    }
  }

  // ----- memory -----
  ArchiveReader memory({});
  FLUX_RETURN_IF_ERROR(in.GetSection(memory));
  uint64_t segment_count = 0;
  FLUX_RETURN_IF_ERROR(memory.GetU64(segment_count));
  for (uint64_t i = 0; i < segment_count; ++i) {
    MemorySegment segment;
    uint8_t kind = 0;
    FLUX_RETURN_IF_ERROR(memory.GetString(segment.name));
    FLUX_RETURN_IF_ERROR(memory.GetU8(kind));
    segment.kind = static_cast<SegmentKind>(kind);
    uint64_t old_start = 0;
    FLUX_RETURN_IF_ERROR(memory.GetU64(old_start));
    FLUX_RETURN_IF_ERROR(memory.GetBytes(segment.content));
    if (!segment.checkpointed()) {
      FLUX_RETURN_IF_ERROR(memory.GetU64(segment.mapped_size));
      FLUX_RETURN_IF_ERROR(memory.GetString(segment.backing_path));
      // Re-map from the paired filesystem: the jail view first, then the
      // guest's own tree (identical /system files are hard-linked there).
      // The segment keeps its canonical path — the process is jailed, so
      // path resolution happens relative to the jail; keeping it canonical
      // lets a later migration re-resolve on yet another device.
      const std::string jailed = options.jail_root + segment.backing_path;
      if (!guest.filesystem().IsFile(jailed) &&
          !guest.filesystem().IsFile(segment.backing_path)) {
        return NotFound(StrFormat(
            "file-backed mapping %s not present on guest (pairing missing?)",
            segment.backing_path.c_str()));
      }
    }
    process->address_space().Map(std::move(segment));
  }

  // ----- file descriptors -----
  ArchiveReader fds({});
  FLUX_RETURN_IF_ERROR(in.GetSection(fds));
  uint64_t fd_count = 0;
  FLUX_RETURN_IF_ERROR(fds.GetU64(fd_count));
  for (uint64_t i = 0; i < fd_count; ++i) {
    int64_t fd = 0;
    uint8_t kind = 0;
    FLUX_RETURN_IF_ERROR(fds.GetI64(fd));
    FLUX_RETURN_IF_ERROR(fds.GetU8(kind));
    const Fd fd_num = static_cast<Fd>(fd);
    switch (static_cast<FdKind>(kind)) {
      case FdKind::kRegularFile: {
        std::string path;
        uint64_t offset = 0;
        bool writable = false;
        FLUX_RETURN_IF_ERROR(fds.GetString(path));
        FLUX_RETURN_IF_ERROR(fds.GetU64(offset));
        FLUX_RETURN_IF_ERROR(fds.GetBool(writable));
        FLUX_RETURN_IF_ERROR(process->InstallFdAt(
            fd_num, std::make_shared<RegularFileFd>(path, offset, writable)));
        break;
      }
      case FdKind::kUnixSocket: {
        std::string peer_tag;
        uint64_t connection_id = 0;
        FLUX_RETURN_IF_ERROR(fds.GetString(peer_tag));
        FLUX_RETURN_IF_ERROR(fds.GetU64(connection_id));
        // The descriptor number is reserved; Adaptive Replay reconnects the
        // channel and dup2()s the fresh socket onto it (§3.2).
        FLUX_RETURN_IF_ERROR(process->ReserveFd(fd_num));
        if (is_main) {
          restored.reserved_sockets.push_back(CriaRestoredApp::ReservedSocket{
              fd_num, peer_tag, connection_id});
        }
        break;
      }
      case FdKind::kAshmem: {
        std::string name;
        uint64_t size = 0;
        FLUX_RETURN_IF_ERROR(fds.GetString(name));
        FLUX_RETURN_IF_ERROR(fds.GetU64(size));
        guest.kernel().ashmem().CreateRegion(process->pid(), name, size);
        FLUX_RETURN_IF_ERROR(process->InstallFdAt(
            fd_num, std::make_shared<AshmemFd>(name, size)));
        break;
      }
      case FdKind::kLogger: {
        std::string log_name;
        FLUX_RETURN_IF_ERROR(fds.GetString(log_name));
        FLUX_RETURN_IF_ERROR(process->InstallFdAt(
            fd_num, std::make_shared<LoggerFd>(log_name)));
        break;
      }
      case FdKind::kBinder:
        FLUX_RETURN_IF_ERROR(
            process->InstallFdAt(fd_num, std::make_shared<BinderFd>()));
        break;
      default:
        return Corrupt("unexpected fd kind in CRIA image");
    }
  }

  // ----- handle table -----
  ArchiveReader handles({});
  FLUX_RETURN_IF_ERROR(in.GetSection(handles));
  uint64_t handle_count = 0;
  FLUX_RETURN_IF_ERROR(handles.GetU64(handle_count));
  for (uint64_t i = 0; i < handle_count; ++i) {
    CheckpointedHandle handle;
    uint8_t cls = 0;
    int64_t strong = 0;
    int64_t weak = 0;
    FLUX_RETURN_IF_ERROR(handles.GetU64(handle.handle));
    FLUX_RETURN_IF_ERROR(handles.GetU64(handle.node_id));
    FLUX_RETURN_IF_ERROR(handles.GetI64(strong));
    FLUX_RETURN_IF_ERROR(handles.GetI64(weak));
    FLUX_RETURN_IF_ERROR(handles.GetU8(cls));
    FLUX_RETURN_IF_ERROR(handles.GetString(handle.service_name));
    FLUX_RETURN_IF_ERROR(handles.GetString(handle.interface));
    handle.strong_refs = static_cast<int>(strong);
    handle.weak_refs = static_cast<int>(weak);
    handle.cls = static_cast<HandleClass>(cls);

    if (is_main) {
      restored.handle_to_old_node[handle.handle] = handle.node_id;
    }
    switch (handle.cls) {
      case HandleClass::kService: {
        // Ask the guest ServiceManager for the equivalent service and inject
        // the reference under the previously issued handle id (§3.3).
        auto node =
            guest.service_manager().GetServiceNode(handle.service_name);
        if (!node.ok()) {
          return Unavailable(
              StrFormat("guest has no service '%s' required by the app",
                        handle.service_name.c_str()));
        }
        FLUX_RETURN_IF_ERROR(guest.binder().InstallHandleAt(
            process->pid(), handle.handle, node.value(), handle.strong_refs,
            handle.weak_refs));
        break;
      }
      case HandleClass::kAppInternal:
        // Both ends are restored; node ids become known once the app's own
        // objects are re-registered.
        internal_handles.push_back(PendingInternalHandle{
            process->pid(), handle.handle, handle.node_id, handle.strong_refs,
            handle.weak_refs});
        break;
      case HandleClass::kAnonymousSystem:
        if (is_main) {
          restored.deferred_handles.push_back(CriaRestoredApp::DeferredHandle{
              handle.handle, handle.node_id, handle.interface});
        } else {
          FLUX_LOG(kWarning, "cria")
              << "helper process holds an anonymous system handle; replay "
                 "proxies only rebuild the main process's";
        }
        break;
      case HandleClass::kExternal:
        return Unsupported("CRIA image contains an external Binder handle");
    }
  }

  // ----- pending async transactions -----
  ArchiveReader pending({});
  FLUX_RETURN_IF_ERROR(in.GetSection(pending));
  uint64_t pending_count = 0;
  FLUX_RETURN_IF_ERROR(pending.GetU64(pending_count));
  for (uint64_t i = 0; i < pending_count; ++i) {
    PendingTxn txn;
    txn.new_pid = process->pid();
    FLUX_RETURN_IF_ERROR(pending.GetU64(txn.old_node));
    FLUX_RETURN_IF_ERROR(pending.GetString(txn.method));
    ArchiveReader args_section({});
    FLUX_RETURN_IF_ERROR(pending.GetSection(args_section));
    FLUX_ASSIGN_OR_RETURN(txn.args, Parcel::Deserialize(args_section));
    pending_txns.push_back(std::move(txn));
  }

  // ----- owned Binder nodes -----
  ArchiveReader owned({});
  FLUX_RETURN_IF_ERROR(in.GetSection(owned));
  uint64_t owned_count = 0;
  FLUX_RETURN_IF_ERROR(owned.GetU64(owned_count));
  for (uint64_t i = 0; i < owned_count; ++i) {
    uint64_t node_id = 0;
    std::string interface;
    FLUX_RETURN_IF_ERROR(owned.GetU64(node_id));
    FLUX_RETURN_IF_ERROR(owned.GetString(interface));
    owned_nodes_out.emplace_back(node_id, std::move(interface));
  }
  return process;
}

}  // namespace

std::string_view HandleClassName(HandleClass cls) {
  switch (cls) {
    case HandleClass::kService:
      return "service";
    case HandleClass::kAppInternal:
      return "app_internal";
    case HandleClass::kAnonymousSystem:
      return "anonymous_system";
    case HandleClass::kExternal:
      return "external";
  }
  return "unknown";
}

Status Cria::CheckMigratable(Device& device, Pid pid,
                             const CriaCheckOptions& options) {
  SimProcess* process = device.kernel().FindProcess(pid);
  if (process == nullptr) {
    return NotFound(StrFormat("no process %d", pid));
  }
  // Multi-process apps: refused unless the process-tree extension is on.
  if (!options.allow_multiprocess &&
      device.kernel().ProcessesOfUid(process->uid()).size() > 1) {
    return Unsupported("multi-process apps are not supported");
  }
  // Only app-specific SD-card directories migrate; an app holding open
  // files in the *common* SD-card area would lose them on the guest, so
  // migration is refused (§3.4).
  const std::string app_sd_prefix =
      "/sdcard/Android/data/" + process->name();
  for (const Pid app_pid : device.kernel().ProcessesOfUid(process->uid())) {
    const SimProcess* p = device.kernel().FindProcess(app_pid);
    for (const auto& [fd, object] : p->fd_table()) {
      (void)fd;
      if (object->kind() != FdKind::kRegularFile) {
        continue;
      }
      const auto* file = static_cast<const RegularFileFd*>(object.get());
      if (StrStartsWith(file->path(), "/sdcard/") &&
          !StrStartsWith(file->path(), app_sd_prefix)) {
        return Unsupported(
            StrFormat("app has common SD card data open (%s); only "
                      "app-specific SD directories migrate",
                      file->path().c_str()));
      }
    }
  }

  // External (non-system) Binder connections: refuse (§3.3). An app caught
  // mid-ContentProvider interaction (holding a provider connection) is also
  // refused — provider connections are short-lived and not record/replayed
  // (§3.4).
  for (const Pid app_pid : device.kernel().ProcessesOfUid(process->uid())) {
    for (const auto& handle :
         ClassifyAllHandles(device, app_pid, process->uid())) {
      if (handle.cls == HandleClass::kExternal) {
        return Unsupported(
            StrFormat("app holds an external non-system Binder connection "
                      "(handle %llu to %s)",
                      static_cast<unsigned long long>(handle.handle),
                      handle.interface.c_str()));
      }
      if (handle.interface == kContentProviderInterface) {
        return Unsupported(
            "app is interacting with a ContentProvider; retry once the "
            "interaction completes");
      }
    }
  }
  return OkStatus();
}

Result<CriaCheckpointResult> Cria::Checkpoint(Device& device, Pid pid,
                                              const ActivityThread& thread,
                                              Tracer* trace) {
  return CheckpointTree(device, {pid}, thread, trace);
}

Result<CriaCheckpointResult> Cria::CheckpointTree(
    Device& device, const std::vector<Pid>& pids,
    const ActivityThread& thread, Tracer* trace) {
  if (pids.empty()) {
    return InvalidArgument("no processes to checkpoint");
  }
  FLUX_TRACE_SPAN(checkpoint_span, trace, trace_names::kSpanCriaCheckpoint);
  SimProcess* main = device.kernel().FindProcess(pids.front());
  if (main == nullptr) {
    return NotFound(StrFormat("no process %d", pids.front()));
  }
  CriaCheckOptions check;
  check.allow_multiprocess = pids.size() > 1;
  FLUX_RETURN_IF_ERROR(CheckMigratable(device, pids.front(), check));

  // Every section is written in place into the one image buffer, so each
  // memory byte is copied once.
  CriaStats stats;
  ArchiveWriter image;
  image.Reserve(ImageCapacity(device, pids));
  image.PutU32(kImageMagic);
  image.PutU32(kImageVersion);

  // ----- identity -----
  const size_t header = image.BeginSection();
  image.PutString(thread.package());
  image.PutI64(main->uid());
  image.PutU64(device.clock().now());
  image.PutU64(pids.size());
  image.EndSection(header);

  // ----- per-process state, main first -----
  for (const Pid pid : pids) {
    const size_t process_section = image.BeginSection();
    FLUX_RETURN_IF_ERROR(SerializeProcess(device, pid, image, stats));
    image.EndSection(process_section);
  }

  // ----- Dalvik-level app state (the ActivityThread object graph) -----
  const size_t app_state = image.BeginSection();
  thread.SaveState(image);
  image.EndSection(app_state);

  CriaCheckpointResult result;
  result.image = image.TakeData();
  stats.image_bytes = result.image.size();
  result.stats = stats;
  FLUX_TRACE_COUNT(trace, trace_names::kCriaCheckpoints, 1);
  FLUX_TRACE_COUNT(trace, trace_names::kCriaImageBytes, stats.image_bytes);
  FLUX_EVENT(&device.flight_recorder(), flight_events::kSubCria,
             flight_events::kCriaCheckpoint, EventSeverity::kInfo,
             stats.image_bytes, pids.size());
  return result;
}

uint64_t Cria::BeginDirtyEpoch(Device& device, const std::vector<Pid>& pids) {
  uint64_t epoch = 0;
  for (const Pid pid : pids) {
    if (SimProcess* process = device.kernel().FindProcess(pid)) {
      epoch = std::max(epoch, process->address_space().BeginEpoch());
    }
  }
  for (const Pid pid : pids) {
    if (SimProcess* process = device.kernel().FindProcess(pid)) {
      process->address_space().AlignGeneration(epoch);
    }
  }
  return epoch;
}

uint64_t Cria::DirtyBytesSince(Device& device, const std::vector<Pid>& pids,
                               uint64_t epoch) {
  uint64_t total = 0;
  for (const Pid pid : pids) {
    if (const SimProcess* process = device.kernel().FindProcess(pid)) {
      total += process->address_space().DirtyBytesSince(epoch);
    }
  }
  return total;
}

Result<CriaRestoredApp> Cria::Restore(Device& guest, ByteSpan image,
                                      const CriaRestoreOptions& options) {
  FLUX_TRACE_SPAN(restore_span, options.trace, trace_names::kSpanCriaRestore);
  FLUX_TRACE_COUNT(options.trace, trace_names::kCriaRestores, 1);
  ArchiveReader reader(image);
  uint32_t magic = 0;
  uint32_t version = 0;
  FLUX_RETURN_IF_ERROR(reader.GetU32(magic));
  FLUX_RETURN_IF_ERROR(reader.GetU32(version));
  if (magic != kImageMagic || version != kImageVersion) {
    return Corrupt("not a CRIA image (bad magic/version)");
  }

  // ----- identity -----
  ArchiveReader header({});
  FLUX_RETURN_IF_ERROR(reader.GetSection(header));
  std::string package;
  int64_t uid = -1;
  uint64_t checkpoint_time = 0;
  uint64_t process_count = 0;
  FLUX_RETURN_IF_ERROR(header.GetString(package));
  FLUX_RETURN_IF_ERROR(header.GetI64(uid));
  FLUX_RETURN_IF_ERROR(header.GetU64(checkpoint_time));
  FLUX_RETURN_IF_ERROR(header.GetU64(process_count));
  if (process_count == 0 || process_count > 64) {
    return Corrupt("implausible process count in CRIA image");
  }

  // The wrapper app's uid on the guest (pseudo-installed at pairing).
  Uid guest_uid = static_cast<Uid>(uid);
  if (const PackageInfo* wrapper = guest.package_manager().Find(package)) {
    guest_uid = wrapper->uid;
  }

  // Private PID namespace so every process keeps its pid numbering (§3.3).
  const int ns = guest.kernel().CreatePidNamespace();

  CriaRestoredApp restored;
  restored.uid = guest_uid;
  restored.package = package;
  restored.checkpoint_time = checkpoint_time;

  std::vector<std::pair<uint64_t, std::string>> owned_nodes;
  std::vector<PendingInternalHandle> internal_handles;
  std::vector<PendingTxn> pending_txns;
  std::map<uint64_t, Pid> owned_node_to_new_pid;

  for (uint64_t i = 0; i < process_count; ++i) {
    ArchiveReader process_section({});
    FLUX_RETURN_IF_ERROR(reader.GetSection(process_section));
    const size_t owned_before = owned_nodes.size();
    FLUX_ASSIGN_OR_RETURN(
        SimProcess * process,
        RestoreProcess(guest, process_section, ns, guest_uid, options,
                       /*is_main=*/i == 0, restored, owned_nodes,
                       internal_handles, pending_txns));
    restored.all_pids.push_back(process->pid());
    for (size_t n = owned_before; n < owned_nodes.size(); ++n) {
      owned_node_to_new_pid[owned_nodes[n].first] = process->pid();
    }
    if (i == 0) {
      restored.pid = process->pid();
      restored.virtual_pid = process->virtual_pid();
    }
  }

  // ----- Dalvik-level app state -----
  ArchiveReader app_state({});
  FLUX_RETURN_IF_ERROR(reader.GetSection(app_state));
  uint64_t old_thread_node = 0;
  FLUX_ASSIGN_OR_RETURN(
      restored.thread,
      ActivityThread::RestoreState(guest.context(), restored.pid, guest_uid,
                                   package, app_state, restored.node_mapping,
                                   old_thread_node));

  // Recreate the remaining app-owned nodes (listeners, tokens) as stub
  // objects in their owning processes; the real objects come back inside the
  // restored memory images, these give them live driver-side identities.
  for (const auto& [node_id, interface] : owned_nodes) {
    if (node_id == old_thread_node ||
        restored.node_mapping.count(node_id) > 0) {
      continue;
    }
    auto stub = std::make_shared<RestoredStub>(interface);
    const Pid owner = owned_node_to_new_pid.count(node_id) > 0
                          ? owned_node_to_new_pid[node_id]
                          : restored.pid;
    restored.node_mapping[node_id] =
        guest.binder().RegisterNode(owner, stub);
    restored.restored_stubs.push_back(std::move(stub));
  }

  // Attach the restored thread early: it registers the new
  // IApplicationThread node, completing the node mapping before handles and
  // buffered transactions are resolved against it.
  FLUX_RETURN_IF_ERROR(restored.thread->Attach());
  if (old_thread_node != 0) {
    restored.node_mapping[old_thread_node] = restored.thread->thread_node();
  }

  // Internal handles now resolve through the node mapping.
  for (const PendingInternalHandle& handle : internal_handles) {
    auto it = restored.node_mapping.find(handle.old_node);
    if (it == restored.node_mapping.end()) {
      FLUX_LOG(kWarning, "cria")
          << "internal handle " << handle.handle
          << " references an unrestored app node; dropping";
      continue;
    }
    FLUX_RETURN_IF_ERROR(guest.binder().InstallHandleAt(
        handle.new_pid, handle.handle, it->second, handle.strong,
        handle.weak));
  }

  // Re-queue checkpointed async transactions targeting the app's nodes.
  for (PendingTxn& txn : pending_txns) {
    auto it = restored.node_mapping.find(txn.old_node);
    if (it == restored.node_mapping.end()) {
      FLUX_LOG(kWarning, "cria")
          << "dropping pending transaction to unmapped node " << txn.old_node;
      continue;
    }
    PendingAsyncTransaction queued;
    queued.sender_pid = guest.system_server().pid();
    queued.node_id = it->second;
    queued.method = txn.method;
    queued.args = std::move(txn.args);
    guest.binder().InjectPendingAsync(txn.new_pid, std::move(queued));
  }

  for (const LocalActivity& activity : restored.thread->activities()) {
    FLUX_RETURN_IF_ERROR(guest.activity_manager().AdoptActivity(
        activity.token, activity.name, package, restored.pid));
    restored.activity_tokens.push_back(activity.token);
  }

  if (!reader.AtEnd()) {
    return Corrupt("trailing bytes in CRIA image");
  }
  FLUX_EVENT(&guest.flight_recorder(), flight_events::kSubCria,
             flight_events::kCriaRestore, EventSeverity::kInfo, image.size(),
             static_cast<uint64_t>(restored.pid));
  return restored;
}

}  // namespace flux
