#include "src/flux/pairing.h"

#include <algorithm>

#include "src/base/logging.h"

namespace flux {

namespace {

// Transfers `bytes` between the two devices' radios on the shared network.
void TransferBetween(FluxAgent& home, FluxAgent& guest, uint64_t bytes,
                     Tracer* trace = nullptr) {
  Device& h = home.device();
  Device& g = guest.device();
  const EffectiveLink link =
      h.wifi().LinkBetween(h.profile().radio, g.profile().radio);
  h.wifi().Transfer(h.clock(), bytes, link);
  FLUX_TRACE_COUNT(trace, trace_names::kPairingWireBytes, bytes);
}

// Seeds both devices' chunk caches from a freshly synced tree: after the
// framework sync the content is byte-identical on both sides, so each
// 256 KiB slice is a chunk both caches can vouch for without any further
// wire traffic. Costs no simulated time — the hashing rides along with the
// sync's own checksum pass.
void SeedChunkCachesFromTree(FluxAgent& home, FluxAgent& guest,
                             const SimFilesystem& fs,
                             const std::string& path) {
  if (fs.IsFile(path)) {
    auto content = fs.ReadFile(path);
    if (!content.ok()) {
      return;
    }
    const ByteSpan bytes = content.value()->span();
    for (uint64_t begin = 0; begin < bytes.size();
         begin += kChunkCacheChunkBytes) {
      const uint64_t len =
          std::min<uint64_t>(kChunkCacheChunkBytes, bytes.size() - begin);
      const ByteSpan chunk = bytes.subspan(begin, len);
      const Hash128 hash = FluxHash128(chunk);
      home.chunk_cache().Insert(hash, chunk);
      guest.chunk_cache().Insert(hash, chunk);
    }
    return;
  }
  auto children = fs.List(path);
  if (!children.ok()) {
    return;
  }
  for (const std::string& child : children.value()) {
    SeedChunkCachesFromTree(home, guest, fs,
                            path == "/" ? "/" + child : path + "/" + child);
  }
}

}  // namespace

Result<PairingStats> PairDevices(FluxAgent& home, FluxAgent& guest,
                                 Tracer* trace) {
  Device& h = home.device();
  Device& g = guest.device();
  const SimTime begin = h.clock().now();
  FLUX_TRACE_SPAN(pair_span, trace, trace_names::kSpanPairDevices);

  PairingStats stats;
  const std::string pair_root = FluxAgent::PairRoot(h.name());

  // Sync the home /system tree into the guest's pairing root, hard-linking
  // against the guest's own /system.
  SyncOptions options;
  options.link_dest = "/system";
  options.compress = true;
  FLUX_ASSIGN_OR_RETURN(SyncStats sync,
                        SyncTree(h.filesystem(), "/system", g.filesystem(),
                                 pair_root + "/system", options));
  stats.framework_total_bytes = sync.bytes_total;
  stats.framework_linked_bytes = sync.bytes_linked + sync.bytes_up_to_date;
  stats.framework_delta_bytes = sync.bytes_copied_raw;
  stats.framework_wire_bytes = sync.WireBytes();
  TransferBetween(home, guest, sync.WireBytes(), trace);

  // Both sides now hold identical framework bytes: seed the
  // content-addressed chunk caches so even a first migration can
  // dedup against framework content it happens to carry verbatim.
  SeedChunkCachesFromTree(home, guest, h.filesystem(), "/system");

  home.MarkPaired(g.name());
  guest.MarkPaired(h.name());
  stats.elapsed = static_cast<SimDuration>(h.clock().now() - begin);
  FLUX_EVENT_DETAIL(&h.flight_recorder(), flight_events::kSubPairing,
                    flight_events::kPairingDevices, EventSeverity::kInfo,
                    stats.framework_wire_bytes, stats.elapsed, g.name());
  FLUX_EVENT_DETAIL(&g.flight_recorder(), flight_events::kSubPairing,
                    flight_events::kPairingDevices, EventSeverity::kInfo,
                    stats.framework_wire_bytes, stats.elapsed, h.name());
  FLUX_LOG(kInfo, "pairing")
      << h.name() << " -> " << g.name() << ": "
      << stats.framework_total_bytes / (1024 * 1024) << " MB constant, "
      << stats.framework_delta_bytes / (1024 * 1024)
      << " MB after linking, "
      << stats.framework_wire_bytes / (1024 * 1024) << " MB on the wire";
  return stats;
}

Result<uint64_t> PairApp(FluxAgent& home, FluxAgent& guest,
                         const AppSpec& spec, Tracer* trace) {
  Device& h = home.device();
  Device& g = guest.device();
  if (!home.IsPairedWith(g.name())) {
    return FailedPrecondition("devices are not paired");
  }
  FLUX_TRACE_SPAN(pair_span, trace, trace_names::kSpanPairApp);
  const PackageInfo* info = h.package_manager().Find(spec.package);
  if (info == nullptr) {
    return NotFound("app not installed on home device: " + spec.package);
  }
  const std::string pair_root = FluxAgent::PairRoot(h.name());

  uint64_t wire = 0;
  SyncOptions options;
  options.compress = true;

  // APK.
  FLUX_ASSIGN_OR_RETURN(
      SyncStats apk_sync,
      SyncTree(h.filesystem(), info->apk_path, g.filesystem(),
               pair_root + "/data/app", options));
  wire += apk_sync.WireBytes();

  // App data directory.
  const std::string data_dir = "/data/data/" + spec.package;
  if (h.filesystem().Exists(data_dir)) {
    FLUX_ASSIGN_OR_RETURN(
        SyncStats data_sync,
        SyncTree(h.filesystem(), data_dir, g.filesystem(),
                 pair_root + data_dir, options));
    wire += data_sync.WireBytes();
  }

  // App-specific SD card directory only (not general SD contents, §3.4).
  const std::string sd_dir = "/sdcard/Android/data/" + spec.package;
  if (h.filesystem().Exists(sd_dir)) {
    FLUX_ASSIGN_OR_RETURN(
        SyncStats sd_sync,
        SyncTree(h.filesystem(), sd_dir, g.filesystem(), pair_root + sd_dir,
                 options));
    wire += sd_sync.WireBytes();
  }

  // Pseudo-install the wrapper (metadata only).
  PackageInfo wrapper = *info;
  wrapper.uid = -1;  // guest allocates its own
  wrapper.apk_path = pair_root + "/data/app/" +
                     info->apk_path.substr(info->apk_path.rfind('/') + 1);
  FLUX_RETURN_IF_ERROR(
      g.package_manager().PseudoInstall(std::move(wrapper), h.name()));

  TransferBetween(home, guest, wire, trace);
  FLUX_EVENT_DETAIL(&h.flight_recorder(), flight_events::kSubPairing,
                    flight_events::kPairingApp, EventSeverity::kInfo, wire, 0,
                    spec.package);
  return wire;
}

Result<uint64_t> VerifyPairedApk(FluxAgent& home, FluxAgent& guest,
                                 const AppSpec& spec, Tracer* trace) {
  Device& h = home.device();
  Device& g = guest.device();
  const PackageInfo* info = h.package_manager().Find(spec.package);
  if (info == nullptr) {
    return NotFound("app not installed on home device: " + spec.package);
  }
  FLUX_TRACE_SPAN(verify_span, trace, trace_names::kSpanVerifyApk);
  const std::string paired_apk =
      FluxAgent::PairRoot(h.name()) + "/data/app/" +
      info->apk_path.substr(info->apk_path.rfind('/') + 1);
  FLUX_ASSIGN_OR_RETURN(uint64_t home_hash,
                        h.filesystem().FileHash(info->apk_path));
  uint64_t wire = 64;  // hash exchange
  if (g.filesystem().IsFile(paired_apk)) {
    FLUX_ASSIGN_OR_RETURN(uint64_t guest_hash,
                          g.filesystem().FileHash(paired_apk));
    if (guest_hash == home_hash) {
      TransferBetween(home, guest, wire, trace);
      FLUX_EVENT_DETAIL(&h.flight_recorder(), flight_events::kSubPairing,
                        flight_events::kPairingVerifyApk,
                        EventSeverity::kInfo, wire, /*resynced=*/0,
                        spec.package);
      return wire;
    }
  }
  // The APK changed (app update): re-sync it.
  SyncOptions options;
  options.compress = true;
  FLUX_ASSIGN_OR_RETURN(
      SyncStats sync,
      SyncTree(h.filesystem(), info->apk_path, g.filesystem(),
               FluxAgent::PairRoot(h.name()) + "/data/app", options));
  wire += sync.WireBytes();
  TransferBetween(home, guest, wire, trace);
  FLUX_EVENT_DETAIL(&h.flight_recorder(), flight_events::kSubPairing,
                    flight_events::kPairingVerifyApk, EventSeverity::kInfo,
                    wire, /*resynced=*/1, spec.package);
  return wire;
}

}  // namespace flux
