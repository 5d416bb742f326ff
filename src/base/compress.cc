#include "src/base/compress.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/base/thread_pool.h"

namespace flux {

namespace {

constexpr uint32_t kMagic = 0x464C5A31;         // "FLZ1"
constexpr uint32_t kChunkMagic = 0x464C5A43;    // "FLZC" (v1)
constexpr uint32_t kChunkMagicV2 = 0x464C5A32;  // "FLZ2" (kind-tagged)

// v2 per-chunk prefix: kind in the top 2 bits, wire length in the low 30.
constexpr uint32_t kKindShift = 30;
constexpr uint32_t kLengthMask = (1u << kKindShift) - 1;
constexpr size_t kRefBytes = 16;
constexpr size_t kWindowSize = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 4 + 255;
constexpr size_t kHashBuckets = 1 << 16;
constexpr int kMaxChainProbes = 16;

uint32_t HashTriple(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> 16;
}

void PutU32(Bytes& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool GetU32(ByteSpan in, size_t& pos, uint32_t& v) {
  if (pos + 4 > in.size()) {
    return false;
  }
  v = static_cast<uint32_t>(in[pos]) | (static_cast<uint32_t>(in[pos + 1]) << 8) |
      (static_cast<uint32_t>(in[pos + 2]) << 16) |
      (static_cast<uint32_t>(in[pos + 3]) << 24);
  pos += 4;
  return true;
}

bool GetU64(ByteSpan in, size_t& pos, uint64_t& v) {
  if (pos + 8 > in.size()) {
    return false;
  }
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(in[pos + i]) << (8 * i);
  }
  pos += 8;
  return true;
}

}  // namespace

Bytes LzCompress(ByteSpan input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  PutU32(out, kMagic);
  PutU64(out, input.size());

  const uint8_t* data = input.data();
  const size_t n = input.size();

  // head[h] = most recent position with hash h; prev[i % window] = previous
  // position in the same chain.
  std::vector<int64_t> head(kHashBuckets, -1);
  std::vector<int64_t> prev(kWindowSize, -1);

  size_t pos = 0;
  size_t flag_index = 0;
  uint8_t flags = 0;
  int item_count = 0;
  // Items for the current flag byte; 8 items of at most 3 bytes each.
  uint8_t group[8 * 3];
  size_t group_len = 0;

  auto flush_group = [&]() {
    if (item_count == 0) {
      return;
    }
    out[flag_index] = flags;
    out.insert(out.end(), group, group + group_len);
    group_len = 0;
    flags = 0;
    item_count = 0;
  };

  auto open_group = [&]() {
    if (item_count == 0) {
      flag_index = out.size();
      out.push_back(0);  // placeholder for flags
    }
  };

  // Literals are batched: the scan loop only remembers where a pending
  // literal run started, and the run is emitted in bulk when a match (or
  // the end of input) terminates it. Runs aligned to a fresh group go out
  // as one 9-byte append (zero flag byte + 8 literals) instead of per-byte
  // push_back bookkeeping — the hot path on incompressible data.
  auto emit_literal_run = [&](size_t start, size_t count) {
    const uint8_t* src = data + start;
    while (count > 0) {
      if (item_count == 0 && count >= 8) {
        uint8_t packed[9];
        packed[0] = 0;  // eight literal items: all flag bits clear
        std::memcpy(packed + 1, src, 8);
        out.insert(out.end(), packed, packed + 9);
        src += 8;
        count -= 8;
        continue;
      }
      open_group();
      group[group_len++] = *src++;
      --count;
      ++item_count;
      if (item_count == 8) {
        flush_group();
      }
    }
  };

  auto insert_pos = [&](size_t p) {
    if (p + kMinMatch <= n && p + 4 <= n) {
      const uint32_t h = HashTriple(data + p) % kHashBuckets;
      prev[p % kWindowSize] = head[h];
      head[h] = static_cast<int64_t>(p);
    }
  };

  size_t literal_start = 0;
  while (pos < n) {
    size_t best_len = 0;
    size_t best_offset = 0;

    if (pos + kMinMatch <= n && pos + 4 <= n) {
      const uint32_t h = HashTriple(data + pos) % kHashBuckets;
      int64_t cand = head[h];
      int probes = 0;
      while (cand >= 0 && probes < kMaxChainProbes) {
        const size_t cpos = static_cast<size_t>(cand);
        if (pos - cpos > kWindowSize - 1) {
          break;
        }
        size_t len = 0;
        const size_t max_len =
            (n - pos) < kMaxMatch ? (n - pos) : kMaxMatch;
        while (len < max_len && data[cpos + len] == data[pos + len]) {
          ++len;
        }
        if (len >= kMinMatch && len > best_len) {
          best_len = len;
          best_offset = pos - cpos;
          if (len == kMaxMatch) {
            break;
          }
        }
        const int64_t next = prev[cpos % kWindowSize];
        // Chains can alias across window generations; guard monotonicity.
        if (next >= cand) {
          break;
        }
        cand = next;
        ++probes;
      }
    }

    if (best_len >= kMinMatch) {
      emit_literal_run(literal_start, pos - literal_start);
      open_group();
      flags |= static_cast<uint8_t>(1 << item_count);
      group[group_len++] = static_cast<uint8_t>(best_offset);
      group[group_len++] = static_cast<uint8_t>(best_offset >> 8);
      group[group_len++] = static_cast<uint8_t>(best_len - kMinMatch);
      ++item_count;
      if (item_count == 8) {
        flush_group();
      }
      for (size_t k = 0; k < best_len; ++k) {
        insert_pos(pos + k);
      }
      pos += best_len;
      literal_start = pos;
    } else {
      insert_pos(pos);
      ++pos;
    }
  }
  emit_literal_run(literal_start, n - literal_start);
  flush_group();
  return out;
}

namespace {

constexpr size_t kStreamHeaderBytes = 4 + 8;  // magic + raw size

// Checks an FLZ1 stream's header as LzDecompress does before it sizes
// anything, and returns the raw size the header claims.
Result<uint64_t> LzStreamRawSize(ByteSpan input) {
  size_t pos = 0;
  uint32_t magic = 0;
  uint64_t raw_size = 0;
  if (!GetU32(input, pos, magic) || magic != kMagic) {
    return Corrupt("LzDecompress: bad magic");
  }
  if (!GetU64(input, pos, raw_size)) {
    return Corrupt("LzDecompress: truncated header");
  }
  if (raw_size > (1ull << 36)) {
    return Corrupt("LzDecompress: implausible raw size");
  }
  // Every output byte comes from a literal (one body byte) or a match item
  // (three body bytes for at most kMaxMatch), so the body bounds the raw
  // size before anything is reserved for it.
  const uint64_t body = input.size() - pos;
  if (raw_size > body / 3 * kMaxMatch + body % 3) {
    return Corrupt("LzDecompress: raw size exceeds what the body encodes");
  }
  return raw_size;
}

// Decodes the body of a stream whose header LzStreamRawSize accepted into
// out[0, raw_size).
Status LzDecodeBody(ByteSpan input, uint8_t* out, uint64_t raw_size) {
  size_t pos = kStreamHeaderBytes;
  uint64_t written = 0;
  while (written < raw_size) {
    if (pos >= input.size()) {
      return Corrupt("LzDecompress: truncated stream");
    }
    const uint8_t flags = input[pos++];
    for (int i = 0; i < 8 && written < raw_size; ++i) {
      if (flags & (1 << i)) {
        if (pos + 3 > input.size()) {
          return Corrupt("LzDecompress: truncated match");
        }
        const size_t offset = static_cast<size_t>(input[pos]) |
                              (static_cast<size_t>(input[pos + 1]) << 8);
        const size_t len = kMinMatch + input[pos + 2];
        pos += 3;
        if (offset == 0 || offset > written) {
          return Corrupt("LzDecompress: bad match offset");
        }
        if (written + len > raw_size) {
          return Corrupt("LzDecompress: match overruns raw size");
        }
        uint8_t* dst = out + written;
        const uint8_t* src = dst - offset;
        if (offset >= len) {
          std::memcpy(dst, src, len);
        } else {
          // Overlapping match: each byte may copy one written just before.
          for (size_t k = 0; k < len; ++k) {
            dst[k] = src[k];
          }
        }
        written += len;
      } else {
        if (pos >= input.size()) {
          return Corrupt("LzDecompress: truncated literal");
        }
        out[written++] = input[pos++];
      }
    }
  }
  return OkStatus();
}

}  // namespace

Result<Bytes> LzDecompress(ByteSpan input) {
  FLUX_ASSIGN_OR_RETURN(const uint64_t raw_size, LzStreamRawSize(input));
  Bytes out(raw_size);
  FLUX_RETURN_IF_ERROR(LzDecodeBody(input, out.data(), raw_size));
  return out;
}

uint64_t LzCompressedSize(ByteSpan input) { return LzCompress(input).size(); }

// ----- chunked streams -----

namespace {

void PutHash128(Bytes& out, const Hash128& h) {
  PutU64(out, h.lo);
  PutU64(out, h.hi);
}

bool GetHash128(ByteSpan in, size_t& pos, Hash128& h) {
  return GetU64(in, pos, h.lo) && GetU64(in, pos, h.hi);
}

}  // namespace

bool LzChunkStreams::NeedsV2() const {
  for (const uint8_t kind : kinds) {
    if (kind != static_cast<uint8_t>(LzChunkKind::kLz)) {
      return true;
    }
  }
  return false;
}

LzChunkKind LzChunkStreams::KindOf(size_t i) const {
  return i < kinds.size() ? static_cast<LzChunkKind>(kinds[i])
                          : LzChunkKind::kLz;
}

uint64_t LzChunkStreams::HeaderBytes() const {
  // magic, raw size, chunk size, count; v2 adds the whole-input digest.
  return 4 + 8 + 4 + 4 + (NeedsV2() ? kRefBytes : 0);
}

uint64_t LzChunkStreams::ChunkWireBytes(size_t i) const {
  return 4 + chunks[i].size();
}

uint64_t LzChunkStreams::ContainerSize() const {
  uint64_t total = HeaderBytes();
  for (const Bytes& chunk : chunks) {
    total += 4 + chunk.size();
  }
  return total;
}

uint64_t LzChunkStreams::RawChunkSize(size_t i) const {
  const uint64_t begin = static_cast<uint64_t>(i) * chunk_size;
  if (begin >= raw_size) {
    return 0;
  }
  return std::min<uint64_t>(chunk_size, raw_size - begin);
}

LzChunkStreams LzCompressChunkStreams(ByteSpan input, uint32_t chunk_size,
                                      ThreadPool* pool) {
  return LzCompressChunkStreamsDeduped(input, chunk_size, pool, {});
}

LzChunkStreams LzCompressChunkStreamsDeduped(ByteSpan input,
                                             uint32_t chunk_size,
                                             ThreadPool* pool,
                                             const LzChunkDedupPlan& plan) {
  LzChunkStreams streams;
  streams.raw_size = input.size();
  streams.chunk_size = chunk_size == 0 ? 256 * 1024 : chunk_size;
  const size_t count =
      (input.size() + streams.chunk_size - 1) / streams.chunk_size;
  streams.chunks.resize(count);
  const bool any_ref = [&] {
    for (const uint8_t r : plan.ref_chunks) {
      if (r != 0) {
        return true;
      }
    }
    return false;
  }();
  if (any_ref || plan.stored_fallback) {
    streams.kinds.assign(count, static_cast<uint8_t>(LzChunkKind::kLz));
  }
  auto encode_chunk = [&](size_t i) {
    const size_t begin = i * static_cast<size_t>(streams.chunk_size);
    const size_t len =
        std::min<size_t>(streams.chunk_size, input.size() - begin);
    if (i < plan.ref_chunks.size() && plan.ref_chunks[i] != 0 &&
        i < plan.hashes.size()) {
      Bytes ref;
      ref.reserve(kRefBytes);
      PutHash128(ref, plan.hashes[i]);
      streams.chunks[i] = std::move(ref);
      streams.kinds[i] = static_cast<uint8_t>(LzChunkKind::kRef);
      return;
    }
    Bytes stream = LzCompress(input.subspan(begin, len));
    if (plan.stored_fallback && stream.size() >= len) {
      // The LZ framing expanded an incompressible chunk; ship it verbatim
      // so its wire cost is capped at raw + the 4-byte prefix.
      streams.chunks[i] = Bytes(input.data() + begin, input.data() + begin + len);
      streams.kinds[i] = static_cast<uint8_t>(LzChunkKind::kStored);
      return;
    }
    streams.chunks[i] = std::move(stream);
  };
  ForEachChunk(pool, count, encode_chunk);
  if (!plan.defer_digest && streams.NeedsV2()) {
    streams.content_hash = FluxHash128(input);
  }
  return streams;
}

std::vector<Hash128> LzChunkHashes(ByteSpan input, uint32_t chunk_size,
                                   ThreadPool* pool) {
  const uint32_t size = chunk_size == 0 ? 256 * 1024 : chunk_size;
  const size_t count = (input.size() + size - 1) / size;
  std::vector<Hash128> hashes(count);
  ForEachChunk(pool, count, [&](size_t i) {
    const size_t begin = i * static_cast<size_t>(size);
    const size_t len = std::min<size_t>(size, input.size() - begin);
    hashes[i] = FluxHash128(input.subspan(begin, len));
  });
  return hashes;
}

Bytes LzAssembleChunkContainer(const LzChunkStreams& streams) {
  Bytes out;
  out.reserve(streams.ContainerSize());
  // The const_cast is safe: release_chunks is off, so the streams are only
  // read.
  LzFrameChunkContainer(const_cast<LzChunkStreams&>(streams),
                        [&out](ByteSpan part) {
                          out.insert(out.end(), part.begin(), part.end());
                        });
  return out;
}

void LzFrameChunkContainer(LzChunkStreams& streams,
                           const std::function<void(ByteSpan)>& append,
                           bool release_chunks) {
  const bool v2 = streams.NeedsV2();
  Bytes header;
  header.reserve(streams.HeaderBytes());
  PutU32(header, v2 ? kChunkMagicV2 : kChunkMagic);
  PutU64(header, streams.raw_size);
  PutU32(header, streams.chunk_size);
  PutU32(header, static_cast<uint32_t>(streams.chunks.size()));
  if (v2) {
    PutHash128(header, streams.content_hash);
  }
  append(ByteSpan(header.data(), header.size()));
  for (size_t i = 0; i < streams.chunks.size(); ++i) {
    Bytes& chunk = streams.chunks[i];
    uint32_t word = static_cast<uint32_t>(chunk.size());
    if (v2) {
      word |= static_cast<uint32_t>(streams.KindOf(i)) << kKindShift;
    }
    Bytes prefix;
    PutU32(prefix, word);
    append(ByteSpan(prefix.data(), prefix.size()));
    append(ByteSpan(chunk.data(), chunk.size()));
    if (release_chunks) {
      Bytes().swap(chunk);
    }
  }
}

Bytes LzCompressChunks(ByteSpan input, uint32_t chunk_size, ThreadPool* pool) {
  return LzAssembleChunkContainer(
      LzCompressChunkStreams(input, chunk_size, pool));
}

bool LzIsChunkedStream(ByteSpan input) {
  size_t pos = 0;
  uint32_t magic = 0;
  return GetU32(input, pos, magic) &&
         (magic == kChunkMagic || magic == kChunkMagicV2);
}

Result<LzChunkContainerInfo> LzPeekChunkContainer(ByteSpan input) {
  size_t pos = 0;
  uint32_t magic = 0;
  LzChunkContainerInfo info;
  if (!GetU32(input, pos, magic) ||
      (magic != kChunkMagic && magic != kChunkMagicV2)) {
    return Corrupt("LzPeekChunkContainer: bad container magic");
  }
  info.v2 = magic == kChunkMagicV2;
  if (!GetU64(input, pos, info.raw_size) ||
      !GetU32(input, pos, info.chunk_size) ||
      !GetU32(input, pos, info.chunk_count)) {
    return Corrupt("LzPeekChunkContainer: truncated header");
  }
  return info;
}

Result<Bytes> LzDecompressChunks(ByteSpan input, LzChunkRefSource* refs,
                                 std::optional<Hash128>* digest,
                                 ThreadPool* pool,
                                 std::vector<Hash128>* chunk_keys) {
  if (digest != nullptr) {
    digest->reset();
  }
  if (chunk_keys != nullptr) {
    chunk_keys->clear();
  }
  FLUX_ASSIGN_OR_RETURN(LzChunkContainerInfo info,
                        LzPeekChunkContainer(input));
  size_t pos = 4 + 8 + 4 + 4;  // past magic + raw size + chunk size + count
  const uint64_t raw_size = info.raw_size;
  const uint32_t chunk_size = info.chunk_size;
  if (raw_size > (1ull << 36) || (raw_size > 0 && chunk_size == 0)) {
    return Corrupt("LzDecompressChunks: implausible header");
  }
  const uint64_t expected_count =
      chunk_size == 0 ? 0 : (raw_size + chunk_size - 1) / chunk_size;
  if (info.chunk_count != expected_count) {
    return Corrupt("LzDecompressChunks: chunk count mismatch");
  }
  Hash128 content_hash;
  if (info.v2 && !GetHash128(input, pos, content_hash)) {
    return Corrupt("LzDecompressChunks: truncated v2 header");
  }

  // The table pass: every check a chunk-by-chunk decode makes before it
  // needs a chunk's content, with no side effects. It ends at the first
  // chunk that must fail, or past the last one, and `stop` holds the Status
  // a decode that gets that far returns (OK only for a well-formed table).
  // Every chunk it keeps decodes to exactly its share of the raw size, a
  // stream's share bounded by its own body, so nothing is sized from the
  // untrusted header alone.
  struct Chunk {
    LzChunkKind kind;
    size_t pos;          // its wire bytes in `input`
    uint32_t wire_size;
    uint64_t raw_size;   // its share of the output
    size_t ref;          // kRef: its index in `ref_hashes`
  };
  std::vector<Chunk> chunks;
  // Each chunk takes at least its 4-byte prefix, whatever the count claims.
  chunks.reserve(std::min<size_t>(info.chunk_count, (input.size() - pos) / 4));
  std::vector<Hash128> ref_hashes;
  Status stop;
  for (uint32_t i = 0; i < info.chunk_count; ++i) {
    uint32_t word = 0;
    if (!GetU32(input, pos, word)) {
      stop = Corrupt("LzDecompressChunks: truncated chunk prefix");
      break;
    }
    Chunk chunk{};
    chunk.wire_size = info.v2 ? (word & kLengthMask) : word;
    chunk.kind = static_cast<LzChunkKind>(info.v2 ? word >> kKindShift : 0);
    chunk.pos = pos;
    if (pos + chunk.wire_size > input.size()) {
      stop = Corrupt("LzDecompressChunks: truncated chunk");
      break;
    }
    chunk.raw_size = std::min<uint64_t>(
        chunk_size, raw_size - uint64_t{i} * chunk_size);
    const ByteSpan wire = input.subspan(pos, chunk.wire_size);
    switch (chunk.kind) {
      case LzChunkKind::kLz: {
        Result<uint64_t> claimed = LzStreamRawSize(wire);
        if (!claimed.ok()) {
          stop = claimed.status();
        } else if (claimed.value() != chunk.raw_size) {
          // A stream of the wrong length fails either way; decoding it
          // (bounded by its own body) says which error comes first.
          Result<Bytes> raw = LzDecompress(wire);
          stop = raw.ok()
                     ? Corrupt("LzDecompressChunks: chunk raw size mismatch")
                     : raw.status();
        }
        break;
      }
      case LzChunkKind::kStored:
        if (chunk.wire_size != chunk.raw_size) {
          stop = Corrupt("LzDecompressChunks: stored chunk size mismatch");
        }
        break;
      case LzChunkKind::kRef: {
        if (chunk.wire_size != kRefBytes) {
          stop = Corrupt("LzDecompressChunks: malformed ref chunk");
        } else if (refs == nullptr) {
          stop = Corrupt("LzDecompressChunks: ref chunk without a resolver");
        } else {
          size_t ref_pos = pos;
          Hash128 ref;
          (void)GetHash128(input, ref_pos, ref);  // the 16 bytes are there
          chunk.ref = ref_hashes.size();
          ref_hashes.push_back(ref);
        }
        break;
      }
      default:
        stop = Corrupt("LzDecompressChunks: unknown chunk kind");
        break;
    }
    if (!stop.ok()) {
      break;
    }
    chunks.push_back(chunk);
    pos += chunk.wire_size;
  }
  if (stop.ok() && pos != input.size()) {
    stop = Corrupt("LzDecompressChunks: trailing bytes");
  }
  size_t stop_at = chunks.size();

  // Every ref the table holds, looked up at once; the first one missing or
  // of the wrong length is where the decode must fail at the latest.
  std::vector<std::optional<ByteSpan>> resolved;
  if (!ref_hashes.empty()) {
    resolved = refs->Lookup(ref_hashes, pool);
    for (size_t i = 0; i < chunks.size(); ++i) {
      const Chunk& chunk = chunks[i];
      if (chunk.kind != LzChunkKind::kRef) {
        continue;
      }
      const std::optional<ByteSpan>& content = resolved[chunk.ref];
      if (!content.has_value()) {
        stop = Corrupt("LzDecompressChunks: unresolvable ref chunk " +
                       ref_hashes[chunk.ref].ToHex());
      } else if (content->size() != chunk.raw_size) {
        stop = Corrupt("LzDecompressChunks: resolved chunk fails its hash");
      } else {
        continue;
      }
      stop_at = i;
      break;
    }
  }

  // The output holds exactly what chunks [0, stop_at) decode to (all but
  // the last chunk are full-size). Each runner decodes a contiguous range
  // and stops at its first failing chunk; the earliest failure overall is
  // the one a chunk-by-chunk decode reports.
  Bytes out(stop_at == info.chunk_count ? raw_size
                                        : uint64_t{stop_at} * chunk_size);
  std::vector<Hash128> keys(chunk_keys != nullptr ? stop_at : 0);
  std::mutex failure_mutex;
  size_t failed_at = stop_at;
  Status failure;
  auto decode_chunk = [&](size_t i) -> Status {
    const Chunk& chunk = chunks[i];
    uint8_t* slot = out.data() + i * static_cast<size_t>(chunk_size);
    const ByteSpan wire = input.subspan(chunk.pos, chunk.wire_size);
    const ByteSpan decoded(slot, chunk.raw_size);
    switch (chunk.kind) {
      case LzChunkKind::kLz:
        FLUX_RETURN_IF_ERROR(LzDecodeBody(wire, slot, chunk.raw_size));
        break;
      case LzChunkKind::kStored:
        std::memcpy(slot, wire.data(), chunk.raw_size);
        break;
      case LzChunkKind::kRef: {
        const Hash128& ref = ref_hashes[chunk.ref];
        std::memcpy(slot, resolved[chunk.ref]->data(), chunk.raw_size);
        if (FluxHash128(decoded) != ref) {
          return Corrupt("LzDecompressChunks: resolved chunk fails its hash");
        }
        if (!keys.empty()) {
          keys[i] = ref;
        }
        return OkStatus();
      }
    }
    if (!keys.empty()) {
      keys[i] = FluxHash128(decoded);
    }
    return OkStatus();
  };
  auto decode_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Status status = decode_chunk(i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        if (i < failed_at) {
          failed_at = i;
          failure = std::move(status);
        }
        return;
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunked(stop_at, decode_range);
  } else {
    decode_range(0, stop_at);
  }
  if (failed_at < stop_at) {
    stop_at = failed_at;
    stop = std::move(failure);
  }

  if (!ref_hashes.empty()) {
    // A chunk-by-chunk decode fetches every ref up to where it stops,
    // including a ref chunk that fails there (a table failure stops before
    // its chunk is fetched, and such a chunk is not in `chunks`).
    size_t fetched = 0;
    for (size_t i = 0; i < chunks.size() && i <= stop_at; ++i) {
      fetched += chunks[i].kind == LzChunkKind::kRef ? 1 : 0;
    }
    refs->Settle(fetched);
  }
  if (!stop.ok()) {
    return stop;
  }
  if (info.v2) {
    const Hash128 reassembled = FluxHash128(ByteSpan(out.data(), out.size()));
    if (reassembled != content_hash) {
      return Corrupt("LzDecompressChunks: reassembled image fails its digest");
    }
    if (digest != nullptr) {
      *digest = reassembled;
    }
  }
  if (chunk_keys != nullptr) {
    *chunk_keys = std::move(keys);
  }
  return out;
}

}  // namespace flux
