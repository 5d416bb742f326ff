#include "src/base/compress.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
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
constexpr size_t kStreamHeaderBytes = 4 + 8;  // magic + raw size

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

// ----- the greedy parse -----

// Unaligned native-order loads: only equality, a hash and the first
// differing byte are ever read from them.
uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Hashes the four bytes at p to a bucket index below kHashBuckets.
uint32_t HashTriple(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> 16;
}

// Length of the common prefix of a and b, at most `max_len`; the first
// `known` bytes are already known to agree.
[[gnu::always_inline]] inline size_t MatchLength(const uint8_t* a,
                                                const uint8_t* b, size_t known,
                                                size_t max_len) {
  size_t len = known;
  while (len + 8 <= max_len) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
      } else {
        return len + static_cast<size_t>(std::countl_zero(diff)) / 8;
      }
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// One item of the parse: a literal (len 0) or a back-reference.
struct LzItem {
  size_t len = 0;
  size_t offset = 0;
};

// A parser's hash chains: head[h], the latest inserted position whose
// first four bytes hash to h, then prev[p % kWindowSize], the position
// before p in p's chain; -1 ends a chain. The entry type Pos is int32_t
// below 2 GiB, which halves the table, and int64_t above.
constexpr size_t kChainEntries = kHashBuckets + kWindowSize;

// The greedy parse, defined once for LzCompress and LzCompressedSize.
//
// Next(p) decides the item at parse point p: the longest match among the
// first kMaxChainProbes candidates of p's chain that lie inside the window
// (the most recent wins a tie), or a literal when none reaches kMinMatch.
// It then inserts the positions the item covers. A parse inserts every
// position it passes, so when p is searched the chains hold every position
// before p whatever the items were, and the search reads only entries
// inside p's window. The item at p is therefore a function of the bytes
// alone: a parser whose chains hold the kWindowSize positions before p
// decides p exactly as the serial parse does, wherever it started.
template <typename Pos>
class LzParser {
 public:
  // `chains` holds kChainEntries entries.
  LzParser(ByteSpan input, Pos* chains)
      : data_(input.data()),
        n_(input.size()),
        head_(chains),
        prev_(chains + kHashBuckets) {}

  // Empties every chain.
  void Reset() { std::fill(head_, head_ + kChainEntries, Pos{-1}); }

  // Inserts positions [begin, end). After a gap, entries left from before
  // it are older than the window of any later search, so they only end a
  // chain walk, as -1 does.
  void Insert(size_t begin, size_t end) {
    for (size_t p = begin; p < end && p + kMinMatch <= n_; ++p) {
      Link(p, HashTriple(data_ + p));
    }
  }

  [[gnu::always_inline]] LzItem Next(size_t pos) {
    LzItem best;
    if (pos + kMinMatch > n_) {
      return best;
    }
    const uint32_t h = HashTriple(data_ + pos);
    // A literal is followed by a search at pos + 1: start loading its chain
    // head while this chain is walked.
    if (pos + kMinMatch < n_) {
      __builtin_prefetch(head_ + HashTriple(data_ + pos + 1));
    }
    const uint8_t* here = data_ + pos;
    const uint32_t prefix = Load32(here);
    const size_t max_len = std::min(n_ - pos, kMaxMatch);
    Pos cand = head_[h];
    for (int probes = 0; cand >= 0 && probes < kMaxChainProbes; ++probes) {
      const size_t cpos = static_cast<size_t>(cand);
      if (pos - cpos >= kWindowSize) {
        break;
      }
      const uint8_t* there = data_ + cpos;
      // A candidate can only beat the best if its first four bytes agree
      // (a hash collision fails here) and it agrees at the best length.
      if (Load32(there) == prefix &&
          (best.len == 0 || there[best.len] == here[best.len])) {
        const size_t len = MatchLength(there, here, kMinMatch, max_len);
        if (len > best.len) {
          best = {len, pos - cpos};
          if (len == max_len) {
            break;  // nothing later can be longer
          }
        }
      }
      const Pos next = prev_[cpos % kWindowSize];
      // Chains can alias across window generations; guard monotonicity.
      if (next >= cand) {
        break;
      }
      cand = next;
    }
    Link(pos, h);
    if (best.len > 0) {
      Insert(pos + 1, pos + best.len);
    }
    return best;
  }

 private:
  void Link(size_t p, uint32_t h) {
    prev_[p % kWindowSize] = head_[h];
    head_[h] = static_cast<Pos>(p);
  }

  const uint8_t* data_;
  size_t n_;
  Pos* head_;
  Pos* prev_;
};

// Chains for `sets` parsers in one allocation, left uninitialized: each
// parser resets its own chains before use, on its own runner.
template <typename Pos>
class LzChainTables {
 public:
  explicit LzChainTables(size_t sets)
      : storage_(new Pos[sets * kChainEntries]) {}
  Pos* operator[](size_t i) const { return storage_.get() + i * kChainEntries; }

 private:
  std::unique_ptr<Pos[]> storage_;
};

// Runs fn with the chain entry type that holds every position of `input`.
template <typename Fn>
auto WithChainEntry(ByteSpan input, const Fn& fn) {
  if (input.size() < (size_t{1} << 31)) {
    return fn(int32_t{});
  }
  return fn(int64_t{});
}

template <typename Pos>
Bytes Compress(ByteSpan input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  PutU32(out, kMagic);
  PutU64(out, input.size());

  const uint8_t* data = input.data();
  const size_t n = input.size();
  LzChainTables<Pos> tables(1);
  LzParser<Pos> parser(input, tables[0]);
  parser.Reset();

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

  size_t literal_start = 0;
  for (size_t pos = 0; pos < n;) {
    const LzItem item = parser.Next(pos);
    if (item.len == 0) {
      ++pos;
      continue;
    }
    emit_literal_run(literal_start, pos - literal_start);
    open_group();
    flags |= static_cast<uint8_t>(1 << item_count);
    group[group_len++] = static_cast<uint8_t>(item.offset);
    group[group_len++] = static_cast<uint8_t>(item.offset >> 8);
    group[group_len++] = static_cast<uint8_t>(item.len - kMinMatch);
    ++item_count;
    if (item_count == 8) {
      flush_group();
    }
    pos += item.len;
    literal_start = pos;
  }
  emit_literal_run(literal_start, n - literal_start);
  flush_group();
  return out;
}

// ----- the stitched, segment-parallel size count -----

// The parse counted as L literals and M matches: FLZ1 spends one byte per
// literal, three per match and one flag byte per group of eight items
// (the 9-byte literal packs are such groups), after the 12-byte header.
uint64_t StreamSize(uint64_t literals, uint64_t matches) {
  return kStreamHeaderBytes + literals + 3 * matches +
         (literals + matches + 7) / 8;
}

// Counts the item at `pos` and returns the next parse point.
template <typename Pos>
[[gnu::always_inline]] inline size_t CountNext(LzParser<Pos>& parser,
                                               size_t pos, uint64_t& literals,
                                               uint64_t& matches) {
  const size_t len = parser.Next(pos).len;
  if (len == 0) {
    ++literals;
    return pos + 1;
  }
  ++matches;
  return pos + len;
}

// A parse point and the items a parse counted before it.
struct LzPoint {
  uint64_t pos;
  uint64_t literals;
  uint64_t matches;
};

// What a runner's parse of its segment left: where it exited (the first
// parse point at or past the segment's end), its counts, and how many of
// its points it recorded.
struct LzSegmentParse {
  uint64_t exit;
  uint64_t literals;
  uint64_t matches;
  uint64_t recorded;
};

// Parses [begin, end) from `begin` on chains rebuilt from the window
// before it, recording up to `capacity` points in `record`. The cursor and
// counters stay in locals until the parse ends.
template <typename Pos>
LzSegmentParse ParseSegment(ByteSpan input, Pos* chains, size_t begin,
                            size_t end, LzPoint* record, size_t capacity) {
  LzParser<Pos> parser(input, chains);
  parser.Reset();
  parser.Insert(begin - std::min(begin, kWindowSize), begin);
  uint64_t literals = 0;
  uint64_t matches = 0;
  size_t recorded = 0;
  size_t pos = begin;
  while (pos < end) {
    if (recorded < capacity) {
      record[recorded++] = {pos, literals, matches};
    }
    pos = CountNext(parser, pos, literals, matches);
  }
  return {pos, literals, matches, recorded};
}

// Counts the serial parse of `input` on `runners` runners of `pool`. Each
// runner parses one segment from its start as if a parse point were there,
// which it need not be. The caller then walks the true parse segment by
// segment: it enters each at the previous segment's exit, and from the
// first point the runner's parse also visited the two parses coincide (the
// item at a point depends only on the bytes), so the runner's counts from
// that point on are the serial parse's. Until they meet, the caller steps
// the true parse on its own chains.
template <typename Pos>
uint64_t CountSplit(ByteSpan input, ThreadPool* pool, size_t runners) {
  const size_t n = input.size();
  LzChainTables<Pos> tables(runners + 1);  // the last set is the stitcher's
  std::unique_ptr<LzPoint[]> records(
      new LzPoint[runners * kLzStitchRecordPoints]);
  std::vector<LzSegmentParse> segments(runners);
  auto bound = [&](size_t r) { return r * n / runners; };
  pool->ParallelForChunked(runners, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      segments[r] = ParseSegment(input, tables[r], bound(r), bound(r + 1),
                                 records.get() + r * kLzStitchRecordPoints,
                                 kLzStitchRecordPoints);
    }
  });

  LzParser<Pos> parser(input, tables[runners]);
  bool chains_reset = false;
  size_t inserted = 0;  // the stitcher's chains hold the window before this
  uint64_t literals = 0;
  uint64_t matches = 0;
  size_t pos = 0;
  for (size_t r = 0; r < runners; ++r) {
    const LzSegmentParse& segment = segments[r];
    const LzPoint* record = records.get() + r * kLzStitchRecordPoints;
    size_t i = 0;
    while (pos < bound(r + 1)) {
      while (i < segment.recorded && record[i].pos < pos) {
        ++i;
      }
      if (i < segment.recorded && record[i].pos == pos) {
        literals += segment.literals - record[i].literals;
        matches += segment.matches - record[i].matches;
        pos = segment.exit;
        break;
      }
      if (!chains_reset) {
        parser.Reset();
        chains_reset = true;
      }
      parser.Insert(std::max(inserted, pos - std::min(pos, kWindowSize)), pos);
      pos = CountNext(parser, pos, literals, matches);
      inserted = pos;
    }
  }
  return StreamSize(literals, matches);
}

}  // namespace

Bytes LzCompress(ByteSpan input) {
  return WithChainEntry(input, [&](auto entry) {
    return Compress<decltype(entry)>(input);
  });
}

namespace {

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

uint64_t LzCompressedSize(ByteSpan input, ThreadPool* pool) {
  const size_t runners =
      pool == nullptr ? 1 : static_cast<size_t>(pool->size()) + 1;
  return WithChainEntry(input, [&](auto entry) -> uint64_t {
    using Pos = decltype(entry);
    if (runners > 1 && input.size() >= kLzSplitMinBytes) {
      return CountSplit<Pos>(input, pool, runners);
    }
    LzChainTables<Pos> tables(1);
    const LzSegmentParse parse =
        ParseSegment(input, tables[0], 0, input.size(), nullptr, 0);
    return StreamSize(parse.literals, parse.matches);
  });
}

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
