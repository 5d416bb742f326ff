// LZ77-style compression for checkpoint images and pairing deltas.
//
// The paper compresses the CRIU checkpoint image before transfer; migration
// time is dominated by the bytes that survive compression. We implement a
// small self-contained LZSS codec (64 KiB window, greedy hash-chain match
// finder) so compressed sizes are a real function of the checkpointed
// content rather than a fudge factor.
//
// Stream format:
//   [u32 magic][u64 raw_size] then repeated groups of
//   [flag byte][8 items], each item either a literal byte (flag bit 0) or a
//   match (flag bit 1): [u16 offset][u8 length-4].
//
// Chunked container (the pipelined-migration framing): the input is split
// into fixed-size chunks, each compressed as an independent FLZ1 stream so
// chunks compress in parallel and decompress in order. Two container
// versions share the framing:
//
//   FLZC (v1): [u32 chunk magic][u64 raw_size][u32 chunk_size]
//              [u32 chunk_count], then per chunk
//              [u32 compressed_size][FLZ1 stream].
//
//   FLZ2 (v2): same header plus a 16-byte whole-input FluxHash128, then per
//              chunk a kind-tagged u32 prefix (kind in the top 2 bits, byte
//              length in the low 30):
//                kLz     — an FLZ1 stream, as in v1;
//                kStored — the chunk's raw bytes verbatim (emitted when LZ
//                          output would be >= the raw size, capping chunk
//                          wire bytes at raw + 4);
//                kRef    — a 16-byte content hash referencing a chunk the
//                          receiver already holds in its ChunkCache.
//
// A v2 container is only produced when at least one chunk is stored or a
// ref; otherwise the encoder emits v1, byte-identical to what it always
// produced — cold migrations are unchanged on the wire.
//
// Decoding checks the whole chunk table before it sizes the output, then
// decodes every chunk on a worker pool straight into one buffer. Ref chunks
// resolve in one batch (LzChunkRefSource), so a cache verifies its entries
// in parallel yet keeps the bookkeeping of a serial lookup loop.
#ifndef FLUX_SRC_BASE_COMPRESS_H_
#define FLUX_SRC_BASE_COMPRESS_H_

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/hash.h"
#include "src/base/result.h"

namespace flux {

class ThreadPool;

// Compresses `input`. Output is never larger than input + small header +
// 1/8 overhead (worst case all-literals).
Bytes LzCompress(ByteSpan input);

// Decompresses a stream produced by LzCompress. Fails with kCorrupt on any
// malformed input.
Result<Bytes> LzDecompress(ByteSpan input);

// LzCompress(input).size(), counted without building the stream: the parse
// is LzCompress's, and only its literals L and matches M are counted, which
// fixes the size at 12 + L + 3M + ceil((L + M) / 8).
//
// With `pool`, an input of kLzSplitMinBytes or more is split into
// pool->size() + 1 segments, one per runner. Each runner rebuilds the hash
// chains from the 64 KiB before its segment, parses from the segment's
// start and records its first kLzStitchRecordPoints parse points. The
// caller then stitches the serial parse together: it enters each segment
// where the previous one exited and, from the first point the runner also
// visited, adds the runner's counts; until the two parses meet, or the
// segment ends, it steps the parse on its own chains. The match found at a
// point depends only on the bytes, so the size is identical with or
// without a pool, whatever its width.
uint64_t LzCompressedSize(ByteSpan input, ThreadPool* pool = nullptr);
// Smaller inputs are counted inline: for them the pool's wake-up and each
// runner's 64 KiB chain rebuild cost about what the split saves.
inline constexpr size_t kLzSplitMinBytes = size_t{128} << 10;
// Bounds each runner's record (and so the call's memory) whatever the
// input size; real content's parses meet within a few points.
inline constexpr size_t kLzStitchRecordPoints = 4096;

// ----- chunked streams (pipelined migration) -----

// How one chunk travels inside the container.
enum class LzChunkKind : uint8_t {
  kLz = 0,      // FLZ1 stream
  kStored = 1,  // raw bytes (incompressible chunk)
  kRef = 2,     // 16-byte content hash resolved from the receiver's cache
};

// One wire item per fixed-size chunk, kept separate so a payload writer
// can frame them without another concatenation copy.
struct LzChunkStreams {
  uint64_t raw_size = 0;
  uint32_t chunk_size = 0;
  // Whole-input digest; serialized (and verified) in v2 containers only.
  Hash128 content_hash;
  std::vector<Bytes> chunks;  // in input order: stream, raw bytes, or hash
  // Per-chunk kinds; empty means every chunk is kLz (v1 container).
  std::vector<uint8_t> kinds;

  // True if any chunk is stored or a ref — the container must be v2.
  bool NeedsV2() const;
  LzChunkKind KindOf(size_t i) const;
  // Container framing ahead of chunk 0 (v2 adds the 16-byte digest).
  uint64_t HeaderBytes() const;
  // Wire bytes of chunk `i` including its u32 prefix.
  uint64_t ChunkWireBytes(size_t i) const;
  // Container bytes once framed (header + per-chunk prefixed items).
  uint64_t ContainerSize() const;
  // Raw bytes covered by chunk `i` (the tail chunk may be short).
  uint64_t RawChunkSize(size_t i) const;
};

// Splits `input` into `chunk_size`-byte chunks and compresses each as an
// independent FLZ1 stream — on `pool` when given (wall-clock parallel),
// inline otherwise. Chunk independence costs a little ratio (the match
// window cannot reach across a chunk boundary) but buys parallelism and
// per-chunk pipelining. Always yields a v1 container (all chunks kLz).
LzChunkStreams LzCompressChunkStreams(ByteSpan input, uint32_t chunk_size,
                                      ThreadPool* pool = nullptr);

// Delta-transfer plan for the dedup-aware encoder.
struct LzChunkDedupPlan {
  // Emit incompressible chunks verbatim instead of letting the LZ framing
  // expand them past their raw size.
  bool stored_fallback = false;
  // Per-chunk raw-content hashes (LzChunkHashes order); required when any
  // ref_chunks entry is set — a ref chunk ships hashes[i] instead of its
  // content.
  std::vector<Hash128> hashes;
  // ref_chunks[i] != 0 => the receiver holds chunk i; ship a 16-byte ref.
  std::vector<uint8_t> ref_chunks;
  // Leaves the whole-input digest to the caller, who sets
  // streams.content_hash before framing a v2 container: a caller that
  // already holds the digest does not hash the input twice, and streams
  // that may never ship (a pre-copy round's) skip it. The caller vouches
  // that it is the input's digest, as ChunkCache::Insert's caller vouches
  // for a key.
  bool defer_digest = false;
};

// Dedup-aware variant: ref chunks skip compression entirely and serialize
// their 16-byte hash; the rest compress (in parallel on `pool`) with the
// optional stored fallback. With an empty plan this is exactly
// LzCompressChunkStreams.
LzChunkStreams LzCompressChunkStreamsDeduped(ByteSpan input,
                                             uint32_t chunk_size,
                                             ThreadPool* pool,
                                             const LzChunkDedupPlan& plan);

// FluxHash128 of each `chunk_size`-byte slice of `input`, in order. With
// `pool`, the slices are hashed across its workers on the same static split
// the compressor uses; the result is identical either way.
std::vector<Hash128> LzChunkHashes(ByteSpan input, uint32_t chunk_size,
                                   ThreadPool* pool = nullptr);

// Frames chunk streams into one contiguous container.
Bytes LzAssembleChunkContainer(const LzChunkStreams& streams);

// Streams the same framing through `append` piecewise, for writers that
// build the container inside a larger payload without staging it first.
// With `release_chunks`, each chunk buffer is freed as soon as it is
// framed, keeping peak assembly memory at ~1x the container size.
void LzFrameChunkContainer(LzChunkStreams& streams,
                           const std::function<void(ByteSpan)>& append,
                           bool release_chunks = false);

// Convenience: compress + frame in one call.
Bytes LzCompressChunks(ByteSpan input, uint32_t chunk_size,
                       ThreadPool* pool = nullptr);

// True if `input` starts with either chunked-container magic.
bool LzIsChunkedStream(ByteSpan input);

// Container header fields without decoding any chunk.
struct LzChunkContainerInfo {
  uint64_t raw_size = 0;
  uint32_t chunk_size = 0;
  uint32_t chunk_count = 0;
  bool v2 = false;
};
Result<LzChunkContainerInfo> LzPeekChunkContainer(ByteSpan input);

// Where a v2 container's ref chunks come from. Resolution takes two calls
// so the content can be verified and copied on a worker pool while the
// source's own bookkeeping (a cache's hits, misses, drops and recency)
// still ends as a serial loop of lookups would leave it.
class LzChunkRefSource {
 public:
  LzChunkRefSource() = default;
  LzChunkRefSource(const LzChunkRefSource&) = delete;
  LzChunkRefSource& operator=(const LzChunkRefSource&) = delete;
  virtual ~LzChunkRefSource() = default;
  // Looks up every ref, listed in chunk order, changing nothing the source
  // reports; any verification may run on `pool` (inline when null). Entry i
  // views content the source vouches hashes to refs[i], or is empty when
  // that content is unavailable (unknown, or it failed the source's own
  // check). The views stay valid until Settle returns.
  virtual std::vector<std::optional<ByteSpan>> Lookup(
      std::span<const Hash128> refs, ThreadPool* pool) = 0;
  // Applies, in order, what serial lookups of the first `n` refs would
  // have done: the decoder passes how many refs a chunk-by-chunk decode
  // fetches before it stops (all of them on success).
  virtual void Settle(size_t n) = 0;
};

// Decompresses a container produced by LzCompressChunks /
// LzAssembleChunkContainer; fails with kCorrupt on malformed input. A first
// pass with no side effects checks the chunk table and every stream header
// before anything is sized, so a lying header is rejected without a large
// reservation. The chunks then decode on `pool` (inline when null) into one
// pre-sized buffer. Output and Status are the same either way, and equal
// those of a chunk-by-chunk decode that stops at its first failing chunk.
// A v2 container containing ref chunks requires `refs`: every ref is looked
// up in one batch, every resolved chunk is checked against its ref hash,
// and the source settles exactly the lookups a chunk-by-chunk decode would
// have made. After reassembly the whole-input digest is recomputed from the
// output and checked against the header. On success `digest`, when given,
// receives that digest (it stays empty for a v1 container, which carries
// none, and on any failure), and `chunk_keys`, when given, receives each
// chunk's FluxHash128: the ref of a ref chunk, and for every other chunk a
// hash of its decoded bytes taken on `pool`.
Result<Bytes> LzDecompressChunks(ByteSpan input,
                                 LzChunkRefSource* refs = nullptr,
                                 std::optional<Hash128>* digest = nullptr,
                                 ThreadPool* pool = nullptr,
                                 std::vector<Hash128>* chunk_keys = nullptr);

}  // namespace flux

#endif  // FLUX_SRC_BASE_COMPRESS_H_
