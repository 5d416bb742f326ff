// Tests for the LZ codec and the tagged archive, including parameterized
// round-trip sweeps and corruption handling (checkpoint images must fail
// loudly, never misread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/base/archive.h"
#include "src/base/compress.h"
#include "src/base/rng.h"
#include "src/base/synthetic_content.h"
#include "src/base/thread_pool.h"

namespace flux {
namespace {

// ----- LZ codec -----

TEST(CompressTest, EmptyInput) {
  Bytes compressed = LzCompress({});
  auto raw = LzDecompress(ByteSpan(compressed.data(), compressed.size()));
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->empty());
}

TEST(CompressTest, OneByte) {
  Bytes input = {0x42};
  Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  auto raw = LzDecompress(ByteSpan(compressed.data(), compressed.size()));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, input);
}

TEST(CompressTest, HighlyRepetitiveShrinksALot) {
  Bytes input(100000, 0xAA);
  Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  EXPECT_LT(compressed.size(), input.size() / 20);
  auto raw = LzDecompress(ByteSpan(compressed.data(), compressed.size()));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, input);
}

TEST(CompressTest, RandomDataDoesNotExplode) {
  Bytes input = GenerateContent(3, 100000, 0.0);
  Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  // Worst case: header + 1/8 flag overhead.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 7 + 32);
  auto raw = LzDecompress(ByteSpan(compressed.data(), compressed.size()));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, input);
}

TEST(CompressTest, BadMagicRejected) {
  Bytes bogus = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  auto raw = LzDecompress(ByteSpan(bogus.data(), bogus.size()));
  EXPECT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
}

TEST(CompressTest, TruncatedStreamRejected) {
  Bytes input = GenerateContent(4, 50000, 0.5);
  Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  for (size_t cut : {compressed.size() / 2, compressed.size() - 1,
                     static_cast<size_t>(13)}) {
    auto raw = LzDecompress(ByteSpan(compressed.data(), cut));
    EXPECT_FALSE(raw.ok()) << "cut at " << cut;
  }
}

TEST(CompressTest, CorruptedBodyFailsOrMismatches) {
  Bytes input = GenerateContent(5, 20000, 0.7);
  Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  // Flip a byte in the body (past the 12-byte header).
  Bytes tampered = compressed;
  tampered[tampered.size() / 2] ^= 0xFF;
  auto raw = LzDecompress(ByteSpan(tampered.data(), tampered.size()));
  if (raw.ok()) {
    EXPECT_NE(*raw, input);  // silent success must at least differ
  }
}

// Overwrites the little-endian integer of `width` bytes at `offset`.
void PokeLe(Bytes& data, size_t offset, uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    data[offset + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
  }
}

TEST(CompressTest, RawSizeTheBodyCannotEncodeRejected) {
  // A 12-byte FLZ1 stream (magic + raw size, no body) claiming 2^36 raw
  // bytes: the header is untrusted, so this is corrupt input, not a
  // 64 GiB allocation.
  Bytes stream = LzCompress({});
  ASSERT_EQ(stream.size(), 12u);
  PokeLe(stream, 4, 1ull << 36, 8);
  auto raw = LzDecompress(ByteSpan(stream.data(), stream.size()));
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
}

struct NamedInput {
  std::string name;
  Bytes bytes;
};

// Bytes repeating a random `period`-byte motif, with `flips` single-bit
// flips at random positions.
Bytes PeriodicWithFlips(uint64_t seed, size_t size, size_t period,
                        int flips) {
  Rng rng(seed);
  Bytes motif(period);
  for (uint8_t& b : motif) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  Bytes out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = motif[i % period];
  }
  for (int k = 0; k < flips; ++k) {
    out[rng.NextBelow(size)] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
  }
  return out;
}

// GenerateContent at four compressibilities and five sizes (around the
// 4-byte minimum match and one past the 64 KiB window), a 3-symbol
// alphabet whose hash chains run past the 16-probe cap, and periods 1, 7
// and 259 (one past the longest match) with flipped bits.
std::vector<NamedInput> PinnedInputs() {
  std::vector<NamedInput> inputs;
  uint64_t seed = 100;
  for (const double compressibility : {0.0, 0.25, 0.6, 1.0}) {
    for (const uint64_t size : {0, 3, 4, 65537, 1 << 20}) {
      inputs.push_back({"compressibility " + std::to_string(compressibility) +
                            ", " + std::to_string(size) + " B",
                        GenerateContent(seed++, size, compressibility)});
    }
  }
  Rng rng(7);
  Bytes abc(300000);
  for (uint8_t& b : abc) {
    b = static_cast<uint8_t>('a' + rng.NextBelow(3));
  }
  inputs.push_back({"3-symbol alphabet", std::move(abc)});
  for (const size_t period : {1, 7, 259}) {
    inputs.push_back({"period " + std::to_string(period),
                      PeriodicWithFlips(period, 200000, period, 40)});
  }
  return inputs;
}

TEST(CompressTest, OutputBytesArePinned) {
  // Size and FluxHash128 of each pinned input's stream, recorded from the
  // codec before its parse was shared with LzCompressedSize: any change to
  // the parse or the framing moves one of them.
  struct Pinned {
    size_t size;
    uint64_t lo;
    uint64_t hi;
  };
  const Pinned kPinned[] = {
      {12, 0x823e329508be8cf3ull, 0x1ecb566ad6eb64e8ull},  // 0, 0 B
      {16, 0xa71fb5c410be811full, 0x3d8d6404cc4049eeull},  // 0, 3 B
      {17, 0x0b4c7a13595e4a13ull, 0x95225b86d8dfd5f1ull},  // 0, 4 B
      {73742, 0x2863282160b058ebull, 0x71322464b5031147ull},  // 0, 65537 B
      {1179638, 0x05a31e0f44db65b4ull, 0xfb29235a9990f344ull},  // 0, 1048576 B
      {12, 0x823e329508be8cf3ull, 0x1ecb566ad6eb64e8ull},  // 0.25, 0 B
      {16, 0x832301c32c121287ull, 0x0982265099604aa0ull},  // 0.25, 3 B
      {17, 0x687df7809f20548bull, 0xaeb17ab0e06e081bull},  // 0.25, 4 B
      {56711, 0x6cdf73b5a2928ac2ull, 0x6d41057312c93b3aull},  // 0.25, 65537 B
      {898748, 0xd19962758f97eab9ull, 0x8aff924dd662f053ull},  // 0.25, 1048576 B
      {12, 0x823e329508be8cf3ull, 0x1ecb566ad6eb64e8ull},  // 0.6, 0 B
      {16, 0x721dd615dcbcb114ull, 0x1922450e9d9f507cull},  // 0.6, 3 B
      {17, 0x477b24d868f86824ull, 0xdeb50110286720cdull},  // 0.6, 4 B
      {30564, 0x17bab25e72892eb0ull, 0xd605cfe51d274302ull},  // 0.6, 65537 B
      {490387, 0xaa38f465d50acf41ull, 0x871f186cf84cb7daull},  // 0.6, 1048576 B
      {12, 0x823e329508be8cf3ull, 0x1ecb566ad6eb64e8ull},  // 1, 0 B
      {16, 0x151b414627d1860cull, 0x81d8acf048841c77ull},  // 1, 3 B
      {17, 0x37596dabc29ce468ull, 0x07ab4c86ff8591abull},  // 1, 4 B
      {3417, 0x9b759b19af5f9efeull, 0xd47a39efded9e883ull},  // 1, 65537 B
      {55527, 0x4c915a57fcbe7960ull, 0xa4318991c90df630ull},  // 1, 1048576 B
      {142766, 0x2cd0241dc1c3e76full, 0x9cd4214856f8ad10ull},  // 3-symbol alphabet
      {2547, 0xd886c9326298111aull, 0xf18c7a7e9939b9e7ull},  // period 1
      {2595, 0x4f8d1bf33bb014deull, 0xd70b51afd0d8f2e7ull},  // period 7
      {2821, 0xd5aa900785c53538ull, 0x401e292101137b9aull},  // period 259
  };
  const std::vector<NamedInput> inputs = PinnedInputs();
  ASSERT_EQ(inputs.size(), std::size(kPinned));
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Bytes& input = inputs[i].bytes;
    const Bytes out = LzCompress(ByteSpan(input.data(), input.size()));
    const Hash128 digest = FluxHash128(ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out.size(), kPinned[i].size) << inputs[i].name;
    EXPECT_EQ(digest.lo, kPinned[i].lo) << inputs[i].name;
    EXPECT_EQ(digest.hi, kPinned[i].hi) << inputs[i].name;
  }
}

// Overwrites [begin, end) of `bytes` with a run: zeros, or a random
// 259-byte motif (one longer than the longest match).
void PutRun(Bytes& bytes, size_t begin, size_t end, bool zeros) {
  const Bytes motif = PeriodicWithFlips(begin, 259, 259, 0);
  for (size_t i = begin; i < end && i < bytes.size(); ++i) {
    bytes[i] = zeros ? 0 : motif[(i - begin) % 259];
  }
}

TEST(CompressTest, PooledSizeMatchesCompress) {
  std::vector<NamedInput> inputs = PinnedInputs();
  for (const size_t size : {kLzSplitMinBytes - 1, kLzSplitMinBytes + 1}) {
    inputs.push_back({"split threshold n=" + std::to_string(size),
                      GenerateContent(size, size, 0.25)});
  }
  const std::vector<int> widths = {1, 2, 4, 7};
  // For each width, runs straddling every boundary of its segments, at a
  // different phase per boundary, so that runner parses start out of step
  // with the serial one.
  for (const int width : widths) {
    const size_t runners = static_cast<size_t>(width > 1 ? width : 0) + 1;
    const size_t n = 2 * kLzSplitMinBytes + 12345;
    for (const bool zeros : {true, false}) {
      Bytes bytes = GenerateContent(width, n, 0.25);
      for (size_t r = 1; r < runners; ++r) {
        const size_t boundary = r * n / runners;
        PutRun(bytes, boundary - 700 - 37 * r, boundary + 1500, zeros);
      }
      inputs.push_back({(zeros ? "zero runs, width " : "period-259 runs, width ") +
                            std::to_string(width),
                        std::move(bytes)});
    }
  }
  // A zero run longer than a whole segment at every split width, and longer
  // than the stitcher's record of a runner's parse points: where the stitch
  // enters out of step, it walks past the record to the segment's end.
  {
    // A zero run's parse takes 259-byte steps, so this many bytes of it
    // fill a runner's record.
    const size_t record_span = 259 * kLzStitchRecordPoints;
    const size_t n = 10 * record_span;
    Bytes bytes = GenerateContent(8, n, 0.25);
    PutRun(bytes, n / 16 + 100, n / 16 + 100 + 4 * record_span, true);
    inputs.push_back({"zero run past the record", std::move(bytes)});
  }

  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const int width : widths) {
    pools.push_back(std::make_unique<ThreadPool>(width));
  }
  for (const NamedInput& input : inputs) {
    const ByteSpan span(input.bytes.data(), input.bytes.size());
    const uint64_t expected = LzCompress(span).size();
    EXPECT_EQ(LzCompressedSize(span), expected) << input.name;
    for (size_t w = 0; w < widths.size(); ++w) {
      EXPECT_EQ(LzCompressedSize(span, pools[w].get()), expected)
          << input.name << " on a pool of width " << widths[w];
    }
  }
}

// Property sweep: round-trip across sizes and compressibilities.
class CompressRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CompressRoundTrip, LosslessAndBounded) {
  const auto [size, compressibility] = GetParam();
  Bytes input = GenerateContent(static_cast<uint64_t>(size) * 7919,
                                static_cast<uint64_t>(size),
                                compressibility);
  Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  auto raw = LzDecompress(ByteSpan(compressed.data(), compressed.size()));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(*raw, input);
  if (compressibility >= 0.8 && size >= 4096) {
    EXPECT_LT(compressed.size(), input.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 7, 255, 4096, 65537, 300000),
                       ::testing::Values(0.0, 0.3, 0.5, 0.8, 1.0)));

// ----- chunked streams -----

TEST(ChunkedCompressTest, RoundTripByteIdentical) {
  for (const size_t size : {size_t{0}, size_t{1}, size_t{1000},
                            size_t{64 * 1024}, size_t{64 * 1024 + 1},
                            size_t{300000}}) {
    const Bytes input = GenerateContent(21 + size, size, 0.5);
    const Bytes container =
        LzCompressChunks(ByteSpan(input.data(), input.size()), 64 * 1024);
    ASSERT_TRUE(LzIsChunkedStream(ByteSpan(container.data(),
                                           container.size())) ||
                size == 0)
        << size;
    // A v1 container carries no digest, so none is reported.
    std::optional<Hash128> digest = Hash128{};
    auto raw = LzDecompressChunks(
        ByteSpan(container.data(), container.size()), nullptr, &digest);
    ASSERT_TRUE(raw.ok()) << "size " << size << ": "
                          << raw.status().ToString();
    EXPECT_EQ(*raw, input) << size;
    EXPECT_FALSE(digest.has_value()) << size;
  }
}

TEST(ChunkedCompressTest, ParallelMatchesSerialBitForBit) {
  const Bytes input = GenerateContent(33, 1 << 20, 0.55);
  const Bytes serial =
      LzCompressChunks(ByteSpan(input.data(), input.size()), 128 * 1024);
  ThreadPool pool(4);
  const Bytes parallel = LzCompressChunks(
      ByteSpan(input.data(), input.size()), 128 * 1024, &pool);
  EXPECT_EQ(serial, parallel);
  auto raw = LzDecompressChunks(ByteSpan(parallel.data(), parallel.size()));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, input);

  // Chunk hashes on the pool equal the inline ones, in order: empty input,
  // one short chunk, an exact multiple of the chunk size, a short tail.
  constexpr uint32_t kChunk = 64 * 1024;
  for (const size_t size :
       {size_t{0}, size_t{1000}, size_t{4 * kChunk}, size_t{4 * kChunk + 100}}) {
    const ByteSpan span(input.data(), size);
    const std::vector<Hash128> inline_hashes = LzChunkHashes(span, kChunk);
    EXPECT_EQ(inline_hashes.size(), (size + kChunk - 1) / kChunk) << size;
    EXPECT_EQ(LzChunkHashes(span, kChunk, &pool), inline_hashes) << size;
  }
}

TEST(ChunkedCompressTest, StreamedFramingMatchesAssembled) {
  const Bytes input = GenerateContent(35, 500000, 0.4);
  LzChunkStreams streams =
      LzCompressChunkStreams(ByteSpan(input.data(), input.size()), 64 * 1024);
  const Bytes assembled = LzAssembleChunkContainer(streams);
  EXPECT_EQ(assembled.size(), streams.ContainerSize());
  Bytes streamed;
  LzFrameChunkContainer(
      streams,
      [&streamed](ByteSpan part) {
        streamed.insert(streamed.end(), part.begin(), part.end());
      },
      /*release_chunks=*/true);
  EXPECT_EQ(streamed, assembled);
  for (const Bytes& chunk : streams.chunks) {
    EXPECT_TRUE(chunk.empty());  // released as framed
  }
}

TEST(ChunkedCompressTest, PlainStreamNotMistakenForChunked) {
  const Bytes input = GenerateContent(37, 10000, 0.5);
  const Bytes plain = LzCompress(ByteSpan(input.data(), input.size()));
  EXPECT_FALSE(LzIsChunkedStream(ByteSpan(plain.data(), plain.size())));
}

TEST(ChunkedCompressTest, CorruptContainerRejected) {
  const Bytes input = GenerateContent(39, 200000, 0.5);
  Bytes container =
      LzCompressChunks(ByteSpan(input.data(), input.size()), 64 * 1024);
  // Truncations at the header, mid-framing, and mid-chunk.
  for (const size_t cut :
       {size_t{3}, size_t{12}, size_t{19}, container.size() / 2,
        container.size() - 1}) {
    auto raw = LzDecompressChunks(ByteSpan(container.data(), cut));
    EXPECT_FALSE(raw.ok()) << "cut at " << cut;
  }
  // A lying chunk count.
  Bytes tampered = container;
  tampered[16] ^= 0x01;
  auto raw = LzDecompressChunks(ByteSpan(tampered.data(), tampered.size()));
  EXPECT_FALSE(raw.ok());
}

TEST(ChunkedCompressTest, HugeClaimedRawSizeRejectedWithoutReserving) {
  // A 20-byte FLZC header claiming 2^36 raw bytes in 17 chunks of
  // 2^32 - 1 bytes (a consistent chunk count) and carrying no chunks.
  Bytes container = LzCompressChunks({}, 64 * 1024);
  ASSERT_EQ(container.size(), 20u);
  PokeLe(container, 4, 1ull << 36, 8);
  PokeLe(container, 12, 0xFFFFFFFFu, 4);
  PokeLe(container, 16, 17, 4);
  auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()));
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
}

// ----- FluxHash128 -----

TEST(HashTest, DeterministicAndSeedSensitive) {
  const Bytes input = GenerateContent(101, 100000, 0.5);
  const ByteSpan span(input.data(), input.size());
  EXPECT_EQ(FluxHash128(span), FluxHash128(span));
  EXPECT_NE(FluxHash128(span), FluxHash128(span, /*seed=*/1));
  EXPECT_EQ(FluxHash128(span).ToHex().size(), 32u);
}

TEST(HashTest, SingleBitFlipChangesDigest) {
  Bytes input = GenerateContent(103, 4096, 0.8);
  const Hash128 before = FluxHash128(ByteSpan(input.data(), input.size()));
  input[input.size() / 2] ^= 0x01;
  EXPECT_NE(before, FluxHash128(ByteSpan(input.data(), input.size())));
}

TEST(HashTest, EveryTailLengthDistinct) {
  // Lengths 0..40 cover the empty case, sub-16-byte tails, and multi-step
  // inputs; identical prefixes of different lengths must not collide.
  Bytes input(41, 0x5C);
  std::vector<Hash128> seen;
  for (size_t len = 0; len <= input.size(); ++len) {
    const Hash128 digest = FluxHash128(ByteSpan(input.data(), len));
    for (const Hash128& prior : seen) {
      EXPECT_NE(digest, prior) << "length " << len;
    }
    seen.push_back(digest);
  }
}

// ----- dedup-aware container (FLZ2) -----

TEST(DedupCompressTest, EmptyPlanMatchesPlainEncoderBitForBit) {
  const Bytes input = GenerateContent(51, 400000, 0.5);
  const ByteSpan span(input.data(), input.size());
  LzChunkStreams plain = LzCompressChunkStreams(span, 64 * 1024);
  LzChunkStreams deduped =
      LzCompressChunkStreamsDeduped(span, 64 * 1024, nullptr, {});
  EXPECT_EQ(LzAssembleChunkContainer(plain),
            LzAssembleChunkContainer(deduped));
}

TEST(DedupCompressTest, StoredFallbackCapsIncompressibleChunks) {
  // Pure random input: every LZ stream would exceed its raw chunk, so the
  // fallback must store each chunk verbatim and cap wire bytes.
  const Bytes input = GenerateContent(53, 300000, 0.0);
  const ByteSpan span(input.data(), input.size());
  LzChunkDedupPlan plan;
  plan.stored_fallback = true;
  LzChunkStreams streams =
      LzCompressChunkStreamsDeduped(span, 64 * 1024, nullptr, plan);
  ASSERT_TRUE(streams.NeedsV2());
  size_t stored = 0;
  for (size_t i = 0; i < streams.chunks.size(); ++i) {
    EXPECT_LE(streams.ChunkWireBytes(i), streams.RawChunkSize(i) + 4) << i;
    if (streams.KindOf(i) == LzChunkKind::kStored) {
      ++stored;
    }
  }
  EXPECT_GT(stored, 0u);
  const Bytes container = LzAssembleChunkContainer(streams);
  EXPECT_TRUE(LzIsChunkedStream(ByteSpan(container.data(), container.size())));
  auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(*raw, input);
}

TEST(DedupCompressTest, StoredFallbackOnCompressibleInputStaysV1) {
  // The fallback is armed but never needed: the container must stay v1,
  // bit-identical to the plain encoder's output.
  const Bytes input = GenerateContent(55, 300000, 0.9);
  const ByteSpan span(input.data(), input.size());
  LzChunkDedupPlan plan;
  plan.stored_fallback = true;
  LzChunkStreams streams =
      LzCompressChunkStreamsDeduped(span, 64 * 1024, nullptr, plan);
  EXPECT_FALSE(streams.NeedsV2());
  EXPECT_EQ(LzAssembleChunkContainer(streams),
            LzCompressChunks(span, 64 * 1024));
}

// A ref source backed by the input itself, as the guest's ChunkCache would
// be after an earlier hop. It records how many lookups the decoder settled.
class InputRefSource : public LzChunkRefSource {
 public:
  InputRefSource(const Bytes& input, uint32_t chunk_size) {
    const std::vector<Hash128> hashes =
        LzChunkHashes(ByteSpan(input.data(), input.size()), chunk_size);
    for (size_t i = 0; i < hashes.size(); ++i) {
      const uint64_t begin = uint64_t{i} * chunk_size;
      const uint64_t len =
          std::min<uint64_t>(chunk_size, input.size() - begin);
      store_[hashes[i]] =
          Bytes(input.begin() + begin, input.begin() + begin + len);
    }
  }

  std::vector<std::optional<ByteSpan>> Lookup(std::span<const Hash128> refs,
                                              ThreadPool*) override {
    std::vector<std::optional<ByteSpan>> found;
    for (const Hash128& ref : refs) {
      auto it = store_.find(ref);
      found.push_back(it == store_.end()
                          ? std::nullopt
                          : std::optional<ByteSpan>(ByteSpan(
                                it->second.data(), it->second.size())));
    }
    looked_up_ = refs.size();
    return found;
  }
  void Settle(size_t n) override { settled_ = n; }

  void Forget(const Hash128& hash) { store_.erase(hash); }
  size_t looked_up() const { return looked_up_; }
  size_t settled() const { return settled_; }

 private:
  std::unordered_map<Hash128, Bytes, Hash128Hasher> store_;
  size_t looked_up_ = 0;
  size_t settled_ = 0;
};

TEST(DedupCompressTest, RefChunksRoundTripThroughResolver) {
  constexpr uint32_t kChunk = 64 * 1024;
  const Bytes input = GenerateContent(57, 500000, 0.5);
  const ByteSpan span(input.data(), input.size());
  LzChunkDedupPlan plan;
  plan.stored_fallback = true;
  plan.hashes = LzChunkHashes(span, kChunk);
  plan.ref_chunks.assign(plan.hashes.size(), 0);
  for (size_t i = 0; i < plan.ref_chunks.size(); i += 2) {
    plan.ref_chunks[i] = 1;  // the receiver "already holds" every other chunk
  }
  LzChunkStreams streams =
      LzCompressChunkStreamsDeduped(span, kChunk, nullptr, plan);
  ASSERT_TRUE(streams.NeedsV2());
  for (size_t i = 0; i < streams.chunks.size(); i += 2) {
    EXPECT_EQ(streams.KindOf(i), LzChunkKind::kRef) << i;
    EXPECT_EQ(streams.ChunkWireBytes(i), 4u + 16u) << i;
  }
  const Bytes container = LzAssembleChunkContainer(streams);
  const Bytes full = LzCompressChunks(span, kChunk);
  EXPECT_LT(container.size(), full.size());
  // A digest the caller already holds is carried as is: same container.
  plan.defer_digest = true;
  LzChunkStreams deferred =
      LzCompressChunkStreamsDeduped(span, kChunk, nullptr, plan);
  deferred.content_hash = FluxHash128(span);
  EXPECT_EQ(LzAssembleChunkContainer(deferred), container);

  std::optional<Hash128> digest;
  InputRefSource refs(input, kChunk);
  auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()),
                                &refs, &digest);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(*raw, input);
  // The reported digest is the one recomputed from the reassembled bytes.
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(*digest, FluxHash128(ByteSpan(raw->data(), raw->size())));
}

TEST(DedupCompressTest, RefWithoutResolverRejected) {
  constexpr uint32_t kChunk = 64 * 1024;
  const Bytes input = GenerateContent(59, 200000, 0.5);
  const ByteSpan span(input.data(), input.size());
  LzChunkDedupPlan plan;
  plan.hashes = LzChunkHashes(span, kChunk);
  plan.ref_chunks.assign(plan.hashes.size(), 1);
  const Bytes container = LzAssembleChunkContainer(
      LzCompressChunkStreamsDeduped(span, kChunk, nullptr, plan));
  auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()));
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
}

TEST(DedupCompressTest, ResolverServingWrongContentRejected) {
  constexpr uint32_t kChunk = 64 * 1024;
  const Bytes input = GenerateContent(61, 200000, 0.5);
  const ByteSpan span(input.data(), input.size());
  LzChunkDedupPlan plan;
  plan.hashes = LzChunkHashes(span, kChunk);
  plan.ref_chunks.assign(plan.hashes.size(), 1);
  const Bytes container = LzAssembleChunkContainer(
      LzCompressChunkStreamsDeduped(span, kChunk, nullptr, plan));
  // A lying source: content that does not hash to the requested key must
  // be caught before it reaches the image.
  class ZeroRefs : public LzChunkRefSource {
   public:
    std::vector<std::optional<ByteSpan>> Lookup(
        std::span<const Hash128> refs, ThreadPool*) override {
      return std::vector<std::optional<ByteSpan>>(
          refs.size(), ByteSpan(zeros_.data(), zeros_.size()));
    }
    void Settle(size_t) override {}

   private:
    Bytes zeros_ = Bytes(kChunk, 0x00);
  } zero_refs;
  auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()),
                                &zero_refs);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
}

TEST(DedupCompressTest, TamperedV2BodyCaughtByContainerDigest) {
  const Bytes input = GenerateContent(63, 300000, 0.0);
  const ByteSpan span(input.data(), input.size());
  LzChunkDedupPlan plan;
  plan.stored_fallback = true;
  LzChunkStreams streams =
      LzCompressChunkStreamsDeduped(span, 64 * 1024, nullptr, plan);
  ASSERT_TRUE(streams.NeedsV2());
  Bytes container = LzAssembleChunkContainer(streams);
  // Flip a byte deep in a stored chunk's body: chunk framing still parses,
  // so only the whole-image digest can catch it.
  container[container.size() - 10] ^= 0x01;
  std::optional<Hash128> digest;
  auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()),
                                nullptr, &digest);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
  EXPECT_FALSE(digest.has_value());
}

// 64 KiB chunks of compressible, incompressible and again compressible
// content with a short tail, every third chunk a ref: the container holds
// kLz, kStored and kRef chunks.
constexpr uint32_t kMixedChunk = 64 * 1024;

struct MixedContainer {
  Bytes input;
  LzChunkStreams streams;
  Bytes container;
};

MixedContainer MakeMixedContainer() {
  MixedContainer mixed;
  for (const auto& [seed, size, compressibility] :
       {std::tuple<uint64_t, uint64_t, double>{81, 3 * kMixedChunk, 0.6},
        {83, 2 * kMixedChunk, 0.0},
        {85, 3 * kMixedChunk + 1234, 0.8}}) {
    const Bytes part = GenerateContent(seed, size, compressibility);
    mixed.input.insert(mixed.input.end(), part.begin(), part.end());
  }
  const ByteSpan span(mixed.input.data(), mixed.input.size());
  LzChunkDedupPlan plan;
  plan.stored_fallback = true;
  plan.hashes = LzChunkHashes(span, kMixedChunk);
  plan.ref_chunks.assign(plan.hashes.size(), 0);
  for (size_t i = 1; i < plan.ref_chunks.size(); i += 3) {
    plan.ref_chunks[i] = 1;
  }
  mixed.streams =
      LzCompressChunkStreamsDeduped(span, kMixedChunk, nullptr, plan);
  mixed.container = LzAssembleChunkContainer(mixed.streams);
  return mixed;
}

// Offset of chunk `i`'s FLZ1 stream inside the assembled container.
size_t ChunkStreamOffset(const LzChunkStreams& streams, size_t i) {
  size_t offset = streams.HeaderBytes();
  for (size_t k = 0; k < i; ++k) {
    offset += streams.ChunkWireBytes(k);
  }
  return offset + 4;  // past the chunk's u32 prefix
}

TEST(DedupCompressTest, PooledDecodeMatchesInlineAcrossChunkKinds) {
  const MixedContainer mixed = MakeMixedContainer();
  const LzChunkStreams& streams = mixed.streams;
  std::vector<int> kinds(3, 0);
  for (size_t i = 0; i < streams.chunks.size(); ++i) {
    ++kinds[static_cast<size_t>(streams.KindOf(i))];
  }
  ASSERT_GT(kinds[static_cast<size_t>(LzChunkKind::kLz)], 0);
  ASSERT_GT(kinds[static_cast<size_t>(LzChunkKind::kStored)], 0);
  ASSERT_GT(kinds[static_cast<size_t>(LzChunkKind::kRef)], 0);
  const ByteSpan input(mixed.input.data(), mixed.input.size());

  ThreadPool pool(4);
  for (ThreadPool* decode_pool : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(decode_pool != nullptr ? "4-thread pool" : "no pool");
    InputRefSource refs(mixed.input, kMixedChunk);
    std::optional<Hash128> digest;
    std::vector<Hash128> keys;
    auto raw = LzDecompressChunks(
        ByteSpan(mixed.container.data(), mixed.container.size()), &refs,
        &digest, decode_pool, &keys);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_EQ(*raw, mixed.input);
    ASSERT_TRUE(digest.has_value());
    EXPECT_EQ(*digest, FluxHash128(input));
    EXPECT_EQ(keys, LzChunkHashes(input, kMixedChunk));
    // Every ref was looked up once, and every lookup settled.
    EXPECT_EQ(refs.looked_up(),
              static_cast<size_t>(kinds[static_cast<size_t>(LzChunkKind::kRef)]));
    EXPECT_EQ(refs.settled(), refs.looked_up());
  }
}

TEST(DedupCompressTest, PooledDecodeFailsLikeInline) {
  const MixedContainer mixed = MakeMixedContainer();
  const std::vector<Hash128> hashes = LzChunkHashes(
      ByteSpan(mixed.input.data(), mixed.input.size()), kMixedChunk);
  ASSERT_EQ(mixed.streams.KindOf(4), LzChunkKind::kRef);
  ASSERT_EQ(mixed.streams.KindOf(6), LzChunkKind::kLz);

  struct Case {
    const char* name;
    size_t missing_ref;  // chunk whose ref the source lacks (0 = none)
    size_t corrupt_lz;   // kLz chunk whose first item becomes a bad match
    size_t settled;      // lookups a chunk-by-chunk decode makes
  };
  // Refs sit at chunks 1, 4 and 7. A missing ref is fetched and fails; a
  // corrupt kLz chunk stops the decode before the refs behind it.
  const Case cases[] = {{"missing ref", 4, 0, 2},
                        {"corrupt kLz ahead of a ref", 0, 6, 2}};
  ThreadPool pool(4);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Bytes container = mixed.container;
    if (c.corrupt_lz != 0) {
      container[ChunkStreamOffset(mixed.streams, c.corrupt_lz) + 12] = 0x01;
    }
    std::vector<Status> statuses;
    for (ThreadPool* decode_pool :
         {&pool, static_cast<ThreadPool*>(nullptr)}) {
      InputRefSource refs(mixed.input, kMixedChunk);
      if (c.missing_ref != 0) {
        refs.Forget(hashes[c.missing_ref]);
      }
      std::optional<Hash128> digest;
      std::vector<Hash128> keys;
      auto raw = LzDecompressChunks(
          ByteSpan(container.data(), container.size()), &refs, &digest,
          decode_pool, &keys);
      ASSERT_FALSE(raw.ok());
      EXPECT_EQ(raw.status().code(), StatusCode::kCorrupt);
      EXPECT_EQ(refs.settled(), c.settled);
      EXPECT_FALSE(digest.has_value());
      EXPECT_TRUE(keys.empty());
      statuses.push_back(raw.status());
    }
    EXPECT_EQ(statuses[0], statuses[1])
        << statuses[0].ToString() << " vs " << statuses[1].ToString();
  }
}

// ----- thread pool -----

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& hit : hits) {
    hit.store(0);
  }
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, InlineWhenSingleThreaded) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0);  // no workers: everything runs inline
  int sum = 0;
  pool.ParallelFor(10, [&sum](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, SequentialParallelForCallsDoNotInterfere) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(50, [&total](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 20 * 50);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

// ----- Archive -----

TEST(ArchiveTest, ScalarRoundTrip) {
  ArchiveWriter writer;
  writer.PutBool(true);
  writer.PutU8(0xAB);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(1ull << 60);
  writer.PutI64(-42);
  writer.PutF64(3.25);
  writer.PutString("flux");
  Bytes payload = {9, 8, 7};
  writer.PutBytes(ByteSpan(payload.data(), payload.size()));

  ArchiveReader reader(ByteSpan(writer.data().data(), writer.data().size()));
  bool b = false;
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string text;
  Bytes bytes;
  ASSERT_TRUE(reader.GetBool(b).ok());
  ASSERT_TRUE(reader.GetU8(u8).ok());
  ASSERT_TRUE(reader.GetU32(u32).ok());
  ASSERT_TRUE(reader.GetU64(u64).ok());
  ASSERT_TRUE(reader.GetI64(i64).ok());
  ASSERT_TRUE(reader.GetF64(f64).ok());
  ASSERT_TRUE(reader.GetString(text).ok());
  ASSERT_TRUE(reader.GetBytes(bytes).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(b);
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 3.25);
  EXPECT_EQ(text, "flux");
  EXPECT_EQ(bytes, payload);
}

TEST(ArchiveTest, TagMismatchDetected) {
  ArchiveWriter writer;
  writer.PutU32(7);
  ArchiveReader reader(ByteSpan(writer.data().data(), writer.data().size()));
  std::string text;
  Status status = reader.GetString(text);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
}

TEST(ArchiveTest, TruncationDetected) {
  ArchiveWriter writer;
  writer.PutString("some content here");
  Bytes data = writer.TakeData();
  data.resize(data.size() / 2);
  ArchiveReader reader(ByteSpan(data.data(), data.size()));
  std::string text;
  EXPECT_FALSE(reader.GetString(text).ok());
}

TEST(ArchiveTest, NestedSections) {
  ArchiveWriter inner;
  inner.PutU64(99);
  inner.PutString("nested");
  ArchiveWriter outer;
  outer.PutU32(1);
  outer.PutSection(inner);
  outer.PutU32(2);

  ArchiveReader reader(ByteSpan(outer.data().data(), outer.data().size()));
  uint32_t before = 0;
  uint32_t after = 0;
  ArchiveReader section({});
  ASSERT_TRUE(reader.GetU32(before).ok());
  ASSERT_TRUE(reader.GetSection(section).ok());
  ASSERT_TRUE(reader.GetU32(after).ok());
  EXPECT_TRUE(reader.AtEnd());
  uint64_t value = 0;
  std::string text;
  ASSERT_TRUE(section.GetU64(value).ok());
  ASSERT_TRUE(section.GetString(text).ok());
  EXPECT_EQ(before, 1u);
  EXPECT_EQ(after, 2u);
  EXPECT_EQ(value, 99u);
  EXPECT_EQ(text, "nested");
}

TEST(ArchiveTest, EmptyStringAndBytes) {
  ArchiveWriter writer;
  writer.PutString("");
  writer.PutBytes({});
  ArchiveReader reader(ByteSpan(writer.data().data(), writer.data().size()));
  std::string text = "sentinel";
  Bytes bytes = {1};
  ASSERT_TRUE(reader.GetString(text).ok());
  ASSERT_TRUE(reader.GetBytes(bytes).ok());
  EXPECT_TRUE(text.empty());
  EXPECT_TRUE(bytes.empty());
}

TEST(ArchiveTest, StreamedBytesMatchPutBytes) {
  const Bytes content = GenerateContent(41, 100000, 0.5);

  ArchiveWriter whole;
  whole.PutU32(7);
  whole.PutBytes(ByteSpan(content.data(), content.size()));
  whole.PutString("tail");

  ArchiveWriter streamed;
  streamed.PutU32(7);
  const size_t token = streamed.BeginBytes();
  // Append in ragged pieces, including empty ones.
  size_t pos = 0;
  for (const size_t piece : {size_t{0}, size_t{1}, size_t{999}, size_t{64},
                             content.size()}) {
    const size_t len = std::min(piece, content.size() - pos);
    streamed.AppendRaw(ByteSpan(content.data() + pos, len));
    pos += len;
  }
  ASSERT_EQ(pos, content.size());
  streamed.EndBytes(token);
  streamed.PutString("tail");

  EXPECT_EQ(whole.data(), streamed.data());
}

TEST(ArchiveTest, InPlaceSectionsMatchPutSection) {
  const Bytes content = GenerateContent(45, 20000, 0.5);

  // Staged: every nesting level in its own writer, embedded by PutSection.
  ArchiveWriter leaf;
  leaf.PutString("leaf");
  leaf.PutBytes(ByteSpan(content.data(), content.size()));
  const ArchiveWriter empty;
  ArchiveWriter middle;
  middle.PutU64(3);
  middle.PutSection(leaf);
  middle.PutSection(empty);
  middle.PutU32(9);
  ArchiveWriter staged;
  staged.PutU32(1);
  staged.PutSection(middle);
  staged.PutSection(empty);
  staged.PutSection(leaf);
  staged.PutString("tail");

  // In place: nested, empty, holding a streamed bytes field, and mixed
  // with PutSection. The reservation is far too small, so the buffer
  // regrows while sections are open.
  ArchiveWriter in_place;
  in_place.Reserve(8);
  in_place.PutU32(1);
  const size_t middle_token = in_place.BeginSection();
  in_place.PutU64(3);
  const size_t leaf_token = in_place.BeginSection();
  in_place.PutString("leaf");
  const size_t bytes_token = in_place.BeginBytes();
  in_place.AppendRaw(ByteSpan(content.data(), content.size()));
  in_place.EndBytes(bytes_token);
  in_place.EndSection(leaf_token);
  in_place.EndSection(in_place.BeginSection());
  in_place.PutU32(9);
  in_place.EndSection(middle_token);
  in_place.EndSection(in_place.BeginSection());
  in_place.PutSection(leaf);
  in_place.PutString("tail");

  EXPECT_EQ(staged.data(), in_place.data());
}

TEST(ArchiveTest, LengthNearTwoToThe64IsCorrupt) {
  // 17-byte archives: a tag, an 8-byte length and 8 content bytes. A length
  // of 2^64 - 8 makes `position + length` wrap around to 1, inside the
  // buffer, so a wrapping bounds check accepts it.
  const uint64_t huge = ~uint64_t{0} - 7;
  const Bytes content(8, 0x5A);
  auto forge = [huge](ArchiveWriter writer) {
    Bytes data = writer.TakeData();
    EXPECT_EQ(data.size(), 17u);
    PokeLe(data, 1, huge, 8);
    return data;
  };
  ArchiveWriter string_writer;
  string_writer.PutString("ZZZZZZZZ");
  ArchiveWriter bytes_writer;
  bytes_writer.PutBytes(ByteSpan(content.data(), content.size()));
  ArchiveWriter section_writer;
  const size_t section_token = section_writer.BeginSection();
  section_writer.AppendRaw(ByteSpan(content.data(), content.size()));
  section_writer.EndSection(section_token);
  const Bytes string_archive = forge(std::move(string_writer));
  const Bytes bytes_archive = forge(std::move(bytes_writer));
  const Bytes section_archive = forge(std::move(section_writer));
  auto reader = [](const Bytes& data) {
    return ArchiveReader(ByteSpan(data.data(), data.size()));
  };

  ByteSpan view;
  EXPECT_EQ(reader(bytes_archive).GetBytesView(view).code(),
            StatusCode::kCorrupt);
  ArchiveReader section({});
  EXPECT_EQ(reader(section_archive).GetSection(section).code(),
            StatusCode::kCorrupt);
  std::string text;
  EXPECT_EQ(reader(string_archive).GetString(text).code(),
            StatusCode::kCorrupt);
  Bytes bytes;
  EXPECT_EQ(reader(bytes_archive).GetBytes(bytes).code(),
            StatusCode::kCorrupt);
}

TEST(ArchiveTest, GetBytesViewIsZeroCopyAndEquivalent) {
  const Bytes content = GenerateContent(43, 5000, 0.3);
  ArchiveWriter writer;
  writer.PutBytes(ByteSpan(content.data(), content.size()));
  const Bytes data = writer.TakeData();

  ArchiveReader reader(ByteSpan(data.data(), data.size()));
  ByteSpan view;
  ASSERT_TRUE(reader.GetBytesView(view).ok());
  EXPECT_TRUE(reader.AtEnd());
  ASSERT_EQ(view.size(), content.size());
  EXPECT_EQ(Bytes(view.begin(), view.end()), content);
  // The view aliases the archive buffer rather than copying it.
  EXPECT_GE(view.data(), data.data());
  EXPECT_LE(view.data() + view.size(), data.data() + data.size());
}

TEST(ArchiveTest, ReadingPastEndFails) {
  ArchiveWriter writer;
  writer.PutU8(1);
  ArchiveReader reader(ByteSpan(writer.data().data(), writer.data().size()));
  uint8_t value = 0;
  ASSERT_TRUE(reader.GetU8(value).ok());
  EXPECT_FALSE(reader.GetU8(value).ok());
}

}  // namespace
}  // namespace flux
