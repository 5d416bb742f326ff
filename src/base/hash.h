// Content hashing used by the filesystem (rsync-style sync), checkpoint
// image integrity checks, and the content-addressed chunk store. FNV-1a
// turns names into the seeds of generated content, so its values are
// pinned; CRC32 guards checkpoint image sections; FluxHash128 keys
// chunk-cache entries and transfer manifests, and its low lane
// (FluxHash64) hashes file contents for the filesystem.
#ifndef FLUX_SRC_BASE_HASH_H_
#define FLUX_SRC_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/base/bytes.h"

namespace flux {

// 64-bit FNV-1a over a byte span.
uint64_t Fnv1a64(ByteSpan data);
uint64_t Fnv1a64(std::string_view data);

// Incremental FNV-1a, for hashing streamed content.
class Fnv1a64Hasher {
 public:
  void Update(ByteSpan data);
  void Update(std::string_view data);
  uint64_t Digest() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// CRC-32 (IEEE 802.3 polynomial, reflected).
uint32_t Crc32(ByteSpan data);

// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78). The
// wire-frame checksum (src/net/frame.h, PROTOCOL.md §4): computed over a
// frame's payload only, init 0xFFFFFFFF, final xor 0xFFFFFFFF. Kept apart
// from Crc32 because the frame layout pins this exact polynomial.
uint32_t Crc32c(ByteSpan data);

// A 128-bit content digest. Two independently mixed 64-bit lanes: at the
// chunk-cache scale (thousands of 256 KiB chunks) 64 bits would already be
// collision-safe, but 128 bits make accidental cross-app collisions
// negligible for the lifetime of a device pair, and the 16-byte value *is*
// the wire format of a `ref` chunk.
struct Hash128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Hash128& a, const Hash128& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Hash128& a, const Hash128& b) {
    return !(a == b);
  }
  friend bool operator<(const Hash128& a, const Hash128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  std::string ToHex() const;
};

// Hasher for unordered containers keyed by Hash128. The digest is already
// uniformly mixed, so the low lane is a fine bucket index.
struct Hash128Hasher {
  size_t operator()(const Hash128& h) const {
    return static_cast<size_t>(h.lo ^ (h.hi * 0x9E3779B97F4A7C15ull));
  }
};

// Fast 128-bit hash over a byte span (wyhash-style folded 64x64->128
// multiplies, two lanes with independent secrets). Roughly an order of
// magnitude faster than FNV-1a on large buffers because it consumes 16
// bytes per step instead of 1. Stable across runs and platforms
// (little-endian lane loads); the digest is part of the FLZ2 container
// format, so its value must never change.
Hash128 FluxHash128(ByteSpan data, uint64_t seed = 0);

// Convenience: the low lane alone, for callers that only need 64 bits.
uint64_t FluxHash64(ByteSpan data, uint64_t seed = 0);

}  // namespace flux

namespace std {
template <>
struct hash<flux::Hash128> {
  size_t operator()(const flux::Hash128& h) const {
    return flux::Hash128Hasher{}(h);
  }
};
}  // namespace std

#endif  // FLUX_SRC_BASE_HASH_H_
