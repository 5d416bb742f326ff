#include "src/base/synthetic_content.h"

#include <algorithm>
#include <string_view>

#include "src/base/hash.h"
#include "src/base/rng.h"

namespace flux {

Bytes GenerateContent(uint64_t seed, uint64_t size, double compressibility) {
  compressibility = std::clamp(compressibility, 0.0, 1.0);
  Rng rng(seed ^ 0xC0FFEE1234ull);
  // Sized once and filled run by run; each random byte is one Rng step.
  Bytes out(size);
  uint64_t pos = 0;
  while (pos < size) {
    const bool repetitive = rng.NextBool(compressibility);
    // Chunks of 32..287 bytes keep run structure visible to a 64 KiB window.
    const uint64_t chunk =
        std::min<uint64_t>(32 + rng.NextBelow(256), size - pos);
    uint8_t* const run = out.data() + pos;
    if (repetitive) {
      // A short repeating motif, as found in zeroed or structured pages.
      const int motif_len = 1 + static_cast<int>(rng.NextBelow(8));
      uint8_t motif[8];
      for (int i = 0; i < motif_len; ++i) {
        motif[i] = static_cast<uint8_t>(rng.NextU64());
      }
      for (uint64_t i = 0, m = 0; i < chunk; ++i) {
        run[i] = motif[m];
        if (++m == static_cast<uint64_t>(motif_len)) {
          m = 0;
        }
      }
    } else {
      // Stepped on a local copy: a byte store could alias `rng`, whose
      // address escapes to NextBool, so stepping it in place would reload
      // its state from memory after every byte.
      Rng local = rng;
      for (uint64_t i = 0; i < chunk; ++i) {
        run[i] = static_cast<uint8_t>(local.NextU64());
      }
      rng = local;
    }
    pos += chunk;
  }
  return out;
}

Bytes GenerateNamedContent(std::string_view name, uint64_t size,
                           double compressibility) {
  return GenerateContent(Fnv1a64(name), size, compressibility);
}

}  // namespace flux
