// Unit tests for src/base: Status/Result, strings, hashing, RNG, SimClock.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/base/hash.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/sim_clock.h"
#include "src/base/strings.h"
#include "src/base/synthetic_content.h"

namespace flux {
namespace {

// ----- Status / Result -----

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFound("missing widget");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing widget");
  EXPECT_EQ(status.ToString(), "not_found: missing widget");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kInternal); ++code) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(code)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = InvalidArgument("bad");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::string> result = std::string("payload");
  std::string taken = result.TakeValue();
  EXPECT_EQ(taken, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  FLUX_ASSIGN_OR_RETURN(int half, Half(x));
  FLUX_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

// ----- strings -----

TEST(StringsTest, SplitKeepsEmptyPieces) {
  const auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSkipEmpty) {
  const auto parts = StrSplitSkipEmpty("/usr//local/", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "usr");
  EXPECT_EQ(parts[1], "local");
}

TEST(StringsTest, JoinRoundTrips) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(StrJoin({}, "/"), "");
  EXPECT_EQ(StrJoin({"solo"}, ", "), "solo");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  hello \t\n"), "hello");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("x"), "x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StrStartsWith("/system/lib", "/system"));
  EXPECT_FALSE(StrStartsWith("/sys", "/system"));
  EXPECT_TRUE(StrEndsWith("app.apk", ".apk"));
  EXPECT_FALSE(StrEndsWith("apk", ".apk"));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

// The one escaper behind the trace, telemetry and forensic JSON writers.
TEST(StringsTest, AppendJsonEscaped) {
  std::string out = "x";
  AppendJsonEscaped(out, std::string_view("a\"b\\c\nd\te\rf\x01g", 13));
  EXPECT_EQ(out, "xa\\\"b\\\\c\\nd\\te\\rf\\u0001g");
}

// ----- hashing -----

TEST(HashTest, Fnv1aIsStable) {
  // Known FNV-1a 64 test vector.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(HashTest, Fnv1aIncrementalMatchesOneShot) {
  Fnv1a64Hasher hasher;
  hasher.Update("hello ");
  hasher.Update("world");
  EXPECT_EQ(hasher.Digest(), Fnv1a64("hello world"));
}

TEST(HashTest, Crc32KnownVector) {
  const char* text = "123456789";
  Bytes data(text, text + 9);
  EXPECT_EQ(Crc32(ByteSpan(data.data(), data.size())), 0xCBF43926u);
}

TEST(HashTest, DifferentContentDifferentHash) {
  Bytes a = GenerateContent(1, 1024, 0.5);
  Bytes b = GenerateContent(2, 1024, 0.5);
  EXPECT_NE(Fnv1a64(ByteSpan(a.data(), a.size())),
            Fnv1a64(ByteSpan(b.data(), b.size())));
}

// ----- RNG -----

TEST(RngTest, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BoolProbability) {
  Rng rng(17);
  int heads = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.03);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng fork = a.Fork();
  EXPECT_NE(a.NextU64(), fork.NextU64());
}

TEST(RngTest, StreamIsPinned) {
  // The first draws of each kind from a fresh stream, recorded before
  // NextU64 was inlined: every simulated byte and sample descends from
  // this stream, so none of these may move. The 2^63 + 1 bound rejects
  // about half its raw draws.
  struct Pinned {
    uint64_t seed;
    uint64_t u64[4];
    uint64_t below_1000[4];
    uint64_t below_2_63_plus_1[4];
    double unit[4];
    const char* bools_at_0_3;  // NextBool(0.3), first 16 draws
  };
  const Pinned kPinned[] = {
      {0,
       {0x99ec5f36cb75f2b4ull, 0xbf6e1f784956452aull, 0x1a5f849d4933e6e0ull,
        0x6aa594f1262d2d2cull},
       {420, 82, 768, 532},
       {0x19ec5f36cb75f2b3ull, 0x3f6e1f7849564529ull, 0x3ba5ad4a1f842e58ull,
        0x7fef8375d9ebcac9ull},
       {0x1.33d8be6d96ebep-1, 0x1.7edc3ef092ac8p-1, 0x1.a5f849d4933ep-4,
        0x1.aa9653c498b4ap-2},
       "0010000000111001"},
      {0xC0FFEE1234ull,
       {0xe69574058aca0f85ull, 0x346b5bf7c5d76dc6ull, 0xe0c8a48ee4896697ull,
        0x5dfb00c4baf84536ull},
       {573, 486, 103, 542},
       {0x669574058aca0f84ull, 0x60c8a48ee4896696ull, 0x148b0a56f9f90bdeull,
        0x6c7c9bf845d65ee5ull},
       {0x1.cd2ae80b15941p-1, 0x1.a35adfbe2ebb4p-3, 0x1.c191491dc912cp-1,
        0x1.77ec0312ebe1p-2},
       "0100010101000000"},
  };
  for (const Pinned& p : kPinned) {
    Rng u64(p.seed);
    Rng below(p.seed);
    Rng below_big(p.seed);
    Rng unit(p.seed);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(u64.NextU64(), p.u64[i]) << p.seed << " draw " << i;
      EXPECT_EQ(below.NextBelow(1000), p.below_1000[i]) << p.seed;
      EXPECT_EQ(below_big.NextBelow((uint64_t{1} << 63) + 1),
                p.below_2_63_plus_1[i])
          << p.seed;
      EXPECT_EQ(unit.NextDouble(), p.unit[i]) << p.seed;
    }
    Rng coin(p.seed);
    std::string bools;
    for (int i = 0; i < 16; ++i) {
      bools += coin.NextBool(0.3) ? '1' : '0';
    }
    EXPECT_EQ(bools, p.bools_at_0_3) << p.seed;
  }
}

// ----- SimClock -----

TEST(SimClockTest, AdvanceAccumulates) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(Millis(5));
  clock.Advance(Micros(250));
  EXPECT_EQ(clock.now(), 5250u);
}

TEST(SimClockTest, NegativeAdvanceIgnored) {
  SimClock clock;
  clock.Advance(Millis(1));
  clock.Advance(-Millis(5));
  EXPECT_EQ(clock.now(), 1000u);
}

TEST(SimClockTest, AdvanceToOnlyForward) {
  SimClock clock;
  clock.AdvanceTo(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.now(), 100u);
}

TEST(SimClockTest, DurationConversions) {
  EXPECT_EQ(Seconds(2), 2'000'000);
  EXPECT_DOUBLE_EQ(ToSecondsF(Millis(1500)), 1.5);
  EXPECT_DOUBLE_EQ(ToMillisF(Micros(2500)), 2.5);
  EXPECT_EQ(FromSecondsF(0.5), 500'000);
}

TEST(SimClockTest, ScopedTimerStampsInterval) {
  SimClock clock;
  TimedInterval interval;
  {
    ScopedTimer timer(clock, interval);
    clock.Advance(Millis(30));
  }
  EXPECT_EQ(interval.duration(), Millis(30));
}

// ----- synthetic content -----

TEST(SyntheticContentTest, DeterministicBySeed) {
  EXPECT_EQ(GenerateContent(5, 4096, 0.5), GenerateContent(5, 4096, 0.5));
  EXPECT_NE(GenerateContent(5, 4096, 0.5), GenerateContent(6, 4096, 0.5));
}

TEST(SyntheticContentTest, ExactSize) {
  EXPECT_EQ(GenerateContent(1, 0, 0.5).size(), 0u);
  EXPECT_EQ(GenerateContent(1, 1, 0.5).size(), 1u);
  EXPECT_EQ(GenerateContent(1, 100000, 0.5).size(), 100000u);
}

TEST(SyntheticContentTest, NamedSeedsMatchAcrossCalls) {
  EXPECT_EQ(GenerateNamedContent("x", 512, 0.4),
            GenerateNamedContent("x", 512, 0.4));
  EXPECT_NE(GenerateNamedContent("x", 512, 0.4),
            GenerateNamedContent("y", 512, 0.4));
}

TEST(SyntheticContentTest, OutputBytesArePinned) {
  // FluxHash128 of the nine sizes' outputs, concatenated in order, for each
  // seed and compressibility; recorded from the byte-at-a-time generator.
  // The sizes straddle the 32..287-byte run lengths, a page, one past the
  // 64 KiB window and 1 MiB; compressibilities outside [0, 1] clamp, so
  // their rows repeat the 0 and 1 rows.
  const uint64_t kSizes[] = {0, 1, 31, 32, 287, 288, 4096, 65537, 1 << 20};
  struct Pinned {
    uint64_t seed;
    double compressibility;
    uint64_t lo;
    uint64_t hi;
  };
  const Pinned kPinned[] = {
      {0, -0.5, 0x8f53f6dc8fe0a91dull, 0x4eb1a6ffcde67fb0ull},
      {0, 0, 0x8f53f6dc8fe0a91dull, 0x4eb1a6ffcde67fb0ull},
      {0, 0.25, 0x11394fdba8738df9ull, 0xdb90c7393e137689ull},
      {0, 0.6, 0x279d78559c971087ull, 0xfe9f7d94213c60e1ull},
      {0, 1, 0x244aa3f55cfcd03bull, 0x5948a8be53399fb4ull},
      {0, 1.5, 0x244aa3f55cfcd03bull, 0x5948a8be53399fb4ull},
      {1, -0.5, 0x767da033683b9682ull, 0xb0179cc8545a89d3ull},
      {1, 0, 0x767da033683b9682ull, 0xb0179cc8545a89d3ull},
      {1, 0.25, 0x2052286d715dc881ull, 0x53970fa47b77c480ull},
      {1, 0.6, 0xc725e7182b91d526ull, 0xbfa248b5c084c779ull},
      {1, 1, 0xc8849576f7abc377ull, 0x92943630eb614179ull},
      {1, 1.5, 0xc8849576f7abc377ull, 0x92943630eb614179ull},
      {0xC0FFEE1234ull, -0.5, 0xc2b8b6ec1090fbe0ull, 0xda01a71966608aa5ull},
      {0xC0FFEE1234ull, 0, 0xc2b8b6ec1090fbe0ull, 0xda01a71966608aa5ull},
      {0xC0FFEE1234ull, 0.25, 0xdc5cbffc42e88ef5ull, 0x189992d24699e304ull},
      {0xC0FFEE1234ull, 0.6, 0xcc9c2b68f1e9ed91ull, 0x583216744cf25a92ull},
      {0xC0FFEE1234ull, 1, 0x2a5f5d1c5d831486ull, 0x42148fc1615985d8ull},
      {0xC0FFEE1234ull, 1.5, 0x2a5f5d1c5d831486ull, 0x42148fc1615985d8ull},
      {~uint64_t{0}, -0.5, 0xdf4e6c86fe1846b1ull, 0xa86ca8ef857932bdull},
      {~uint64_t{0}, 0, 0xdf4e6c86fe1846b1ull, 0xa86ca8ef857932bdull},
      {~uint64_t{0}, 0.25, 0x2b9213a6a8fc3238ull, 0xffae9d174fefd232ull},
      {~uint64_t{0}, 0.6, 0x3e949721d337e2daull, 0x2d2d6e3b566df726ull},
      {~uint64_t{0}, 1, 0x35da471949a9a702ull, 0x3a2775d25a1e5940ull},
      {~uint64_t{0}, 1.5, 0x35da471949a9a702ull, 0x3a2775d25a1e5940ull},
  };
  for (const Pinned& p : kPinned) {
    Bytes all;
    for (const uint64_t size : kSizes) {
      const Bytes out = GenerateContent(p.seed, size, p.compressibility);
      EXPECT_EQ(out.size(), size) << p.seed << " @ " << p.compressibility;
      all.insert(all.end(), out.begin(), out.end());
    }
    const Hash128 digest = FluxHash128(ByteSpan(all.data(), all.size()));
    EXPECT_EQ(digest.lo, p.lo) << p.seed << " @ " << p.compressibility;
    EXPECT_EQ(digest.hi, p.hi) << p.seed << " @ " << p.compressibility;
  }
  // GenerateNamedContent seeds from Fnv1a64 of the name; the APK's mix.
  const Bytes named = GenerateNamedContent("com.example:apk:v1", 100000, 0.25);
  const Hash128 digest = FluxHash128(ByteSpan(named.data(), named.size()));
  EXPECT_EQ(named.size(), 100000u);
  EXPECT_EQ(digest.lo, 0xe1b8e59056e44675ull);
  EXPECT_EQ(digest.hi, 0x48fffe129b2aed2dull);
}

}  // namespace
}  // namespace flux
