// Unit tests for src/common: bit utilities, the 68-bit merged key, hash
// functions, the deterministic RNG and the inline scratch vector.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/key68.hpp"
#include "common/random.hpp"
#include "common/small_vec.hpp"

using namespace pclass;

TEST(Bits, MaskLow) {
  EXPECT_EQ(mask_low(0), 0u);
  EXPECT_EQ(mask_low(1), 1u);
  EXPECT_EQ(mask_low(13), 0x1FFFu);
  EXPECT_EQ(mask_low(63), 0x7FFFFFFFFFFFFFFFull);
  EXPECT_EQ(mask_low(64), ~u64{0});
}

TEST(Bits, ExtractBits) {
  EXPECT_EQ(extract_bits(0xABCD, 0, 4), 0xDu);
  EXPECT_EQ(extract_bits(0xABCD, 4, 4), 0xCu);
  EXPECT_EQ(extract_bits(0xABCD, 12, 4), 0xAu);
  EXPECT_EQ(extract_bits(~u64{0}, 0, 64), ~u64{0});
}

TEST(Bits, DepositBits) {
  EXPECT_EQ(deposit_bits(0, 0xF, 4, 4), 0xF0u);
  EXPECT_EQ(deposit_bits(0xFF, 0x0, 4, 4), 0x0Fu);
  EXPECT_EQ(deposit_bits(0xABCD, 0x7, 0, 4), 0xABC7u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1u << 16), 16u);
  EXPECT_EQ(ceil_log2((1u << 16) + 1), 17u);
}

TEST(Bits, CeilDivAndNextPow2) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Bits, IpSegments) {
  const u32 ip = ipv4(192, 168, 1, 2);
  EXPECT_EQ(ip, 0xC0A80102u);
  EXPECT_EQ(ip_hi16(ip), 0xC0A8u);
  EXPECT_EQ(ip_lo16(ip), 0x0102u);
}

TEST(Bits, MulHigh) {
  EXPECT_EQ(mul_high_u64(0, 123), 0u);
  EXPECT_EQ(mul_high_u64(~u64{0}, ~u64{0}), ~u64{0} - 1);
  // (2^32)*(2^32) = 2^64 -> high half = 1.
  EXPECT_EQ(mul_high_u64(u64{1} << 32, u64{1} << 32), 1u);
}

TEST(Key68, ShiftInBuildsExpectedLayout) {
  Key68 k;
  k = k.shifted_in(0x1, 4);
  k = k.shifted_in(0x2, 4);
  EXPECT_EQ(k.lo64(), 0x12u);
  EXPECT_EQ(k.hi4(), 0u);
}

TEST(Key68, HighBitsSpillIntoHi4) {
  Key68 k;
  // Push 68 bits of all-ones.
  for (int i = 0; i < 4; ++i) {
    k = k.shifted_in(mask_low(17), 17);
  }
  EXPECT_EQ(k.lo64(), ~u64{0});
  EXPECT_EQ(k.hi4(), 0xFu);
}

TEST(Key68, MergeUsesCanonicalDimensionOrder) {
  std::array<Label, kNumDimensions> ok{};
  ok[index_of(Dimension::kSrcIpHi)] = Label{0x1Au};
  ok[index_of(Dimension::kSrcIpLo)] = Label{0x2Bu};
  ok[index_of(Dimension::kDstIpHi)] = Label{0x3Cu};
  ok[index_of(Dimension::kDstIpLo)] = Label{0x4Du};
  ok[index_of(Dimension::kSrcPort)] = Label{0x55u};
  ok[index_of(Dimension::kDstPort)] = Label{0x66u};
  ok[index_of(Dimension::kProtocol)] = Label{0x2u};
  const Key68 k2 = Key68::merge(ok);
  // Manual composition: (((((srcHi<<13|srcLo)<<13|dstHi)<<13|dstLo)<<7|sp)<<7|dp)<<2|proto
  unsigned __int128 expect = 0;
  expect = (expect << 13) | 0x1A;
  expect = (expect << 13) | 0x2B;
  expect = (expect << 13) | 0x3C;
  expect = (expect << 13) | 0x4D;
  expect = (expect << 7) | 0x55;
  expect = (expect << 7) | 0x66;
  expect = (expect << 2) | 0x2;
  EXPECT_EQ(k2.lo64(), static_cast<u64>(expect));
  EXPECT_EQ(k2.hi4(), static_cast<u8>(expect >> 64));
}

TEST(Key68, EqualityAndHash) {
  const Key68 a{0x3, 0xDEADBEEF};
  const Key68 b{0x3, 0xDEADBEEF};
  const Key68 c{0x3, 0xDEADBEF0};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<Key68>{}(a), std::hash<Key68>{}(b));
  EXPECT_NE(std::hash<Key68>{}(a), std::hash<Key68>{}(c));
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (classic check value).
  const char* s = "123456789";
  EXPECT_EQ(Crc32::compute(reinterpret_cast<const u8*>(s), 9), 0xCBF43926u);
}

TEST(Crc32, U64Deterministic) {
  EXPECT_EQ(Crc32::compute_u64(42), Crc32::compute_u64(42));
  EXPECT_NE(Crc32::compute_u64(42), Crc32::compute_u64(43));
}

TEST(Key68Hasher, StaysInRange) {
  Key68Hasher h(1000);
  for (u64 i = 0; i < 5000; ++i) {
    const Key68 k{static_cast<u8>(i & 0xF), i * 0x9E3779B97F4A7C15ull};
    EXPECT_LT(h(k), 1000u);
  }
}

TEST(Key68Hasher, SeedChangesMapping) {
  Key68Hasher a(4096, 1), b(4096, 2);
  usize differing = 0;
  for (u64 i = 0; i < 256; ++i) {
    if (a(Key68{0, i}) != b(Key68{0, i})) ++differing;
  }
  EXPECT_GT(differing, 200u);  // nearly all should move
}

TEST(Key68Hasher, ZeroCapacityThrows) {
  EXPECT_THROW(Key68Hasher(0), std::invalid_argument);
}

TEST(Key68Hasher, SpreadsDenseLabelKeys) {
  // Label keys are dense small integers per field; the hasher must not
  // cluster them (this is what the Rule Filter's probe bound relies on).
  Key68Hasher h(2048);
  std::vector<int> load(2048, 0);
  int n = 0;
  for (u16 a = 0; a < 32; ++a) {
    for (u16 b = 0; b < 32; ++b) {
      std::array<Label, kNumDimensions> ls{Label{a},    Label{b},
                                           Label{1},    Label{2},
                                           Label{0},    Label{3},
                                           Label{1}};
      ++load[h(Key68::merge(ls))];
      ++n;
    }
  }
  int mx = 0;
  for (int x : load) mx = std::max(mx, x);
  EXPECT_LE(mx, 8);  // ~0.5 load, uniform max bucket is tiny
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const u64 x = a.next();
    EXPECT_EQ(x, b.next());
  }
  bool any_diff = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) {
    any_diff |= a2.next() != c.next();
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(2);
  std::set<u64> seen;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = r.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values reachable
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng r(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Mix64, InjectiveOnSample) {
  std::unordered_set<u64> out;
  for (u64 i = 0; i < 10000; ++i) {
    out.insert(mix64(i));
  }
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Types, DimensionMetadata) {
  EXPECT_EQ(kNumDimensions, 7u);
  unsigned total = 0;
  for (Dimension d : kAllDimensions) {
    total += label_bits(d);
  }
  EXPECT_EQ(total, kMergedKeyBits);
  EXPECT_STREQ(to_string(Dimension::kSrcIpHi), "src_ip_hi");
  EXPECT_STREQ(to_string(Dimension::kProtocol), "protocol");
}

TEST(Types, RuleIdAndLabel) {
  EXPECT_FALSE(RuleId{}.valid());
  EXPECT_TRUE(RuleId{5}.valid());
  EXPECT_LT(RuleId{3}, RuleId{5});
  EXPECT_FALSE(Label{}.valid());
  EXPECT_EQ(Label{7}, Label{7});
}

// SmallVec's inline slots are uninitialised storage: every test reads
// only what it pushed, within and past the inline capacity.
TEST(SmallVec, PushWithinInlineCapacity) {
  SmallVec<Label, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.on_heap());
  for (u16 i = 0; i < 4; ++i) v.push_back(Label{static_cast<u16>(10 + i)});
  EXPECT_EQ(v.size(), 4u);
  EXPECT_FALSE(v.on_heap());
  EXPECT_EQ(v.front(), Label{10});
  for (u16 i = 0; i < 4; ++i) EXPECT_EQ(v[i], Label{static_cast<u16>(10 + i)});
  EXPECT_EQ(v.end() - v.begin(), 4);
}

TEST(SmallVec, SpillKeepsContentsInOrder) {
  SmallVec<Label, 4> v;
  for (u16 i = 0; i < 37; ++i) {
    v.push_back(Label{static_cast<u16>(100 + i)});
    EXPECT_EQ(v.on_heap(), i >= 4) << "after " << i + 1 << " pushes";
    ASSERT_EQ(v.size(), usize{i} + 1);
    // Every element pushed so far survives each growth.
    for (u16 j = 0; j <= i; ++j) {
      ASSERT_EQ(v[j], Label{static_cast<u16>(100 + j)});
    }
  }
  u16 expect = 100;
  for (const Label l : v) EXPECT_EQ(l, Label{expect++});
}

TEST(SmallVec, ClearThenReuse) {
  SmallVec<Label, 2> inline_only;
  inline_only.push_back(Label{1});
  inline_only.push_back(Label{2});
  inline_only.clear();
  EXPECT_TRUE(inline_only.empty());
  EXPECT_EQ(inline_only.begin(), inline_only.end());
  inline_only.push_back(Label{9});
  EXPECT_EQ(inline_only.size(), 1u);
  EXPECT_EQ(inline_only[0], Label{9});

  SmallVec<Label, 2> spilled;
  for (u16 i = 0; i < 5; ++i) spilled.push_back(Label{i});
  ASSERT_TRUE(spilled.on_heap());
  spilled.clear();
  EXPECT_TRUE(spilled.empty());
  // The heap buffer is kept: refilling past the inline capacity neither
  // loses elements nor returns to the inline slots.
  for (u16 i = 0; i < 7; ++i) {
    spilled.push_back(Label{static_cast<u16>(50 + i)});
  }
  EXPECT_TRUE(spilled.on_heap());
  ASSERT_EQ(spilled.size(), 7u);
  for (u16 i = 0; i < 7; ++i) {
    EXPECT_EQ(spilled[i], Label{static_cast<u16>(50 + i)});
  }
}

TEST(SmallVec, ElementsAreWrittenInPlace) {
  SmallVec<u32, 3> v;
  for (u32 i = 0; i < 3; ++i) v.push_back(i);
  v[1] = 41;
  v.front() = 7;
  EXPECT_EQ(v[0], 7u);
  EXPECT_EQ(v[1], 41u);
  v.push_back(99);  // spill after in-place writes
  EXPECT_EQ(v[0], 7u);
  EXPECT_EQ(v[1], 41u);
  EXPECT_EQ(v[2], 2u);
  EXPECT_EQ(v[3], 99u);
}
