#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dfsim {
namespace {

TEST(Rng, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsRoughlyBalanced) {
  Rng rng(13);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform(8)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
  }
}

TEST(Rng, UniformInInclusiveRange) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

// split() now routes the child key through a splitmix64 expansion step
// (near-equal parent states must not yield correlated children). These
// constants pin the resulting draw sequences: the child stream, and the
// parent cursor having advanced by exactly one draw.
TEST(Rng, SplitGolden) {
  Rng a(31);
  Rng b = a.split();
  EXPECT_EQ(b.next_u64(), 0x452939871b51ff97ULL);
  EXPECT_EQ(b.next_u64(), 0xace83fad70820cb0ULL);
  EXPECT_EQ(b.next_u64(), 0xee027420b775ad43ULL);
  EXPECT_EQ(a.next_u64(), 0x85234ccb6c2ad01aULL);
}

// keyed_stream is the sharded engine's counter-based determinism
// contract: the stream depends only on the key tuple, never on which
// worker constructs it or in what order. Pin the derivation so a future
// change to the mixing chain cannot silently re-key every sharded run.
TEST(Rng, KeyedStreamGolden) {
  Rng k = keyed_stream(42, 7, 1, 12345);
  EXPECT_EQ(k.next_u64(), 0xa8bf9618880ed975ULL);
  EXPECT_EQ(k.next_u64(), 0xa0fecab4b12703b3ULL);
  EXPECT_EQ(keyed_stream(42, 7, 2, 12345).next_u64(),
            0x6e543dbd354b92a6ULL);
  EXPECT_EQ(keyed_stream(42, 8, 1, 12345).next_u64(),
            0xcf03c37376b412abULL);
  EXPECT_EQ(mix64(1, 2), 0x71c18690ee42c90bULL);
}

TEST(Rng, KeyedStreamIsPureFunctionOfKey) {
  for (std::uint64_t e : {0ULL, 1ULL, 999ULL}) {
    Rng x = keyed_stream(9, 100, 3, e);
    Rng y = keyed_stream(9, 100, 3, e);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(x.next_u64(), y.next_u64());
  }
}

// The exact stepper compares the shared cursor before and after a failed
// decision to learn whether it drew: equality is stream position.
TEST(Rng, EqualityIsStreamPosition) {
  Rng a(5);
  Rng b(5);
  EXPECT_TRUE(a == b);
  a.next_u64();
  EXPECT_FALSE(a == b);
  b.next_u64();
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(Rng(5) == Rng(6));
  // The keyed stepper hoists mix64(mix64(seed, cycle), domain) per step;
  // finishing the chain per entity must give keyed_stream's stream.
  EXPECT_TRUE(Rng(mix64(mix64(mix64(42, 7), 1), 12345)) ==
              keyed_stream(42, 7, 1, 12345));
}

}  // namespace
}  // namespace dfsim
