#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace sbp::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(RngTest, NextBelowRoughlyUniform) {
  Rng rng(1234);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_GT(counts[b], kSamples / 10 - 1200) << "bucket " << b;
    EXPECT_LT(counts[b], kSamples / 10 + 1200) << "bucket " << b;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolEdges) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ForkIndependent) {
  Rng parent(11);
  Rng child = parent.fork();
  // The child stream should not replay the parent stream.
  std::set<std::uint64_t> parent_vals;
  for (int i = 0; i < 50; ++i) parent_vals.insert(parent.next());
  int overlap = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent_vals.count(child.next()) > 0) ++overlap;
  }
  EXPECT_LT(overlap, 2);
}

TEST(RngTest, StreamMatchesKnownAnswers) {
  // Recorded outputs: every corpus byte and golden fingerprint rests on this
  // stream, so a refactor of the generator must reproduce it bit for bit.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);

  Rng rng(2016);
  EXPECT_EQ(rng.next(), 0x2783899f312ca7a0ULL);
  EXPECT_EQ(rng.next(), 0x0624859da8fd69e2ULL);
  EXPECT_EQ(rng.next(), 0xb6d231296dd6a35bULL);

  Rng below(2016);
  EXPECT_EQ(below.next_below(1000003), 154351u);

  Rng unit(2016);
  EXPECT_EQ(unit.next_double(), 0.15435085426831785);

  Rng coin(2016);
  unsigned heads = 0;
  for (unsigned i = 0; i < 16; ++i) {
    heads |= static_cast<unsigned>(coin.next_bool(0.3)) << i;
  }
  EXPECT_EQ(heads, 0x8803u);

  Rng parent(2016);
  Rng child = parent.fork();
  EXPECT_EQ(child.next(), 0xa82e232cf5784e87ULL);
  EXPECT_EQ(parent.next(), 0x0624859da8fd69e2ULL);
}

}  // namespace
}  // namespace sbp::util
