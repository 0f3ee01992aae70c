#include "analysis/kanonymity.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sbp::analysis {
namespace {

TEST(KAnonymityTest, RejectsBadWidths) {
  EXPECT_THROW(KAnonymityIndex(0), std::invalid_argument);
  EXPECT_THROW(KAnonymityIndex(12), std::invalid_argument);
  EXPECT_THROW(KAnonymityIndex(72), std::invalid_argument);
}

TEST(KAnonymityTest, SingleExpressionHasKOne) {
  KAnonymityIndex index(32);
  index.add_expression("petsymposium.org/2016/cfp.php");
  EXPECT_EQ(index.k_of_expression("petsymposium.org/2016/cfp.php"), 1u);
  EXPECT_EQ(index.k_of_expression("never-indexed.example/"), 0u);
}

TEST(KAnonymityTest, NarrowPrefixesCollide) {
  // At 8 bits, 1000 distinct expressions land in <= 256 buckets: k > 1.
  KAnonymityIndex index(8);
  for (int i = 0; i < 1000; ++i) {
    index.add_expression("site" + std::to_string(i) + ".example/");
  }
  const KAnonymityStats stats = index.stats();
  EXPECT_LE(stats.distinct_prefixes, 256u);
  EXPECT_GT(stats.mean_k, 3.0);
  EXPECT_GE(stats.max_k, stats.min_k);
  EXPECT_EQ(stats.total_expressions, 1000u);
}

TEST(KAnonymityTest, WidePrefixesSeparate) {
  // At 64 bits, 1000 expressions essentially never collide: k == 1 a.s.
  KAnonymityIndex index(64);
  for (int i = 0; i < 1000; ++i) {
    index.add_expression("site" + std::to_string(i) + ".example/");
  }
  const KAnonymityStats stats = index.stats();
  EXPECT_EQ(stats.distinct_prefixes, 1000u);
  EXPECT_DOUBLE_EQ(stats.unique_fraction, 1.0);
  EXPECT_EQ(stats.max_k, 1u);
}

TEST(KAnonymityTest, StatsOnEmptyIndex) {
  const KAnonymityIndex index(32);
  const KAnonymityStats stats = index.stats();
  EXPECT_EQ(stats.distinct_prefixes, 0u);
  EXPECT_EQ(stats.total_expressions, 0u);
}

TEST(KAnonymityTest, CorpusIndexing) {
  const corpus::WebCorpus corpus(
      corpus::CorpusConfig::random_like(100, 123));
  KAnonymityIndex index(32);
  index.add_corpus(corpus);
  const KAnonymityStats stats = index.stats();
  EXPECT_GT(stats.distinct_prefixes, 100u);
  // A scaled corpus is far below 2^32 expressions: k ~= 1 everywhere --
  // exactly the paper's point that small-domain URLs are re-identifiable.
  EXPECT_GT(stats.unique_fraction, 0.99);
}

TEST(KAnonymityTest, PrefixWidthSweepMeanK) {
  // Property: mean k grows as the prefix narrows (Table 5's trend).
  double previous_mean = 0.0;
  for (const unsigned bits : {32u, 24u, 16u, 8u}) {
    KAnonymityIndex index(bits);
    for (int i = 0; i < 2000; ++i) {
      std::string expression = "u";
      expression += std::to_string(i);
      expression += ".example/";
      index.add_expression(expression);
    }
    const double mean = index.stats().mean_k;
    EXPECT_GE(mean, previous_mean) << bits;
    previous_mean = mean;
  }
}

}  // namespace
}  // namespace sbp::analysis
