#include "analysis/history_reconstruction.hpp"

#include <gtest/gtest.h>

#include "crypto/digest.hpp"
#include "url/decompose.hpp"

namespace sbp::analysis {
namespace {

class HistoryReconstructionTest : public ::testing::Test {
 protected:
  HistoryReconstructionTest() {
    index_.add_url("http://watched.example/secret/page.html");
    index_.add_url("http://watched.example/public/other.html");
    index_.add_url("http://forum.example/thread/42");
  }

  static sb::QueryLogEntry entry(sb::Cookie cookie, std::uint64_t tick,
                                 const char* url) {
    return {tick, cookie, url::decompose_prefixes(url), {}};
  }

  ReidentificationIndex index_;
};

TEST_F(HistoryReconstructionTest, RecoversUniqueVisits) {
  const std::vector<sb::QueryLogEntry> log = {
      entry(1, 10, "http://watched.example/secret/page.html"),
      entry(1, 20, "http://forum.example/thread/42"),
  };
  const auto histories = reconstruct_histories(log, index_);
  ASSERT_EQ(histories.size(), 1u);
  const auto& history = histories[0];
  EXPECT_EQ(history.cookie, 1u);
  ASSERT_EQ(history.events.size(), 2u);
  EXPECT_TRUE(history.events[0].unique());
  EXPECT_EQ(history.events[0].candidates[0],
            "watched.example/secret/page.html");
  EXPECT_TRUE(history.events[1].unique());
  EXPECT_EQ(history.unique_events, 2u);
}

TEST_F(HistoryReconstructionTest, GroupsByCookie) {
  const std::vector<sb::QueryLogEntry> log = {
      entry(1, 10, "http://forum.example/thread/42"),
      entry(2, 11, "http://forum.example/thread/42"),
      entry(1, 12, "http://watched.example/public/other.html"),
  };
  const auto histories = reconstruct_histories(log, index_);
  ASSERT_EQ(histories.size(), 2u);
  EXPECT_EQ(histories[0].events.size(), 2u);  // cookie 1
  EXPECT_EQ(histories[1].events.size(), 1u);  // cookie 2
}

TEST_F(HistoryReconstructionTest, UnknownPrefixesYieldEmptyCandidates) {
  const std::vector<sb::QueryLogEntry> log = {{5, 9, {0xDEADBEEF}, {}}};
  const auto histories = reconstruct_histories(log, index_);
  ASSERT_EQ(histories.size(), 1u);
  EXPECT_TRUE(histories[0].events[0].candidates.empty());
  EXPECT_FALSE(histories[0].events[0].unique());
}

TEST_F(HistoryReconstructionTest, SummaryStats) {
  const std::vector<sb::QueryLogEntry> log = {
      entry(1, 10, "http://watched.example/secret/page.html"),
      entry(2, 11, "http://forum.example/thread/42"),
      {12, 2, {0x12345678}, {}},  // unknown
  };
  const auto histories = reconstruct_histories(log, index_);
  const auto stats = summarize_reconstruction(histories);
  EXPECT_EQ(stats.users, 2u);
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.unique_events, 2u);
  EXPECT_NEAR(stats.unique_fraction(), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.mean_candidates, 1.0);
}

TEST_F(HistoryReconstructionTest, EmptyLog) {
  const auto histories = reconstruct_histories({}, index_);
  EXPECT_TRUE(histories.empty());
  const auto stats = summarize_reconstruction(histories);
  EXPECT_EQ(stats.users, 0u);
  EXPECT_DOUBLE_EQ(stats.unique_fraction(), 0.0);
}

TEST_F(HistoryReconstructionTest, AmbiguousQueryKeepsAllCandidates) {
  // Single prefix of the shared domain root: both watched.example URLs
  // remain candidates.
  const std::vector<sb::QueryLogEntry> log = {
      {7, 3, {crypto::prefix32_of("watched.example/")}, {}}};
  const auto histories = reconstruct_histories(log, index_);
  ASSERT_EQ(histories[0].events.size(), 1u);
  EXPECT_EQ(histories[0].events[0].candidates.size(), 2u);
  EXPECT_EQ(histories[0].unique_events, 0u);
}

}  // namespace
}  // namespace sbp::analysis
