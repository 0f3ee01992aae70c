#include "storage/raw_hash_store.hpp"

#include <gtest/gtest.h>

namespace sbp::storage {
namespace {

TEST(RawHashStoreTest, ResetRequiresStrictlyIncreasing) {
  RawHashStore store;
  EXPECT_TRUE(store.reset({1, 5, 9}));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.reset({1, 5, 5}));  // duplicate
  EXPECT_EQ(store.size(), 0u);           // cleared on failure
  EXPECT_FALSE(store.reset({5, 1}));     // unsorted
  EXPECT_TRUE(store.reset({}));          // empty is valid
}

TEST(RawHashStoreTest, ContainsIsExact) {
  RawHashStore store;
  ASSERT_TRUE(store.reset({10, 20, 30}));
  EXPECT_TRUE(store.contains(10));
  EXPECT_TRUE(store.contains(30));
  EXPECT_FALSE(store.contains(15));
  EXPECT_FALSE(store.contains(0));
}

TEST(RawHashStoreTest, SliceRemovesByIndexAndMergesAdditions) {
  RawHashStore store;
  ASSERT_TRUE(store.reset({10, 20, 30, 40}));
  // Remove indices 1 and 3 (values 20 and 40), add 25 and 50.
  const auto next = store.sliced(std::vector<std::uint32_t>{1, 3},
                                 std::vector<crypto::Prefix32>{25, 50});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->prefixes(), (std::vector<crypto::Prefix32>{10, 25, 30, 50}));
  EXPECT_EQ(next->checksum(), RawHashStore::checksum_of(next->prefixes()));
  // The source store is left as it was.
  EXPECT_EQ(store.prefixes(), (std::vector<crypto::Prefix32>{10, 20, 30, 40}));
}

TEST(RawHashStoreTest, InvalidSlicesRejectedUnchanged) {
  RawHashStore store;
  ASSERT_TRUE(store.reset({10, 20, 30}));
  const auto before = store.prefixes();
  const auto slice = [&store](std::vector<std::uint32_t> removals,
                              std::vector<crypto::Prefix32> additions) {
    return store.sliced(removals, additions).has_value();
  };
  EXPECT_FALSE(slice({3}, {}));        // index out of range
  EXPECT_FALSE(slice({1, 1}, {}));     // repeated index
  EXPECT_FALSE(slice({1, 0}, {}));     // unsorted indices
  EXPECT_FALSE(slice({}, {20}));       // addition already present
  EXPECT_FALSE(slice({}, {50, 45}));   // unsorted additions
  EXPECT_EQ(store.prefixes(), before);
}

TEST(RawHashStoreTest, ChecksumTracksContentNotHistory) {
  RawHashStore a, b;
  ASSERT_TRUE(a.reset({10, 20, 30}));
  ASSERT_TRUE(b.reset({10, 20, 25, 30}));
  // Drop 25 -> same content as a.
  const auto dropped = b.sliced(std::vector<std::uint32_t>{2}, {});
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(a.checksum(), dropped->checksum());
  const auto grown = dropped->sliced({}, std::vector<crypto::Prefix32>{40});
  ASSERT_TRUE(grown.has_value());
  EXPECT_NE(a.checksum(), grown->checksum());
}

}  // namespace
}  // namespace sbp::storage
