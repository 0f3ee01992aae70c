// Membership against a plain reference.
//
// Each store implements membership once, as the batch `contains_many`;
// `contains`, `contains32` and `contains_many32` are wrappers over it. These
// tests check that one path against something that shares no code with it:
// for the exact stores (raw-sorted, delta-coded, v4 raw-hash) the reference
// is std::binary_search over the sorted member list; for Bloom every member
// must answer true and each batch answer must equal the batch-of-one
// answer. Batches are empty, singleton, duplicate-bearing, unsorted and
// larger than the 64-entry inline scratch, so a sorted-probe walk that
// mishandles cursor resumption or duplicate keys fails here rather than as
// a silent query-log divergence in the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/digest.hpp"
#include "storage/bloom_filter.hpp"
#include "storage/delta_table.hpp"
#include "storage/prefix_store.hpp"
#include "storage/raw_hash_store.hpp"
#include "util/rng.hpp"

namespace sbp::storage {
namespace {

using Entry = std::vector<std::uint8_t>;

PrefixBatch random_batch(std::size_t n, std::uint64_t seed,
                         std::size_t stride = 4) {
  util::Rng rng(seed);
  PrefixBatch batch(stride);
  Entry entry(stride);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& b : entry) b = static_cast<std::uint8_t>(rng.next());
    batch.add(entry);
  }
  batch.sort_unique();
  return batch;
}

crypto::Prefix32 word_of(std::span<const std::uint8_t> e) {
  return static_cast<crypto::Prefix32>(e[0]) << 24 |
         static_cast<crypto::Prefix32>(e[1]) << 16 |
         static_cast<crypto::Prefix32>(e[2]) << 8 |
         static_cast<crypto::Prefix32>(e[3]);
}

/// The store's members as a sorted list of 32-bit prefixes.
std::vector<crypto::Prefix32> members32(const PrefixBatch& batch) {
  std::vector<crypto::Prefix32> out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.push_back(word_of(batch.entry(i)));
  }
  return out;
}

// Query mix: ~half members (drawn from the member list), half random
// misses, deliberately unsorted, with duplicates appended.
std::vector<crypto::Prefix32> query_mix32(
    const std::vector<crypto::Prefix32>& members, std::size_t n,
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<crypto::Prefix32> queries;
  queries.reserve(n + 4);
  for (std::size_t i = 0; i < n; ++i) {
    if (!members.empty() && rng.next() % 2 == 0) {
      queries.push_back(members[rng.next() % members.size()]);
    } else {
      queries.push_back(static_cast<crypto::Prefix32>(rng.next()));
    }
  }
  // Duplicates, including back-to-back ones, stress cursor resumption.
  if (!queries.empty()) {
    queries.push_back(queries.front());
    queries.push_back(queries.front());
    queries.push_back(queries.back());
    queries.push_back(queries[queries.size() / 2]);
  }
  return queries;
}

/// Every batch shape the suite runs: empty, singleton hit, singleton miss,
/// and unsorted mixes past the 64-entry inline scratch.
std::vector<std::vector<crypto::Prefix32>> query_batches(
    const std::vector<crypto::Prefix32>& members, std::uint64_t seed) {
  std::vector<std::vector<crypto::Prefix32>> batches;
  batches.push_back({});
  if (!members.empty()) batches.push_back({members.front()});
  batches.push_back({0xDEADBEEFu});
  for (const std::size_t n : {3u, 17u, 64u, 65u, 300u}) {
    batches.push_back(query_mix32(members, n, seed + n));
  }
  return batches;
}

/// Runs `batch_call(queries, out)` and returns the answers as plain bools.
template <typename BatchCall>
std::vector<bool> answers(std::span<const crypto::Prefix32> queries,
                          BatchCall&& batch_call) {
  // vector<bool> has no .data(); batch output needs a real bool array.
  const auto buffer = std::make_unique<bool[]>(queries.size());
  const std::span<bool> out(buffer.get(), queries.size());
  batch_call(queries, out);
  return {out.begin(), out.end()};
}

/// Exact store: contains_many32 equals binary search over the members.
void expect_exact32(const PrefixStore& store, const PrefixBatch& batch,
                    std::uint64_t seed) {
  const auto members = members32(batch);
  for (const auto& queries : query_batches(members, seed)) {
    const auto got = answers(queries, [&](auto q, auto out) {
      store.contains_many32(q, out);
    });
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], std::binary_search(members.begin(), members.end(),
                                           queries[i]))
          << "query index " << i;
    }
  }
}

TEST(BatchContainsTest, RawSortedStoreMatchesReference) {
  const PrefixBatch members = random_batch(5000, 11);
  expect_exact32(RawSortedStore(members), members, 101);
}

TEST(BatchContainsTest, RawSortedStoreEmptyStore) {
  PrefixBatch empty(4);
  empty.sort_unique();
  expect_exact32(RawSortedStore(empty), empty, 102);
}

TEST(BatchContainsTest, DeltaCodedTableMatchesReference) {
  const PrefixBatch members = random_batch(5000, 12);
  expect_exact32(DeltaCodedTable(members), members, 103);
}

TEST(BatchContainsTest, DeltaCodedTableEmptyStore) {
  PrefixBatch empty(4);
  empty.sort_unique();
  expect_exact32(DeltaCodedTable(empty), empty, 104);
}

TEST(BatchContainsTest, WideStrideStoresMatchReference) {
  // Stride-8 stores take the memcmp comparison path, and the delta table
  // decodes raw tails, including its final partial block. Queries: every
  // member, random misses, and members with a flipped tail byte (same
  // 32-bit head, different entry).
  const PrefixBatch batch = random_batch(1000, 13, 8);
  std::vector<Entry> members;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto e = batch.entry(i);
    members.emplace_back(e.begin(), e.end());
  }
  PrefixBatch queries(8);
  const PrefixBatch misses = random_batch(257, 14, 8);
  for (std::size_t i = 0; i < misses.size(); ++i) queries.add(misses.entry(i));
  for (std::size_t i = 0; i < members.size(); i += 3) {
    queries.add(members[i]);
    Entry near = members[i];
    near[7] ^= 0x01;
    queries.add(near);
  }
  const std::size_t n = queries.size();

  const std::unique_ptr<PrefixStore> stores[] = {
      make_store(StoreKind::kRawSorted, batch),
      make_store(StoreKind::kDeltaCoded, batch)};
  for (const auto& store : stores) {
    const auto buffer = std::make_unique<bool[]>(n);
    const std::span<bool> out(buffer.get(), n);
    store->contains_many(queries.flat(), out);
    for (std::size_t i = 0; i < n; ++i) {
      const auto e = queries.entry(i);
      EXPECT_EQ(out[i], std::binary_search(members.begin(), members.end(),
                                           Entry(e.begin(), e.end())))
          << "query index " << i;
    }
  }
}

TEST(BatchContainsTest, BloomFilterMembersHitAndBatchEqualsBatchOfOne) {
  const PrefixBatch batch = random_batch(5000, 15);
  // Deliberately undersized filter (~2 bits/entry) so the query mix is
  // dense in false positives; batch answers must repeat them exactly.
  const BloomFilter store(batch, batch.size() * 2);
  const auto members = members32(batch);
  const auto all = answers(members, [&](auto q, auto out) {
    store.contains_many32(q, out);
  });
  EXPECT_EQ(std::count(all.begin(), all.end(), true),
            static_cast<std::ptrdiff_t>(members.size()));
  for (const auto& queries : query_batches(members, 105)) {
    const auto got = answers(queries, [&](auto q, auto out) {
      store.contains_many32(q, out);
    });
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], store.contains32(queries[i])) << "query index " << i;
    }
  }
}

TEST(BatchContainsTest, RawHashStoreMatchesReference) {
  const std::vector<crypto::Prefix32> members =
      members32(random_batch(5000, 16));
  RawHashStore store;
  ASSERT_TRUE(store.reset(members));
  for (const auto& queries : query_batches(members, 106)) {
    const auto got = answers(queries, [&](auto q, auto out) {
      store.contains_many32(q, out);
    });
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], std::binary_search(members.begin(), members.end(),
                                           queries[i]))
          << "query index " << i;
    }
  }
}

TEST(BatchContainsTest, WrappersRejectMismatchedWidths) {
  // The width checks live in the PrefixStore wrappers, so every kind
  // answers false to a query of the wrong width -- even for a prefix
  // whose leading bytes are stored.
  const PrefixBatch narrow = random_batch(100, 19);
  const PrefixBatch wide = random_batch(100, 20, 8);
  const auto narrow_entry = narrow.entry(0);
  const auto wide_entry = wide.entry(0);
  for (const StoreKind kind :
       {StoreKind::kRawSorted, StoreKind::kDeltaCoded, StoreKind::kBloom}) {
    const auto store4 = make_store(kind, narrow, 4096);
    EXPECT_TRUE(store4->contains(narrow_entry));
    const Entry padded = {narrow_entry[0], narrow_entry[1], narrow_entry[2],
                          narrow_entry[3], 0, 0, 0, 0};
    EXPECT_FALSE(store4->contains(padded));
    EXPECT_FALSE(store4->contains(narrow_entry.first(3)));

    const auto store8 = make_store(kind, wide, 4096);
    EXPECT_TRUE(store8->contains(wide_entry));
    EXPECT_FALSE(store8->contains(wide_entry.first(4)));
    EXPECT_FALSE(store8->contains32(word_of(wide_entry)));
    const crypto::Prefix32 heads[] = {word_of(wide_entry), 0u};
    bool out[2] = {true, true};
    store8->contains_many32(heads, out);
    EXPECT_FALSE(out[0]);
    EXPECT_FALSE(out[1]);
  }
}

TEST(BatchContainsTest, AssignSorted32EquivalentToAddLoop) {
  util::Rng rng(18);
  std::vector<crypto::Prefix32> sorted;
  for (std::size_t i = 0; i < 2000; ++i) {
    sorted.push_back(static_cast<crypto::Prefix32>(rng.next()));
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  PrefixBatch via_add(4);
  for (const auto p : sorted) via_add.add32(p);
  via_add.sort_unique();

  PrefixBatch via_assign(4);
  via_assign.add32(0x12345678u);  // stale contents must be discarded
  via_assign.assign_sorted32(sorted);

  ASSERT_EQ(via_assign.size(), via_add.size());
  const auto a = via_assign.flat();
  const auto b = via_add.flat();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

}  // namespace
}  // namespace sbp::storage
