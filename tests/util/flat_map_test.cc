#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/random.h"

namespace ariesrh {
namespace {

using FM = FlatMap<uint64_t, std::string, 4>;

TEST(FlatMapTest, StartsEmpty) {
  FM m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), m.end());
  EXPECT_FALSE(m.contains(1));
}

TEST(FlatMapTest, SubscriptInsertsAndFinds) {
  FM m;
  m[3] = "three";
  m[1] = "one";
  m[2] = "two";
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(1), "one");
  EXPECT_EQ(m.at(2), "two");
  EXPECT_EQ(m.at(3), "three");
  m[2] = "TWO";  // overwrite through the existing slot
  EXPECT_EQ(m.at(2), "TWO");
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatMapTest, IterationIsAscendingByKey) {
  // The checkpoint serializer iterates Ob_Lists and its output must be
  // byte-stable: insertion order may be arbitrary, iteration may not.
  FM m;
  for (uint64_t key : {9u, 2u, 7u, 1u, 8u, 3u}) m[key] = "v";
  std::vector<uint64_t> keys;
  for (const auto& [key, value] : m) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 2, 3, 7, 8, 9}));
}

TEST(FlatMapTest, TryEmplaceReportsInsertion) {
  FM m;
  auto [it1, fresh1] = m.try_emplace(5, "five");
  EXPECT_TRUE(fresh1);
  auto [it2, fresh2] = m.try_emplace(5, "other");
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, "five");
  EXPECT_EQ(it1->first, 5u);
}

TEST(FlatMapTest, EraseByKeyAndIterator) {
  FM m;
  for (uint64_t key = 1; key <= 6; ++key) m[key] = std::to_string(key);
  EXPECT_EQ(m.erase(4), 1u);
  EXPECT_EQ(m.erase(4), 0u);
  auto it = m.find(2);
  ASSERT_NE(it, m.end());
  it = m.erase(it);
  EXPECT_EQ(it->first, 3u);  // vector erase returns the next element
  EXPECT_EQ(m.size(), 4u);
}

TEST(FlatMapTest, IteratorEraseLoopDrainsSpilledMap) {
  // Mirrors the Ob_List clear-down in rollback/analysis: the map spills
  // past its inline capacity, then an erase loop removes every entry.
  FM m;
  for (uint64_t key = 1; key <= 12; ++key) m[key] = "v";
  for (auto it = m.begin(); it != m.end();) {
    it = (it->first % 2 == 0) ? m.erase(it) : std::next(it);
  }
  EXPECT_EQ(m.size(), 6u);
  for (auto it = m.begin(); it != m.end();) {
    it = m.erase(it);
  }
  EXPECT_TRUE(m.empty());
  m[1] = "again";
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, MatchesStdMapUnderRandomChurn) {
  FlatMap<uint32_t, int, 4> flat;
  std::map<uint32_t, int> reference;
  Random rng(20260808);
  for (int op = 0; op < 4000; ++op) {
    const uint32_t key = rng.Uniform(64);
    switch (rng.Uniform(3)) {
      case 0:
        flat[key] = op;
        reference[key] = op;
        break;
      case 1:
        EXPECT_EQ(flat.erase(key), reference.erase(key));
        break;
      case 2: {
        auto fit = flat.find(key);
        auto rit = reference.find(key);
        ASSERT_EQ(fit == flat.end(), rit == reference.end());
        if (fit != flat.end()) {
          EXPECT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
  }
  ASSERT_EQ(flat.size(), reference.size());
  auto rit = reference.begin();
  for (const auto& [key, value] : flat) {
    EXPECT_EQ(key, rit->first);
    EXPECT_EQ(value, rit->second);
    ++rit;
  }
}

using OHM = OpenHashMap<uint64_t, int>;

TEST(OpenHashMapTest, InsertFindErase) {
  OHM m;
  EXPECT_EQ(m.Find(1), nullptr);
  m[1] = 10;
  m[2] = 20;
  ASSERT_NE(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(1), 10);
  EXPECT_TRUE(m.Erase(1));
  EXPECT_FALSE(m.Erase(1));
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(2), 20);
  EXPECT_EQ(m.size(), 1u);
}

TEST(OpenHashMapTest, KeyZeroIsAValidKey) {
  OHM m;
  m[0] = 7;
  ASSERT_NE(m.Find(0), nullptr);
  EXPECT_EQ(*m.Find(0), 7);
  EXPECT_TRUE(m.Erase(0));
  EXPECT_EQ(m.Find(0), nullptr);
}

TEST(OpenHashMapTest, TombstonesDoNotBreakProbeChains) {
  // Insert a clustered run of keys, erase from the middle, and verify the
  // survivors stay reachable after the erasures shifted the runs back.
  OHM m;
  for (uint64_t key = 0; key < 32; ++key) m[key] = static_cast<int>(key);
  for (uint64_t key = 0; key < 32; key += 2) EXPECT_TRUE(m.Erase(key));
  for (uint64_t key = 1; key < 32; key += 2) {
    ASSERT_NE(m.Find(key), nullptr) << key;
    EXPECT_EQ(*m.Find(key), static_cast<int>(key));
  }
  // Reinsert over the tombstones.
  for (uint64_t key = 0; key < 32; key += 2) m[key] = -1;
  EXPECT_EQ(m.size(), 32u);
  EXPECT_EQ(*m.Find(4), -1);
}

TEST(OpenHashMapTest, ChurnDoesNotGrowTheTable) {
  // Transaction ids come and go: a million inserts with at most 8 live
  // keys at a time leave the table at its smallest size.
  OHM m;
  for (uint64_t key = 0; key < 1000000; ++key) {
    if (key >= 8) {
      ASSERT_TRUE(m.Erase(key - 8));
    }
    m[key] = static_cast<int>(key);
  }
  EXPECT_EQ(m.size(), 8u);
  EXPECT_EQ(m.capacity(), 16u);
  for (uint64_t key = 1000000 - 8; key < 1000000; ++key) {
    ASSERT_NE(m.Find(key), nullptr) << key;
  }
}

TEST(OpenHashMapTest, GrowthRehashesAllEntries) {
  OHM m;
  for (uint64_t key = 0; key < 1000; ++key) m[key] = static_cast<int>(key * 3);
  ASSERT_EQ(m.size(), 1000u);
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_NE(m.Find(key), nullptr) << key;
    EXPECT_EQ(*m.Find(key), static_cast<int>(key * 3));
  }
}

TEST(OpenHashMapTest, ForEachVisitsEveryLiveEntry) {
  OHM m;
  for (uint64_t key = 0; key < 10; ++key) m[key] = 1;
  EXPECT_TRUE(m.Erase(3));
  EXPECT_TRUE(m.Erase(7));
  int visited = 0;
  uint64_t key_sum = 0;
  m.ForEach([&](const uint64_t& key, int& value) {
    visited += value;
    key_sum += key;
  });
  EXPECT_EQ(visited, 8);
  EXPECT_EQ(key_sum, 45u - 3u - 7u);
}

TEST(OpenHashMapTest, MatchesStdMapUnderRandomChurn) {
  OpenHashMap<uint64_t, int> open;
  std::map<uint64_t, int> reference;
  Random rng(777);
  for (int op = 0; op < 6000; ++op) {
    const uint64_t key = rng.Uniform(128);
    switch (rng.Uniform(3)) {
      case 0:
        open[key] = op;
        reference[key] = op;
        break;
      case 1:
        EXPECT_EQ(open.Erase(key), reference.erase(key) > 0);
        break;
      case 2: {
        int* found = open.Find(key);
        auto rit = reference.find(key);
        ASSERT_EQ(found == nullptr, rit == reference.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, rit->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(open.size(), reference.size());
}

}  // namespace
}  // namespace ariesrh
