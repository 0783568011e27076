#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace ariesrh {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : disk_(&stats_),
        pool_(&disk_, /*capacity=*/4, [this](Lsn lsn) {
          wal_flushes_.push_back(lsn);
          return Status::OK();
        }) {}

  Stats stats_;
  SimulatedDisk disk_;
  std::vector<Lsn> wal_flushes_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, FetchMaterializesFreshPage) {
  Result<Page*> page = pool_.Fetch(9);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->id(), 9u);
  EXPECT_EQ((*page)->Get(0), 0);
  EXPECT_EQ(pool_.misses(), 1u);
}

TEST_F(BufferPoolTest, FetchCachesPage) {
  (void)*pool_.Fetch(1);
  (void)*pool_.Fetch(1);
  EXPECT_EQ(pool_.hits(), 1u);
  EXPECT_EQ(pool_.misses(), 1u);
}

TEST_F(BufferPoolTest, FetchReadsExistingPageFromDisk) {
  Page page(2);
  page.Set(3, 77);
  ASSERT_TRUE(disk_.WritePage(2, page.Serialize()).ok());
  Result<Page*> got = pool_.Fetch(2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->Get(3), 77);
}

TEST_F(BufferPoolTest, ForEachPageSeesFramesAndStablePagesWritingNothing) {
  // Page 1 is stable only, page 2 stable with a newer dirty frame, page 3 a
  // frame only, and page 50 lies past the bound.
  for (PageId id : {PageId{1}, PageId{2}, PageId{50}}) {
    Page page(id);
    page.Set(0, 10 + id);
    ASSERT_TRUE(disk_.WritePage(id, page.Serialize()).ok());
  }
  ASSERT_TRUE(pool_.WithPage(2, [](Page* page) {
                      page->Set(0, 200);
                      return Lsn{5};
                    })
                  .ok());
  ASSERT_TRUE(pool_.WithPage(3, [](Page* page) {
                      page->Set(0, 300);
                      return Lsn{6};
                    })
                  .ok());
  const uint64_t writes = stats_.page_writes;
  std::map<PageId, int64_t> seen;
  ASSERT_TRUE(pool_
                  .ForEachPage(10, [&seen](const Page& page) {
                    EXPECT_TRUE(seen.emplace(page.id(), page.Get(0)).second);
                  })
                  .ok());
  EXPECT_EQ(seen, (std::map<PageId, int64_t>{{1, 11}, {2, 200}, {3, 300}}));
  EXPECT_EQ(stats_.page_writes, writes);
  EXPECT_EQ(pool_.cached_pages(), 2u);
  EXPECT_EQ(pool_.DirtyPageTable().size(), 2u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  for (PageId id = 0; id < 4; ++id) {
    Page* page = *pool_.Fetch(id);
    page->Set(0, id + 100);
    page->set_page_lsn(id + 1);
    pool_.MarkDirty(id, id + 1);
  }
  EXPECT_EQ(pool_.cached_pages(), 4u);
  // Fifth page evicts the LRU (page 0), which is dirty -> write-back.
  (void)*pool_.Fetch(4);
  EXPECT_EQ(pool_.cached_pages(), 4u);
  ASSERT_TRUE(disk_.HasPage(0));
  Result<Page> back = Page::Deserialize(**disk_.ReadPage(0));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Get(0), 100);
}

TEST_F(BufferPoolTest, WalRuleEnforcedOnWriteBack) {
  Page* page = *pool_.Fetch(0);
  page->Set(0, 1);
  page->set_page_lsn(42);
  pool_.MarkDirty(0, 42);
  ASSERT_TRUE(pool_.FlushPage(0).ok());
  // The log must have been flushed up to the page LSN first.
  ASSERT_EQ(wal_flushes_.size(), 1u);
  EXPECT_EQ(wal_flushes_[0], 42u);
}

TEST_F(BufferPoolTest, CleanEvictionSkipsWriteBack) {
  for (PageId id = 0; id < 5; ++id) {
    (void)*pool_.Fetch(id);  // never dirtied
  }
  EXPECT_FALSE(disk_.HasPage(0));
  EXPECT_TRUE(wal_flushes_.empty());
}

TEST_F(BufferPoolTest, LruOrderRespectsAccesses) {
  (void)*pool_.Fetch(0);
  (void)*pool_.Fetch(1);
  (void)*pool_.Fetch(2);
  (void)*pool_.Fetch(3);
  (void)*pool_.Fetch(0);  // refresh page 0
  Page* page1 = *pool_.Fetch(1);
  page1->Set(0, 5);
  page1->set_page_lsn(1);
  pool_.MarkDirty(1, 1);
  // Next miss evicts page 1? No: order is 2 (LRU), then 3, 0, 1.
  (void)*pool_.Fetch(7);
  EXPECT_FALSE(disk_.HasPage(1));  // page 1 survived (was touched later)
  (void)*pool_.Fetch(8);
  (void)*pool_.Fetch(9);
  (void)*pool_.Fetch(10);
  EXPECT_TRUE(disk_.HasPage(1));  // eventually evicted and written back
}

TEST_F(BufferPoolTest, DirtyPageTableTracksRecLsn) {
  Page* a = *pool_.Fetch(0);
  a->set_page_lsn(5);
  pool_.MarkDirty(0, 5);
  pool_.MarkDirty(0, 9);  // second dirtying must not advance recLSN
  Page* b = *pool_.Fetch(1);
  b->set_page_lsn(7);
  pool_.MarkDirty(1, 7);
  auto dpt = pool_.DirtyPageTable();
  ASSERT_EQ(dpt.size(), 2u);
  EXPECT_EQ(dpt[0], 5u);
  EXPECT_EQ(dpt[1], 7u);
}

TEST_F(BufferPoolTest, FlushAllCleansEverything) {
  for (PageId id = 0; id < 3; ++id) {
    Page* page = *pool_.Fetch(id);
    page->Set(1, id);
    page->set_page_lsn(id + 1);
    pool_.MarkDirty(id, id + 1);
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_TRUE(pool_.DirtyPageTable().empty());
  EXPECT_TRUE(disk_.HasPage(0));
  EXPECT_TRUE(disk_.HasPage(1));
  EXPECT_TRUE(disk_.HasPage(2));
}

TEST_F(BufferPoolTest, ResetDiscardsDirtyPages) {
  Page* page = *pool_.Fetch(0);
  page->Set(0, 99);
  page->set_page_lsn(1);
  pool_.MarkDirty(0, 1);
  pool_.Reset();
  EXPECT_EQ(pool_.cached_pages(), 0u);
  EXPECT_FALSE(disk_.HasPage(0));  // the crash lost the dirty page
  Page* fresh = *pool_.Fetch(0);
  EXPECT_EQ(fresh->Get(0), 0);
}

}  // namespace
}  // namespace ariesrh
