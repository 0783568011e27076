#include "storage/page.h"

#include <gtest/gtest.h>

namespace ariesrh {
namespace {

TEST(PageTest, FreshPageIsZeroed) {
  Page page(3);
  EXPECT_EQ(page.id(), 3u);
  EXPECT_EQ(page.page_lsn(), 0u);
  for (uint32_t slot = 0; slot < kObjectsPerPage; ++slot) {
    EXPECT_EQ(page.Get(slot), 0);
  }
}

TEST(PageTest, SetAndAdd) {
  Page page(0);
  page.Set(5, 100);
  EXPECT_EQ(page.Get(5), 100);
  page.Add(5, -30);
  EXPECT_EQ(page.Get(5), 70);
  EXPECT_EQ(page.Get(4), 0);  // neighbours untouched
}

TEST(PageTest, SerializeDeserializeRoundTrip) {
  Page page(7);
  page.set_page_lsn(991);
  for (uint32_t slot = 0; slot < kObjectsPerPage; ++slot) {
    page.Set(slot, static_cast<int64_t>(slot) * 3 - 17);
  }
  Result<Page> back = Page::Deserialize(page.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->id(), 7u);
  EXPECT_EQ(back->page_lsn(), 991u);
  for (uint32_t slot = 0; slot < kObjectsPerPage; ++slot) {
    EXPECT_EQ(back->Get(slot), page.Get(slot));
  }
}

TEST(PageTest, CorruptedImageDetected) {
  Page page(1);
  page.Set(0, 42);
  std::string image = page.Serialize();
  for (size_t i = 0; i < image.size(); i += 7) {
    std::string bad = image;
    bad[i] ^= 0x40;
    EXPECT_TRUE(Page::Deserialize(bad).status().IsCorruption())
        << "flip at byte " << i;
  }
}

TEST(PageTest, TruncatedImageDetected) {
  Page page(1);
  std::string image = page.Serialize();
  EXPECT_TRUE(
      Page::Deserialize(image.substr(0, image.size() - 1)).status()
          .IsCorruption());
  EXPECT_TRUE(Page::Deserialize("").status().IsCorruption());
}

TEST(PageTest, PeekLsnReadsTheHeaderAndChecksTheCrc) {
  Page page(4);
  page.set_page_lsn(77);
  page.Set(1, 5);
  std::string image = page.Serialize();
  Result<Lsn> lsn = Page::PeekLsn(image);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 77u);
  // A flip in the cells, which the peek never decodes, still fails it.
  image[image.size() - 8] ^= 0x01;
  EXPECT_TRUE(Page::PeekLsn(image).status().IsCorruption());
  EXPECT_TRUE(Page::PeekLsn("").status().IsCorruption());
}

TEST(PageTest, ObjectToPageMapping) {
  EXPECT_EQ(PageOf(0), 0u);
  EXPECT_EQ(PageOf(kObjectsPerPage - 1), 0u);
  EXPECT_EQ(PageOf(kObjectsPerPage), 1u);
  EXPECT_EQ(SlotOf(kObjectsPerPage + 3), 3u);
}

}  // namespace
}  // namespace ariesrh
