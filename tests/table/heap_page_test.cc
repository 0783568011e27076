// Slotted heap page unit tests: slot-index stability across compaction,
// capacity accounting, the serialize/deserialize round trip with CRC
// verification, the page LSN read from the header, and the cursor that
// reads a stable image in place.

#include "table/heap_page.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesrh::table {
namespace {

TEST(HeapPageTest, InsertAndReadBack) {
  HeapPage page(1);
  Result<uint32_t> slot = page.Insert("alpha", "one");
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE(page.SlotLive(*slot));
  EXPECT_EQ(page.KeyAt(*slot), "alpha");
  EXPECT_EQ(page.ValueAt(*slot), "one");
  EXPECT_EQ(page.live_records(), 1u);
  EXPECT_EQ(page.live_bytes(), 8u);
}

TEST(HeapPageTest, UpdateKeepsSlotIndex) {
  HeapPage page(1);
  uint32_t a = *page.Insert("a", "first");
  uint32_t b = *page.Insert("b", "second");
  ASSERT_TRUE(page.Update(a, "a-much-longer-replacement-value").ok());
  EXPECT_EQ(page.KeyAt(a), "a");
  EXPECT_EQ(page.ValueAt(a), "a-much-longer-replacement-value");
  EXPECT_EQ(page.KeyAt(b), "b");
  EXPECT_EQ(page.ValueAt(b), "second");
}

TEST(HeapPageTest, RemoveFreesSlotForReuse) {
  HeapPage page(1);
  uint32_t a = *page.Insert("a", "1");
  uint32_t b = *page.Insert("b", "2");
  ASSERT_TRUE(page.Remove(a).ok());
  EXPECT_FALSE(page.SlotLive(a));
  EXPECT_TRUE(page.SlotLive(b));
  EXPECT_EQ(page.live_records(), 1u);
  // The freed slot index is recycled before the directory grows.
  uint32_t c = *page.Insert("c", "3");
  EXPECT_EQ(c, a);
  EXPECT_EQ(page.slot_count(), 2u);
}

TEST(HeapPageTest, CompactionReclaimsDeadBytesAndKeepsIndices) {
  HeapPage page(1);
  // Fill the page with two fat records, drop one, and insert a record that
  // only fits after compaction reclaims the dead bytes.
  const std::string fat(HeapPage::kPayloadCapacity / 2 - 8, 'x');
  uint32_t a = *page.Insert("aaaa", fat);
  uint32_t b = *page.Insert("bbbb", fat);
  ASSERT_TRUE(page.Remove(a).ok());
  const std::string next(HeapPage::kPayloadCapacity / 4, 'y');
  Result<uint32_t> c = page.Insert("cccc", next);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(page.KeyAt(b), "bbbb");
  EXPECT_EQ(page.ValueAt(b), fat);
  EXPECT_EQ(page.ValueAt(*c), next);
}

TEST(HeapPageTest, RejectsRecordThatCannotFit) {
  HeapPage page(1);
  const std::string huge(HeapPage::kPayloadCapacity + 1, 'z');
  EXPECT_TRUE(page.Insert("k", huge).status().IsIllegalState());
  // Update to a value that cannot fit fails and leaves the record intact.
  uint32_t slot = *page.Insert("k", "small");
  EXPECT_TRUE(page.Update(slot, huge).IsIllegalState());
  EXPECT_EQ(page.ValueAt(slot), "small");
}

TEST(HeapPageTest, SerializeRoundTripPreservesSlotIndices) {
  HeapPage page(7);
  page.set_page_lsn(42);
  uint32_t a = *page.Insert("a", "1");
  uint32_t b = *page.Insert("b", "2");
  uint32_t c = *page.Insert("c", "3");
  ASSERT_TRUE(page.Remove(b).ok());

  Result<HeapPage> copy = HeapPage::Deserialize(page.Serialize());
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ(copy->id(), 7u);
  EXPECT_EQ(copy->page_lsn(), 42u);
  EXPECT_EQ(copy->live_records(), 2u);
  EXPECT_TRUE(copy->SlotLive(a));
  EXPECT_FALSE(copy->SlotLive(b));
  EXPECT_TRUE(copy->SlotLive(c));
  EXPECT_EQ(copy->KeyAt(a), "a");
  EXPECT_EQ(copy->ValueAt(c), "3");
}

TEST(HeapPageTest, DeserializeRejectsCorruption) {
  HeapPage page(7);
  ASSERT_TRUE(page.Insert("key", "value").ok());
  std::string image = page.Serialize();
  image[image.size() / 2] ^= 0x40;
  EXPECT_TRUE(HeapPage::Deserialize(image).status().IsCorruption());
  EXPECT_TRUE(HeapPage::Deserialize(std::string("short")).status()
                  .IsCorruption());
}

TEST(HeapPageTest, RoundTripKeepsSlotGaps) {
  // Live slots 1 and 4 only: the image lists two records, the decoded page
  // has the same five-slot directory with the same gaps, and re-encoding it
  // gives the same bytes.
  HeapPage page(3);
  page.set_page_lsn(900);
  for (const char* key : {"s0", "s1", "s2", "s3", "s4"}) {
    ASSERT_TRUE(page.Insert(key, std::string("value-of-") + key).ok());
  }
  for (uint32_t slot : {0u, 2u, 3u}) ASSERT_TRUE(page.Remove(slot).ok());
  const std::string image = page.Serialize();

  Result<HeapPage> copy = HeapPage::Deserialize(image);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ(copy->slot_count(), 5u);
  EXPECT_EQ(copy->live_records(), 2u);
  EXPECT_EQ(copy->live_bytes(), page.live_bytes());
  for (uint32_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(copy->SlotLive(slot), slot == 1 || slot == 4) << slot;
  }
  EXPECT_EQ(copy->KeyAt(1), "s1");
  EXPECT_EQ(copy->ValueAt(1), "value-of-s1");
  EXPECT_EQ(copy->KeyAt(4), "s4");
  EXPECT_EQ(copy->ValueAt(4), "value-of-s4");
  EXPECT_EQ(copy->Serialize(), image);
  // A gap is reused first, and the decoded page still takes inserts.
  Result<uint32_t> reused = copy->Insert("s5", "v");
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, 0u);
}

TEST(HeapPageTest, TruncatedFieldFailsDespiteAValidCrc) {
  // A record whose value claims more bytes than the image holds, under a
  // CRC that matches: the decoder's bounds check, not the CRC, rejects it.
  std::string image;
  PutFixed32(&image, 1);    // page id
  PutVarint64(&image, 5);   // page LSN
  PutVarint64(&image, 1);   // one record
  PutVarint64(&image, 0);   // in slot 0
  PutLengthPrefixed(&image, "key");
  PutVarint64(&image, 64);  // a 64-byte value ...
  image.append("short");    // ... of which five bytes follow
  PutFixed32(&image, crc32c::Mask(crc32c::Value(image)));
  const Status status = HeapPage::Deserialize(image).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("truncated"), std::string::npos)
      << status.ToString();
  // The header alone still reads: the page LSN peek decodes no record.
  Result<Lsn> lsn = HeapPage::PeekLsn(image);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 5u);
}

TEST(HeapPageTest, PeekLsnChecksTheCrc) {
  HeapPage page(7);
  page.set_page_lsn(123456);
  ASSERT_TRUE(page.Insert("key", "value").ok());
  std::string image = page.Serialize();
  Result<Lsn> lsn = HeapPage::PeekLsn(image);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 123456u);
  image[image.size() / 2] ^= 0x40;
  EXPECT_TRUE(HeapPage::PeekLsn(image).status().IsCorruption());
  EXPECT_TRUE(HeapPage::PeekLsn("ab").status().IsCorruption());
}

TEST(HeapPageTest, BinaryKeysAndValuesSurvive) {
  HeapPage page(1);
  const std::string key("k\0ey", 4);
  const std::string value("v\0\xff\x01", 4);
  uint32_t slot = *page.Insert(key, value);
  Result<HeapPage> copy = HeapPage::Deserialize(page.Serialize());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->KeyAt(slot), key);
  EXPECT_EQ(copy->ValueAt(slot), value);
}

TEST(HeapImageCursorTest, ReadsTheLiveRecordsInPlace) {
  HeapPage page(9);
  page.set_page_lsn(77);
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_TRUE(page.Insert(key, std::string("v-") + key).ok());
  }
  ASSERT_TRUE(page.Remove(1).ok());
  const std::string image = page.Serialize();

  Result<HeapImageCursor> cursor = HeapImageCursor::Open(image);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->page_id(), 9u);
  EXPECT_EQ(cursor->page_lsn(), 77u);
  EXPECT_EQ(cursor->records(), 2u);
  std::vector<uint32_t> slots;
  while (cursor->Next()) {
    slots.push_back(cursor->slot());
    // Views into the image, not copies.
    EXPECT_GE(cursor->key().data(), image.data());
    EXPECT_LT(cursor->value().data(), image.data() + image.size());
    EXPECT_EQ(cursor->value(), "v-" + std::string(cursor->key()));
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  EXPECT_EQ(slots, (std::vector<uint32_t>{0, 2}));
}

TEST(HeapImageCursorTest, SlotsOutOfOrderFailTheReadAndTheDecode) {
  // Serialize lists slots in increasing order; an image listing slot 3
  // before slot 1 (or one slot twice) is malformed under a valid CRC.
  for (const uint64_t second : {1u, 3u}) {
    std::string image;
    PutFixed32(&image, 4);   // page id
    PutVarint64(&image, 1);  // page LSN
    PutVarint64(&image, 2);  // two records
    PutVarint64(&image, 3);
    PutLengthPrefixed(&image, "x");
    PutLengthPrefixed(&image, "1");
    PutVarint64(&image, second);
    PutLengthPrefixed(&image, "y");
    PutLengthPrefixed(&image, "2");
    PutFixed32(&image, crc32c::Mask(crc32c::Value(image)));
    Result<HeapImageCursor> cursor = HeapImageCursor::Open(image);
    ASSERT_TRUE(cursor.ok());
    EXPECT_TRUE(cursor->Next());
    EXPECT_FALSE(cursor->Next());
    EXPECT_TRUE(cursor->status().IsCorruption());
    EXPECT_TRUE(HeapPage::Deserialize(image).status().IsCorruption());
  }
}

}  // namespace
}  // namespace ariesrh::table
