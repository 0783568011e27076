#include "table/heap_page.h"

#include <algorithm>
#include <utility>

#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesrh::table {

Result<uint32_t> HeapPage::Insert(std::string_view key,
                                  std::string_view value) {
  const size_t need = key.size() + value.size();
  if (live_bytes_ + need > kPayloadCapacity) {
    return Status::IllegalState("heap page full");
  }
  if (payload_.size() + need > kPayloadCapacity) Compact();
  const uint32_t slot = TakeSlot();
  Slot& s = slots_[slot];
  s.offset = static_cast<uint32_t>(payload_.size());
  s.key_len = static_cast<uint32_t>(key.size());
  s.val_len = static_cast<uint32_t>(value.size());
  s.live = true;
  payload_.append(key);
  payload_.append(value);
  live_bytes_ += need;
  ++live_records_;
  return slot;
}

Status HeapPage::Update(uint32_t slot, std::string_view value) {
  if (!SlotLive(slot)) return Status::IllegalState("heap slot not live");
  Slot& s = slots_[slot];
  if (value.size() <= s.val_len) {
    // Shrinking (or equal) rewrite in place; the tail bytes go dead.
    payload_.replace(s.offset + s.key_len, value.size(), value.data(),
                     value.size());
    live_bytes_ -= s.val_len - value.size();
    s.val_len = static_cast<uint32_t>(value.size());
    return Status::OK();
  }
  const size_t need = s.key_len + value.size();
  if (live_bytes_ - s.val_len + value.size() > kPayloadCapacity) {
    return Status::IllegalState("heap page full");
  }
  // Re-append key + new value at the tail, keeping the slot index.
  const std::string key(KeyAt(slot));
  live_bytes_ -= s.key_len + s.val_len;
  s.live = false;
  if (payload_.size() + need > kPayloadCapacity) Compact();
  Slot& moved = slots_[slot];  // Compact() leaves indices stable
  moved.offset = static_cast<uint32_t>(payload_.size());
  moved.val_len = static_cast<uint32_t>(value.size());
  moved.live = true;
  payload_.append(key);
  payload_.append(value);
  live_bytes_ += need;
  return Status::OK();
}

Status HeapPage::Remove(uint32_t slot) {
  if (!SlotLive(slot)) return Status::IllegalState("heap slot not live");
  Slot& s = slots_[slot];
  s.live = false;
  live_bytes_ -= s.key_len + s.val_len;
  --live_records_;
  return Status::OK();
}

std::string_view HeapPage::KeyAt(uint32_t slot) const {
  const Slot& s = slots_.at(slot);
  return std::string_view(payload_).substr(s.offset, s.key_len);
}

std::string_view HeapPage::ValueAt(uint32_t slot) const {
  const Slot& s = slots_.at(slot);
  return std::string_view(payload_).substr(s.offset + s.key_len, s.val_len);
}

void HeapPage::Compact() {
  std::string fresh;
  fresh.reserve(live_bytes_);
  for (Slot& s : slots_) {
    if (!s.live) continue;
    const uint32_t offset = static_cast<uint32_t>(fresh.size());
    fresh.append(payload_, s.offset, s.key_len + s.val_len);
    s.offset = offset;
  }
  payload_ = std::move(fresh);
}

uint32_t HeapPage::TakeSlot() {
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) return i;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

std::string HeapPage::Serialize() const {
  std::string out;
  // Header and CRC, plus at most three 5-byte varints per live record.
  out.reserve(4 + 2 * 10 + live_records_ * 15 + live_bytes_ + 4);
  PutFixed32(&out, id_);
  PutVarint64(&out, page_lsn_);
  PutVarint64(&out, live_records_);
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) continue;
    PutVarint64(&out, i);
    PutLengthPrefixed(&out, KeyAt(i));
    PutLengthPrefixed(&out, ValueAt(i));
  }
  PutFixed32(&out, crc32c::Mask(crc32c::Value(out)));
  return out;
}

Result<HeapPage> HeapPage::Deserialize(const std::string& image) {
  ARIESRH_ASSIGN_OR_RETURN(HeapImageCursor cursor,
                           HeapImageCursor::Open(image));
  HeapPage page(cursor.page_id());
  page.page_lsn_ = cursor.page_lsn();
  // The records' bytes are a subset of the image: one reservation holds
  // them all, and each record takes at least three bytes of it.
  page.payload_.reserve(image.size());
  page.slots_.reserve(std::min<uint64_t>(cursor.records(), image.size() / 3));
  while (cursor.Next()) {
    const uint32_t slot = cursor.slot();
    if (slot >= page.slots_.size()) page.slots_.resize(slot + 1);
    Slot& s = page.slots_[slot];
    s.offset = static_cast<uint32_t>(page.payload_.size());
    s.key_len = static_cast<uint32_t>(cursor.key().size());
    s.val_len = static_cast<uint32_t>(cursor.value().size());
    s.live = true;
    page.payload_.append(cursor.key());
    page.payload_.append(cursor.value());
    page.live_bytes_ += s.key_len + s.val_len;
    ++page.live_records_;
  }
  ARIESRH_RETURN_IF_ERROR(cursor.status());
  return page;
}

Result<Lsn> HeapPage::PeekLsn(const std::string& image) {
  ARIESRH_ASSIGN_OR_RETURN(const HeapImageCursor cursor,
                           HeapImageCursor::Open(image));
  return cursor.page_lsn();
}

Result<HeapImageCursor> HeapImageCursor::Open(const std::string& image) {
  if (image.size() < 4) return Status::Corruption("heap page too short");
  const size_t body_len = image.size() - 4;
  const uint32_t stored = DecodeFixed32(image.data() + body_len);
  if (crc32c::Unmask(stored) != crc32c::Value(image.data(), body_len)) {
    return Status::Corruption("heap page CRC mismatch");
  }
  HeapImageCursor cursor(image.data(), body_len);
  uint32_t id = 0;
  ARIESRH_RETURN_IF_ERROR(cursor.dec_.GetFixed32(&id));
  cursor.id_ = id;
  ARIESRH_RETURN_IF_ERROR(cursor.dec_.GetVarint64(&cursor.page_lsn_));
  ARIESRH_RETURN_IF_ERROR(cursor.dec_.GetVarint64(&cursor.count_));
  return cursor;
}

bool HeapImageCursor::Next() {
  if (!status_.ok()) return false;
  if (read_ == count_) {
    if (!dec_.empty()) {
      status_ = Status::Corruption("trailing bytes in heap page");
    }
    return false;
  }
  Status read = ReadRecord();
  if (!read.ok()) {
    status_ = std::move(read);
    return false;
  }
  return true;
}

Status HeapImageCursor::ReadRecord() {
  uint64_t slot = 0;
  ARIESRH_RETURN_IF_ERROR(dec_.GetVarint64(&slot));
  ARIESRH_RETURN_IF_ERROR(dec_.GetLengthPrefixed(&key_));
  ARIESRH_RETURN_IF_ERROR(dec_.GetLengthPrefixed(&value_));
  // Serialize writes slots in increasing order, which also rules out a slot
  // listed twice.
  if ((read_ > 0 && slot <= slot_) || slot > UINT32_MAX) {
    return Status::Corruption("heap page slots out of order");
  }
  live_bytes_ += key_.size() + value_.size();
  if (live_bytes_ > HeapPage::kPayloadCapacity) {
    return Status::Corruption("heap page payload overflow");
  }
  slot_ = static_cast<uint32_t>(slot);
  ++read_;
  return Status::OK();
}

}  // namespace ariesrh::table
