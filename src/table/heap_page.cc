#include "table/heap_page.h"

#include <algorithm>

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

namespace {

/// Verifies an image's trailing masked CRC and returns the length of the
/// body it covers.
Result<size_t> CheckedBodyLength(const std::string& image) {
  if (image.size() < 4) return Status::Corruption("heap page too short");
  const size_t body_len = image.size() - 4;
  const uint32_t stored = DecodeFixed32(image.data() + body_len);
  if (crc32c::Unmask(stored) != crc32c::Value(image.data(), body_len)) {
    return Status::Corruption("heap page CRC mismatch");
  }
  return body_len;
}

}  // namespace

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
  ARIESRH_ASSIGN_OR_RETURN(const size_t body_len, CheckedBodyLength(image));
  Decoder dec(image.data(), body_len);
  HeapPage page;
  uint32_t id = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetFixed32(&id));
  page.id_ = id;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&page.page_lsn_));
  uint64_t count = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&count));
  // The records' bytes are a subset of the body: one reservation holds
  // them all, and each record takes at least three bytes of it.
  page.payload_.reserve(dec.remaining());
  page.slots_.reserve(std::min<uint64_t>(count, dec.remaining() / 3));
  for (uint64_t n = 0; n < count; ++n) {
    uint64_t slot = 0;
    std::string_view key, value;
    ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&slot));
    ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&key));
    ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&value));
    if (slot >= page.slots_.size()) page.slots_.resize(slot + 1);
    if (page.slots_[slot].live) {
      return Status::Corruption("heap page duplicate slot");
    }
    Slot& s = page.slots_[slot];
    s.offset = static_cast<uint32_t>(page.payload_.size());
    s.key_len = static_cast<uint32_t>(key.size());
    s.val_len = static_cast<uint32_t>(value.size());
    s.live = true;
    page.payload_.append(key);
    page.payload_.append(value);
    page.live_bytes_ += key.size() + value.size();
    ++page.live_records_;
  }
  if (!dec.empty()) return Status::Corruption("trailing bytes in heap page");
  if (page.live_bytes_ > kPayloadCapacity) {
    return Status::Corruption("heap page payload overflow");
  }
  return page;
}

Result<Lsn> HeapPage::PeekLsn(const std::string& image) {
  ARIESRH_ASSIGN_OR_RETURN(const size_t body_len, CheckedBodyLength(image));
  Decoder dec(image.data(), body_len);
  uint32_t id = 0;
  uint64_t page_lsn = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetFixed32(&id));
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&page_lsn));
  return page_lsn;
}

}  // namespace ariesrh::table
