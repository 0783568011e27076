// Slotted heap page: variable-length key/value records behind a slot
// directory, alongside the fixed-cell Page (storage/page.h).
//
// Layout (in memory): a payload area filled front-to-back plus a slot
// directory of (offset, key_len, val_len, live). Slot indices are stable for
// the lifetime of a record on the page — compaction rewrites offsets, never
// indices — so the table's key index can hold (page, slot) locations across
// compactions. Like Page, a heap page carries a page LSN (the newest logged
// table write applied to it) for the WAL rule on write-back, and serializes
// with a trailing masked CRC so torn stable writes surface as corruption.

#ifndef ARIESRH_TABLE_HEAP_PAGE_H_
#define ARIESRH_TABLE_HEAP_PAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/coding.h"
#include "util/status.h"
#include "util/types.h"

namespace ariesrh::table {

class HeapPage {
 public:
  /// Payload bytes per page (keys + values; the slot directory is bookkeeping
  /// and not charged against this).
  static constexpr size_t kPayloadCapacity = 4096;

  HeapPage() : id_(kInvalidPage) {}
  explicit HeapPage(PageId id) : id_(id) {}

  PageId id() const { return id_; }
  Lsn page_lsn() const { return page_lsn_; }
  void set_page_lsn(Lsn lsn) { page_lsn_ = lsn; }

  /// True if a record of this size fits, counting space reclaimable by
  /// compaction.
  bool HasSpaceFor(std::string_view key, std::string_view value) const {
    return live_bytes_ + key.size() + value.size() <= kPayloadCapacity;
  }

  /// Stores a new record, compacting first if the payload tail is full but
  /// dead bytes would make room. Returns the slot index; IllegalState when
  /// the record does not fit (the caller places it on another page).
  Result<uint32_t> Insert(std::string_view key, std::string_view value);

  /// Replaces the value of the record in `slot`, keeping its slot index.
  /// IllegalState when the new value does not fit even after compaction.
  Status Update(uint32_t slot, std::string_view value);

  /// Drops the record in `slot`; its bytes become reclaimable.
  Status Remove(uint32_t slot);

  bool SlotLive(uint32_t slot) const {
    return slot < slots_.size() && slots_[slot].live;
  }
  std::string_view KeyAt(uint32_t slot) const;
  std::string_view ValueAt(uint32_t slot) const;

  uint32_t slot_count() const { return static_cast<uint32_t>(slots_.size()); }
  size_t live_records() const { return live_records_; }
  size_t live_bytes() const { return live_bytes_; }

  /// Serializes to a stable image (id, page LSN, live records with their
  /// slot indices, CRC). Dead bytes are not persisted; deserialization
  /// yields a compact page with identical slot indices.
  std::string Serialize() const;

  /// Rebuilds a page from a stable image, verifying the CRC (through a
  /// HeapImageCursor, so both reject the same images).
  static Result<HeapPage> Deserialize(const std::string& image);

  /// The page LSN of a stable image, read from its header after the CRC is
  /// verified; the records are not decoded.
  static Result<Lsn> PeekLsn(const std::string& image);

 private:
  struct Slot {
    uint32_t offset = 0;
    uint32_t key_len = 0;
    uint32_t val_len = 0;
    bool live = false;
  };

  /// Rewrites the payload to hold only live records; slot indices (and the
  /// relative order of live records) are preserved, offsets change.
  void Compact();
  uint32_t TakeSlot();

  PageId id_;
  Lsn page_lsn_ = 0;
  std::string payload_;
  std::vector<Slot> slots_;
  size_t live_bytes_ = 0;
  size_t live_records_ = 0;
};

/// Reads a stable heap image's live records in place, in slot order, the
/// way a LogCursor reads the log: Next() steps to the next record and is
/// false at the end or on an error, which status() then holds. Keys and
/// values are views into the image, which must outlive the cursor. Open
/// verifies the CRC and reads the header; a malformed body (a truncated
/// field, slots out of order, a payload over capacity, trailing bytes)
/// fails with Corruption.
class HeapImageCursor {
 public:
  static Result<HeapImageCursor> Open(const std::string& image);

  PageId page_id() const { return id_; }
  Lsn page_lsn() const { return page_lsn_; }
  /// Live records the header announces.
  uint64_t records() const { return count_; }

  bool Next();
  const Status& status() const { return status_; }

  /// The current record (valid after Next() returned true).
  uint32_t slot() const { return slot_; }
  std::string_view key() const { return key_; }
  std::string_view value() const { return value_; }

 private:
  HeapImageCursor(const char* body, size_t body_len) : dec_(body, body_len) {}
  Status ReadRecord();

  Decoder dec_;
  Status status_;
  PageId id_ = kInvalidPage;
  Lsn page_lsn_ = 0;
  uint64_t count_ = 0;
  uint64_t read_ = 0;
  size_t live_bytes_ = 0;
  uint32_t slot_ = 0;
  std::string_view key_;
  std::string_view value_;
};

}  // namespace ariesrh::table

#endif  // ARIESRH_TABLE_HEAP_PAGE_H_
