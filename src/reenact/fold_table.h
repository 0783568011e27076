// The table a materialising reenactment fold replays into
// (docs/REENACTMENT.md §6).
//
// Table redo is logical and state-based: after replay a key holds its last
// replayed action (the after image, or absence), whichever page held it. So
// a fold needs no heap. It keeps the shard's base heap images — the stable
// pages the anchoring checkpoint left, shared with the reenactor's snapshot
// and never copied — under an overlay of the last replayed action per key.
// The forward pass and the scratch undo write only to the overlay. A point
// read consults the overlay, then the key's base chain. Extraction walks
// every base image once, in place, skips the keys the overlay shadows and
// merges the overlay in; no page is decoded into a HeapPage, and no bucket
// is loaded or indexed.
//
// Every check a TableHeap bucket load makes holds on the base images read
// here, each failing with Corruption naming the page: the CRC, the page id
// against the image's header, each key's bucket, and no key stable twice in
// its chain.

#ifndef ARIESRH_REENACT_FOLD_TABLE_H_
#define ARIESRH_REENACT_FOLD_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace ariesrh::reenact {

class FoldTable final : public table::ReplayTarget {
 public:
  /// `base` holds the shard's stable pages (heap pages at and above
  /// table::kHeapPageBase are read); nullptr when the fold replays from an
  /// empty state. It must outlive the table.
  explicit FoldTable(const PageImages* base) : base_(base) {}

  Status ApplyLogical(const LogRecord& rec) override;
  Status ApplyLogical(const RedoEntry& entry) override;

  /// The key's value at this point of the replay (nullopt = absent): the
  /// overlay's action on it, else its base chain's record. The key's whole
  /// base chain is read and checked either way.
  Result<std::optional<std::string>> Read(std::string_view key) const;

  /// Inserts every record present after the replay into `out`, in key
  /// order: the base records the overlay does not shadow, and the overlay's
  /// upserts. Every base heap page is read and checked.
  Status ExtractInto(std::map<std::string, std::string>* out) const;

 private:
  /// A base record, read in place: views into its page image.
  struct BaseRecord {
    /// The key's first eight bytes, big-endian and zero-padded: records
    /// whose prefixes differ order as their prefixes do, so most of the
    /// sort's comparisons are one integer compare.
    uint64_t prefix = 0;
    std::string_view key;
    std::string_view value;
    PageId page = kInvalidPage;
  };

  /// Collects the records of the base heap pages of `bucket` (every bucket
  /// when nullopt), checked, into `out` in key order.
  Status ReadBase(std::optional<size_t> bucket,
                  std::vector<BaseRecord>* out) const;
  Status Apply(table::RecordOp op, std::string_view key,
               std::string_view after_image);

  const PageImages* base_;
  /// The last replayed action per key: its after image, or nullopt once
  /// the key was dropped.
  std::map<std::string, std::optional<std::string>, std::less<>> overlay_;
};

}  // namespace ariesrh::reenact

#endif  // ARIESRH_REENACT_FOLD_TABLE_H_
