// Fixed-format data page.
//
// The database stores one int64 cell per object, kObjectsPerPage cells per
// page. Each page carries a page LSN — the LSN of the last logged update
// applied to it — which is what makes ARIES redo idempotent: a logged update
// is reapplied to a page iff the page LSN is older than the record's LSN.

#ifndef ARIESRH_STORAGE_PAGE_H_
#define ARIESRH_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <string>

#include "util/status.h"
#include "util/types.h"

namespace ariesrh {

/// An in-memory page image. Serialization appends a CRC so that a torn
/// stable write is detected as corruption rather than silently read back.
class Page {
 public:
  Page() : id_(kInvalidPage), page_lsn_(0) { cells_.fill(0); }
  explicit Page(PageId id) : id_(id), page_lsn_(0) { cells_.fill(0); }

  PageId id() const { return id_; }

  /// LSN of the most recent logged update applied to this page; 0 when the
  /// page has never been touched by a logged update.
  Lsn page_lsn() const { return page_lsn_; }
  void set_page_lsn(Lsn lsn) { page_lsn_ = lsn; }

  int64_t Get(uint32_t slot) const { return cells_.at(slot); }
  void Set(uint32_t slot, int64_t value) { cells_.at(slot) = value; }
  void Add(uint32_t slot, int64_t delta) { cells_.at(slot) += delta; }

  /// Serializes to a stable image (id, page LSN, cells, CRC).
  std::string Serialize() const;

  /// Rebuilds a page from a stable image, verifying the CRC.
  static Result<Page> Deserialize(const std::string& image);

  /// The page LSN of a stable image, read from its header after the CRC is
  /// verified; the cells are not decoded.
  static Result<Lsn> PeekLsn(const std::string& image);

 private:
  PageId id_;
  Lsn page_lsn_;
  std::array<int64_t, kObjectsPerPage> cells_;
};

}  // namespace ariesrh

#endif  // ARIESRH_STORAGE_PAGE_H_
