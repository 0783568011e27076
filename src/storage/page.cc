#include "storage/page.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesrh {

namespace {

/// Verifies an image's trailing masked CRC and returns the length of the
/// body it covers.
Result<size_t> CheckedBodyLength(const std::string& image) {
  if (image.size() < 8) return Status::Corruption("page image too short");
  const size_t body_len = image.size() - 4;
  const uint32_t stored_crc = DecodeFixed32(image.data() + body_len);
  if (crc32c::Unmask(stored_crc) != crc32c::Value(image.data(), body_len)) {
    return Status::Corruption("page CRC mismatch");
  }
  return body_len;
}

}  // namespace

std::string Page::Serialize() const {
  std::string out;
  PutFixed32(&out, id_);
  PutFixed64(&out, page_lsn_);
  for (int64_t cell : cells_) {
    PutFixed64(&out, static_cast<uint64_t>(cell));
  }
  PutFixed32(&out, crc32c::Mask(crc32c::Value(out)));
  return out;
}

Result<Page> Page::Deserialize(const std::string& image) {
  ARIESRH_ASSIGN_OR_RETURN(const size_t body_len, CheckedBodyLength(image));
  // A fixed layout: id, page LSN, then every cell.
  constexpr size_t kBodyLen = 4 + 8 + 8 * kObjectsPerPage;
  if (body_len != kBodyLen) {
    return Status::Corruption(body_len < kBodyLen
                                  ? "truncated page image"
                                  : "trailing bytes in page image");
  }
  const char* p = image.data();
  Page page(DecodeFixed32(p));
  page.set_page_lsn(DecodeFixed64(p + 4));
  for (uint32_t slot = 0; slot < kObjectsPerPage; ++slot) {
    page.cells_[slot] = static_cast<int64_t>(DecodeFixed64(p + 12 + 8 * slot));
  }
  return page;
}

Result<Lsn> Page::PeekLsn(const std::string& image) {
  ARIESRH_ASSIGN_OR_RETURN(const size_t body_len, CheckedBodyLength(image));
  if (body_len < 12) return Status::Corruption("truncated page image");
  return DecodeFixed64(image.data() + 4);
}

}  // namespace ariesrh
