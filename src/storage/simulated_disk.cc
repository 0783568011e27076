#include "storage/simulated_disk.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <thread>

#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesrh {

Status SimulatedDisk::WritePage(PageId id, std::string image) {
  {
    std::lock_guard lock(pages_mu_);
    pages_[id] = std::make_shared<const std::string>(std::move(image));
  }
  ++stats_->page_writes;
  return Status::OK();
}

Result<PageImage> SimulatedDisk::ReadPage(PageId id) const {
  std::lock_guard lock(pages_mu_);
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id) + " not on disk");
  }
  ++stats_->page_reads;
  return it->second;
}

std::vector<PageId> SimulatedDisk::StablePageIds() const {
  std::vector<PageId> ids;
  {
    std::lock_guard lock(pages_mu_);
    ids.reserve(pages_.size());
    for (const auto& [id, image] : pages_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t SimulatedDisk::SegmentOf(Lsn lsn) const {
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), lsn,
      [](Lsn l, const LogSegment& seg) { return l < seg.first; });
  assert(it != segments_.begin());
  return static_cast<size_t>(it - segments_.begin()) - 1;
}

void SimulatedDisk::AppendLogRecord(std::string_view record) {
  if (segments_.empty() ||
      segments_.back().bytes->size() + record.size() > kLogSegmentBytes) {
    const Lsn first = stable_end_lsn() + 1;
    LogSegment& seg = segments_.emplace_back();
    seg.bytes = std::make_shared<std::string>();
    seg.bytes->reserve(std::max(kLogSegmentBytes, record.size()));
    seg.first = first;
  }
  LogSegment& seg = segments_.back();
  seg.bytes->append(record);
  seg.ends.push_back(static_cast<uint32_t>(seg.bytes->size()));
}

void SimulatedDisk::ForceLog(uint64_t* stall_ns) {
  ++stats_->log_flushes;
  if (stall_ns != nullptr) {
    *stall_ns = log_force_stall_ns_;  // the caller pays, outside its locks
  } else if (log_force_stall_ns_ > 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(log_force_stall_ns_));
  }
}

void SimulatedDisk::AppendLogRecords(const std::vector<std::string>& records,
                                     uint64_t* stall_ns) {
  for (const std::string& rec : records) AppendLogRecord(rec);
  ForceLog(stall_ns);
}

void SimulatedDisk::TruncateLog(Lsn new_end) {
  new_end = std::max(new_end, base_lsn_);
  while (!segments_.empty() && segments_.back().first > new_end) {
    segments_.pop_back();
  }
  if (segments_.empty()) return;
  // The new last segment keeps only its records up to new_end, and its
  // buffer ends with them, so appends continue right after.
  LogSegment& seg = segments_.back();
  if (seg.last() > new_end) seg.ends.resize(new_end - seg.first + 1);
  seg.bytes->resize(seg.ends.back());
}

Status SimulatedDisk::SetLogBase(Lsn base) {
  if (stable_end_lsn() != 0) {
    return Status::IllegalState("log base can only be set on an empty log");
  }
  base_lsn_ = base;
  return Status::OK();
}

uint64_t SimulatedDisk::ArchiveLogPrefix(Lsn keep_from) {
  if (keep_from <= base_lsn_ + 1) return 0;
  const Lsn new_base = std::min<Lsn>(keep_from - 1, stable_end_lsn());
  while (!segments_.empty() && segments_.front().last() <= new_base) {
    segments_.pop_front();
  }
  const uint64_t dropped = new_base - base_lsn_;
  base_lsn_ = new_base;
  return dropped;
}

Result<std::string> SimulatedDisk::ReadLogRecord(Lsn lsn,
                                                 uint64_t* stall_ns) const {
  if (lsn <= base_lsn_) {
    return Status::NotFound("LSN " + std::to_string(lsn) + " was archived");
  }
  if (lsn < kFirstLsn || lsn > stable_end_lsn()) {
    return Status::NotFound("LSN " + std::to_string(lsn) +
                            " not in stable log");
  }
  const LogSegment& seg = segments_[SegmentOf(lsn)];
  const std::string_view rec = seg.record(lsn - seg.first);
  CountLogRead(lsn, rec.size(), stall_ns);
  return std::string(rec);
}

void SimulatedDisk::CountLogRead(Lsn lsn, size_t bytes,
                                 uint64_t* stall_ns) const {
  const bool sequential = NoteLogRead(lsn);
  if (sequential) {
    ++stats_->log_seq_reads;
  } else {
    ++stats_->log_random_reads;
  }
  stats_->log_bytes_read += bytes;
  const uint64_t stall = sequential ? 0 : log_random_read_stall_ns_;
  if (stall_ns != nullptr) {
    *stall_ns = stall;  // the caller pays, outside its locks
  } else if (stall > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
  }
}

void SimulatedDisk::ReadLogRun(Lsn first, Lsn last, std::string* bytes,
                               std::vector<uint32_t>* ends) const {
  assert(first > base_lsn_ && last <= stable_end_lsn());
  for (size_t s = SegmentOf(first); first <= last; ++s) {
    const LogSegment& seg = segments_[s];
    const size_t i = first - seg.first;
    const size_t j = std::min(last, seg.last()) - seg.first;
    const uint32_t from = seg.start(i);
    const uint32_t base = static_cast<uint32_t>(bytes->size());
    bytes->append(*seg.bytes, from, seg.ends[j] - from);
    for (size_t k = i; k <= j; ++k) ends->push_back(seg.ends[k] - from + base);
    first = seg.first + j + 1;
  }
}

Status SimulatedDisk::RewriteLogRecord(Lsn lsn, std::string record) {
  if (lsn <= base_lsn_ || lsn > stable_end_lsn()) {
    return Status::InvalidArgument("rewrite of non-durable LSN " +
                                   std::to_string(lsn));
  }
  ++stats_->log_rewrites;
  const size_t s = SegmentOf(lsn);
  LogSegment& seg = segments_[s];
  const size_t i = lsn - seg.first;
  const uint32_t from = seg.start(i);
  if (record.size() == seg.ends[i] - from) {
    record.copy(seg.bytes->data() + from, record.size());
    return Status::OK();
  }
  // Split around the record: [first, lsn) keeps the segment, the new image
  // is a segment of its own, and (lsn, last] shares the old buffer.
  LogSegment rest;
  if (i + 1 < seg.ends.size()) {
    rest = LogSegment{seg.bytes, lsn + 1, seg.ends[i],
                      std::vector<uint32_t>(seg.ends.begin() + i + 1,
                                            seg.ends.end())};
  }
  const uint32_t size = static_cast<uint32_t>(record.size());
  LogSegment mine{std::make_shared<std::string>(std::move(record)), lsn, 0,
                  {size}};
  auto at = segments_.begin() + static_cast<ptrdiff_t>(s);
  if (i == 0) {
    *at = std::move(mine);
  } else {
    seg.ends.resize(i);
    at = segments_.insert(at + 1, std::move(mine));
  }
  if (!rest.ends.empty()) segments_.insert(at + 1, std::move(rest));
  return Status::OK();
}

Status SimulatedDisk::CorruptLogTail(size_t n) {
  if (stable_end_lsn() == base_lsn_) {
    return Status::IllegalState("stable log is empty");
  }
  LogSegment& seg = segments_.back();
  const uint32_t from = seg.start(seg.ends.size() - 1);
  const uint32_t to = seg.ends.back();
  if (n == 0 || n > to - from) n = to - from;
  for (size_t i = to - n; i < to; ++i) {
    (*seg.bytes)[i] = static_cast<char>(~(*seg.bytes)[i]);
  }
  return Status::OK();
}

Status SimulatedDisk::DropLastLogRecord() {
  if (stable_end_lsn() == base_lsn_) {
    return Status::IllegalState("stable log is empty");
  }
  TruncateLog(stable_end_lsn() - 1);
  return Status::OK();
}

Status SimulatedDisk::SaveTo(const std::string& path) const {
  std::string out;
  out.append("ARRH", 4);
  PutVarint64(&out, 1);  // format version
  PutVarint64(&out, master_record());
  PutVarint64(&out, base_lsn_);
  {
    std::lock_guard lock(pages_mu_);
    PutVarint64(&out, pages_.size());
    for (const auto& [id, image] : pages_) {
      PutVarint64(&out, id);
      PutLengthPrefixed(&out, *image);
    }
  }
  PutVarint64(&out, stable_end_lsn() - base_lsn_);
  for (const LogSegment& seg : segments_) {
    for (size_t i = 0; i < seg.ends.size(); ++i) {
      if (seg.first + i > base_lsn_) PutLengthPrefixed(&out, seg.record(i));
    }
  }
  PutFixed32(&out, crc32c::Mask(crc32c::Value(out)));

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IOError("cannot open " + path + " for write");
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  file.flush();
  if (!file) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<SimulatedDisk> SimulatedDisk::LoadFrom(const std::string& path,
                                              Stats* stats) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return Status::IOError("cannot open " + path);
  // One read into a buffer sized from the file.
  std::string data(static_cast<size_t>(std::max<std::streamoff>(
                       0, file.tellg())),
                   '\0');
  file.seekg(0);
  file.read(data.data(), static_cast<std::streamsize>(data.size()));
  data.resize(static_cast<size_t>(file.gcount()));
  if (data.size() < 9 || data.compare(0, 4, "ARRH") != 0) {
    return Status::Corruption("not a saved disk image: " + path);
  }
  const size_t body_len = data.size() - 4;
  {
    Decoder crc_dec(data.data() + body_len, 4);
    uint32_t stored = 0;
    ARIESRH_RETURN_IF_ERROR(crc_dec.GetFixed32(&stored));
    if (crc32c::Unmask(stored) != crc32c::Value(data.data(), body_len)) {
      return Status::Corruption("disk image CRC mismatch: " + path);
    }
  }

  Decoder dec(data.data() + 4, body_len - 4);
  SimulatedDisk disk(stats);
  uint64_t version = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&version));
  if (version != 1) return Status::Corruption("unknown disk image version");
  uint64_t master = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&master));
  disk.SetMasterRecord(master);
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&disk.base_lsn_));
  uint64_t page_count = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&page_count));
  for (uint64_t i = 0; i < page_count; ++i) {
    uint64_t id = 0;
    std::string image;
    ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&id));
    ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&image));
    disk.pages_[static_cast<PageId>(id)] =
        std::make_shared<const std::string>(std::move(image));
  }
  uint64_t record_count = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&record_count));
  for (uint64_t i = 0; i < record_count; ++i) {
    std::string_view rec;
    ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec));
    disk.AppendLogRecord(rec);
  }
  if (!dec.empty()) {
    return Status::Corruption("trailing bytes in disk image");
  }
  return disk;
}

}  // namespace ariesrh
