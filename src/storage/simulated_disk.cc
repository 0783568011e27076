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
    pages_[id] = std::move(image);
  }
  ++stats_->page_writes;
  return Status::OK();
}

Result<std::string> SimulatedDisk::ReadPage(PageId id) const {
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

void SimulatedDisk::AppendLogRecords(const std::vector<std::string>& records,
                                     uint64_t* stall_ns) {
  for (const std::string& rec : records) {
    records_.push_back(rec);
  }
  ++stats_->log_flushes;
  if (stall_ns != nullptr) {
    *stall_ns = log_force_stall_ns_;  // the caller pays, outside its locks
  } else if (log_force_stall_ns_ > 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(log_force_stall_ns_));
  }
}

void SimulatedDisk::TruncateLog(Lsn new_end) {
  if (new_end < base_lsn_) new_end = base_lsn_;
  if (new_end < stable_end_lsn()) {
    records_.resize(new_end - base_lsn_);
  }
}

Status SimulatedDisk::SetLogBase(Lsn base) {
  if (!records_.empty() || base_lsn_ != 0) {
    return Status::IllegalState("log base can only be set on an empty log");
  }
  base_lsn_ = base;
  return Status::OK();
}

uint64_t SimulatedDisk::ArchiveLogPrefix(Lsn keep_from) {
  if (keep_from <= base_lsn_ + 1) return 0;
  const Lsn new_base = std::min<Lsn>(keep_from - 1, stable_end_lsn());
  const uint64_t dropped = new_base - base_lsn_;
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<ptrdiff_t>(dropped));
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
  const bool sequential = NoteLogRead(lsn);
  if (sequential) {
    ++stats_->log_seq_reads;
  } else {
    ++stats_->log_random_reads;
  }
  const uint64_t stall = sequential ? 0 : log_random_read_stall_ns_;
  if (stall_ns != nullptr) {
    *stall_ns = stall;  // the caller pays, outside its locks
  } else if (stall > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
  }
  const std::string& rec = records_[lsn - base_lsn_ - 1];
  stats_->log_bytes_read += rec.size();
  return rec;
}

void SimulatedDisk::ReadLogRun(Lsn first, Lsn last, std::string* bytes,
                               std::vector<uint32_t>* ends) const {
  assert(first > base_lsn_ && last <= stable_end_lsn());
  for (Lsn lsn = first; lsn <= last; ++lsn) {
    bytes->append(records_[lsn - base_lsn_ - 1]);
    ends->push_back(static_cast<uint32_t>(bytes->size()));
  }
}

Status SimulatedDisk::RewriteLogRecord(Lsn lsn, std::string record) {
  if (lsn <= base_lsn_ || lsn > stable_end_lsn()) {
    return Status::InvalidArgument("rewrite of non-durable LSN " +
                                   std::to_string(lsn));
  }
  records_[lsn - base_lsn_ - 1] = std::move(record);
  ++stats_->log_rewrites;
  return Status::OK();
}

Status SimulatedDisk::CorruptLogTail(size_t n) {
  if (records_.empty()) return Status::IllegalState("stable log is empty");
  std::string& rec = records_.back();
  if (n == 0 || n > rec.size()) n = rec.size();
  for (size_t i = rec.size() - n; i < rec.size(); ++i) {
    rec[i] = static_cast<char>(~rec[i]);
  }
  return Status::OK();
}

Status SimulatedDisk::DropLastLogRecord() {
  if (records_.empty()) return Status::IllegalState("stable log is empty");
  records_.pop_back();
  return Status::OK();
}

Status SimulatedDisk::SaveTo(const std::string& path) const {
  std::string out;
  out.append("ARRH", 4);
  PutVarint64(&out, 1);  // format version
  PutVarint64(&out, master_record_);
  PutVarint64(&out, base_lsn_);
  {
    std::lock_guard lock(pages_mu_);
    PutVarint64(&out, pages_.size());
    for (const auto& [id, image] : pages_) {
      PutVarint64(&out, id);
      PutLengthPrefixed(&out, image);
    }
  }
  PutVarint64(&out, records_.size());
  for (const std::string& rec : records_) {
    PutLengthPrefixed(&out, rec);
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
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&disk.master_record_));
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&disk.base_lsn_));
  uint64_t page_count = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&page_count));
  for (uint64_t i = 0; i < page_count; ++i) {
    uint64_t id = 0;
    std::string image;
    ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&id));
    ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&image));
    disk.pages_[static_cast<PageId>(id)] = std::move(image);
  }
  uint64_t record_count = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&record_count));
  disk.records_.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    std::string rec;
    ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec));
    disk.records_.push_back(std::move(rec));
  }
  if (!dec.empty()) {
    return Status::Corruption("trailing bytes in disk image");
  }
  return disk;
}

}  // namespace ariesrh
