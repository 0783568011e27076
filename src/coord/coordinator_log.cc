#include "coord/coordinator_log.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesrh::coord {

const char* CoordRecordTypeName(CoordRecordType type) {
  switch (type) {
    case CoordRecordType::kPrepare:
      return "PREPARE";
    case CoordRecordType::kCommit:
      return "COMMIT";
    case CoordRecordType::kAbort:
      return "ABORT";
  }
  return "UNKNOWN";
}

std::string CoordRecord::Serialize() const {
  std::string out;
  PutFixed8(&out, static_cast<uint8_t>(type));
  PutFixed8(&out, static_cast<uint8_t>(kind));
  PutVarint64(&out, csn);
  PutVarint64(&out, txn == kInvalidTxn ? 0 : txn);
  PutVarint64(&out, txn2 == kInvalidTxn ? 0 : txn2);
  PutVarint64(&out, shards.size());
  for (uint32_t shard : shards) PutVarint64(&out, shard);
  PutFixed32(&out, crc32c::Mask(crc32c::Value(out)));
  return out;
}

Result<CoordRecord> CoordRecord::Deserialize(const std::string& image) {
  if (image.size() < 5) {
    return Status::Corruption("coordinator record too short");
  }
  const size_t body_len = image.size() - 4;
  {
    Decoder crc_dec(image.data() + body_len, 4);
    uint32_t stored = 0;
    ARIESRH_RETURN_IF_ERROR(crc_dec.GetFixed32(&stored));
    if (crc32c::Unmask(stored) != crc32c::Value(image.data(), body_len)) {
      return Status::Corruption("coordinator record CRC mismatch");
    }
  }

  Decoder dec(image.data(), body_len);
  CoordRecord rec;
  uint8_t type_byte = 0, kind_byte = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetFixed8(&type_byte));
  ARIESRH_RETURN_IF_ERROR(dec.GetFixed8(&kind_byte));
  if (type_byte < static_cast<uint8_t>(CoordRecordType::kPrepare) ||
      type_byte > static_cast<uint8_t>(CoordRecordType::kAbort)) {
    return Status::Corruption("unknown coordinator record type");
  }
  if (kind_byte < static_cast<uint8_t>(CoordRoundKind::kCommitTxn) ||
      kind_byte > static_cast<uint8_t>(CoordRoundKind::kDelegate)) {
    return Status::Corruption("unknown coordinator round kind");
  }
  rec.type = static_cast<CoordRecordType>(type_byte);
  rec.kind = static_cast<CoordRoundKind>(kind_byte);
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec.csn));
  uint64_t raw = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
  rec.txn = raw == 0 ? kInvalidTxn : raw;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
  rec.txn2 = raw == 0 ? kInvalidTxn : raw;
  uint64_t count = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&count));
  rec.shards.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t shard = 0;
    ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&shard));
    rec.shards.push_back(static_cast<uint32_t>(shard));
  }
  if (!dec.empty()) {
    return Status::Corruption("trailing bytes in coordinator record");
  }
  return rec;
}

std::string CoordRecord::ToString() const {
  std::ostringstream os;
  os << "[csn" << csn << " " << CoordRecordTypeName(type)
     << (kind == CoordRoundKind::kDelegate ? " delegate" : " commit") << " t"
     << txn;
  if (txn2 != kInvalidTxn) os << "=>t" << txn2;
  os << " shards{";
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i) os << ",";
    os << shards[i];
  }
  os << "}]";
  return os.str();
}

Resolution Resolution::FromRecords(const std::vector<CoordRecord>& records) {
  Resolution res;
  for (const CoordRecord& rec : records) {
    res.max_csn = std::max(res.max_csn, rec.csn);
    if (rec.type == CoordRecordType::kCommit) res.committed.insert(rec.csn);
  }
  return res;
}

CoordinatorLog::CoordinatorLog(obs::MetricsRegistry* registry,
                               uint64_t force_stall_ns)
    : force_stall_ns_(force_stall_ns) {
  if (registry != nullptr) {
    appends_ = registry->GetCounter("ariesrh_coord_appends");
    forces_ = registry->GetCounter("ariesrh_coord_forces");
    commits_ = registry->GetCounter("ariesrh_coord_commits");
    aborts_ = registry->GetCounter("ariesrh_coord_aborts");
  }
}

void CoordinatorLog::Append(const CoordRecord& record) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    volatile_.push_back(record);
  }
  if (appends_ != nullptr) appends_->Inc();
  if (record.type == CoordRecordType::kCommit && commits_ != nullptr) {
    commits_->Inc();
  }
  if (record.type == CoordRecordType::kAbort && aborts_ != nullptr) {
    aborts_->Inc();
  }
}

Status CoordinatorLog::Force() {
  std::unique_lock lock(mu_);
  // Every record this caller appended is now either still volatile (taken
  // by this force) or already carried by a concurrent one: either way it
  // sits below `written_` once the batch below is moved.
  const uint64_t begin = written_;
  for (const CoordRecord& rec : volatile_) stable_.push_back(rec.Serialize());
  written_ += volatile_.size();
  volatile_.clear();
  const uint64_t target = written_;
  if (target > begin) {
    // Pay this batch's device stall outside the lock so forces overlap;
    // its records count as durable only once the stall ends.
    in_flight_.insert(begin);
    lock.unlock();
    if (forces_ != nullptr) forces_->Inc();
    if (force_stall_ns_ > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(force_stall_ns_));
    }
    lock.lock();
    in_flight_.erase(begin);
    durable_ = in_flight_.empty() ? written_ : *in_flight_.begin();
    durable_cv_.notify_all();
  }
  // A record another force carried is acked only once that force's stall
  // ends, never on sight in stable_.
  durable_cv_.wait(lock, [&] { return durable_ >= target; });
  return Status::OK();
}

void CoordinatorLog::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  volatile_.clear();
}

std::vector<CoordRecord> CoordinatorLog::StableRecords() const {
  std::vector<std::string> images;
  {
    std::lock_guard<std::mutex> lock(mu_);
    images = stable_;
  }
  std::vector<CoordRecord> records;
  records.reserve(images.size());
  for (const std::string& image : images) {
    auto rec = CoordRecord::Deserialize(image);
    // The stable vector only ever holds images this process serialized (or
    // AppendStableImages verified), so a decode failure is a logic bug, not
    // a torn tail; drop the record rather than crash.
    if (rec.ok()) records.push_back(std::move(rec.value()));
  }
  return records;
}

std::vector<std::string> CoordinatorLog::StableImagesFrom(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from >= stable_.size()) return {};
  return std::vector<std::string>(stable_.begin() + static_cast<long>(from),
                                  stable_.end());
}

Status CoordinatorLog::AppendStableImages(
    const std::vector<std::string>& images) {
  // Verify before admitting: a standby's coordinator log must never hold an
  // image it cannot later resolve from.
  for (const std::string& image : images) {
    ARIESRH_RETURN_IF_ERROR(CoordRecord::Deserialize(image).status());
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& image : images) stable_.push_back(image);
  return Status::OK();
}

size_t CoordinatorLog::stable_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stable_.size();
}

Status CoordinatorLog::WriteImagesFile(const std::string& path,
                                       const std::vector<std::string>& images) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  for (const std::string& image : images) {
    const uint32_t len = static_cast<uint32_t>(image.size());
    char header[4];
    header[0] = static_cast<char>(len & 0xff);
    header[1] = static_cast<char>((len >> 8) & 0xff);
    header[2] = static_cast<char>((len >> 16) & 0xff);
    header[3] = static_cast<char>((len >> 24) & 0xff);
    out.write(header, sizeof(header));
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<std::vector<std::string>> CoordinatorLog::ReadImagesFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> images;
  if (!in) return images;
  for (;;) {
    char header[4];
    in.read(header, sizeof(header));
    if (in.gcount() == 0 && in.eof()) break;
    if (in.gcount() != sizeof(header)) {
      return Status::Corruption("truncated coordinator sidecar " + path);
    }
    const uint32_t len = static_cast<uint32_t>(
        static_cast<uint8_t>(header[0]) |
        (static_cast<uint8_t>(header[1]) << 8) |
        (static_cast<uint8_t>(header[2]) << 16) |
        (static_cast<uint8_t>(header[3]) << 24));
    std::string image(len, '\0');
    in.read(image.data(), static_cast<std::streamsize>(len));
    if (in.gcount() != static_cast<std::streamsize>(len)) {
      return Status::Corruption("truncated coordinator sidecar " + path);
    }
    images.push_back(std::move(image));
  }
  return images;
}

}  // namespace ariesrh::coord
