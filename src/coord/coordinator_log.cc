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

namespace {

/// The one decoder behind Deserialize and DeserializeVerdict: checks the
/// CRC and every field, and fills `shards` only when it is not null.
Status DecodeImage(std::string_view image, CoordRecord* rec,
                   std::vector<uint32_t>* shards) {
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
  rec->type = static_cast<CoordRecordType>(type_byte);
  rec->kind = static_cast<CoordRoundKind>(kind_byte);
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->csn));
  uint64_t raw = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
  rec->txn = raw == 0 ? kInvalidTxn : raw;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
  rec->txn2 = raw == 0 ? kInvalidTxn : raw;
  uint64_t count = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&count));
  if (shards != nullptr) shards->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t shard = 0;
    ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&shard));
    if (shards != nullptr) shards->push_back(static_cast<uint32_t>(shard));
  }
  if (!dec.empty()) {
    return Status::Corruption("trailing bytes in coordinator record");
  }
  return Status::OK();
}

void PutFrameLength(std::string* out, size_t len) {
  const auto n = static_cast<uint32_t>(len);
  const char header[4] = {static_cast<char>(n & 0xff),
                          static_cast<char>((n >> 8) & 0xff),
                          static_cast<char>((n >> 16) & 0xff),
                          static_cast<char>((n >> 24) & 0xff)};
  out->append(header, sizeof(header));
}

uint32_t GetFrameLength(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0]) |
                               (static_cast<uint8_t>(p[1]) << 8) |
                               (static_cast<uint8_t>(p[2]) << 16) |
                               (static_cast<uint8_t>(p[3]) << 24));
}

/// Calls `fn(start, image)` for each frame of `framed` in order; fails on a
/// truncated frame.
template <typename Fn>
Status ForEachFrame(std::string_view framed, const std::string& source,
                    Fn fn) {
  size_t at = 0;
  while (at < framed.size()) {
    if (framed.size() - at < 4) {
      return Status::Corruption("truncated " + source);
    }
    const size_t len = GetFrameLength(framed.data() + at);
    if (framed.size() - at - 4 < len) {
      return Status::Corruption("truncated " + source);
    }
    ARIESRH_RETURN_IF_ERROR(fn(at, framed.substr(at + 4, len)));
    at += 4 + len;
  }
  return Status::OK();
}

}  // namespace

Result<CoordRecord> CoordRecord::Deserialize(std::string_view image) {
  CoordRecord rec;
  ARIESRH_RETURN_IF_ERROR(DecodeImage(image, &rec, &rec.shards));
  return rec;
}

Result<CoordRecord::Verdict> CoordRecord::DeserializeVerdict(
    std::string_view image) {
  CoordRecord rec;
  ARIESRH_RETURN_IF_ERROR(DecodeImage(image, &rec, nullptr));
  return Verdict{rec.type, rec.csn};
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
  for (const CoordRecord& rec : records) res.Add({rec.type, rec.csn});
  return res;
}

void Resolution::Add(const CoordRecord::Verdict& verdict) {
  max_csn = std::max(max_csn, verdict.csn);
  if (verdict.type != CoordRecordType::kCommit) return;
  // COMMITs become durable in nearly ascending csn order, so the insert
  // lands at or near the end.
  const auto it =
      std::lower_bound(committed.begin(), committed.end(), verdict.csn);
  if (it == committed.end() || *it != verdict.csn) {
    committed.insert(it, verdict.csn);
  }
}

bool Resolution::IsCommitted(uint64_t csn) const {
  return std::binary_search(committed.begin(), committed.end(), csn);
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
  for (const CoordRecord& rec : volatile_) {
    AppendStableLocked(rec.Serialize(), {rec.type, rec.csn});
  }
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
  std::string framed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    framed = stable_;
  }
  std::vector<CoordRecord> records;
  // The stable bytes only ever hold images this process serialized (or
  // AppendFramed verified), so a decode failure is a logic bug, not a torn
  // tail; drop the record rather than crash.
  ForEachFrame(framed, "coordinator log", [&](size_t, std::string_view image) {
    if (auto rec = CoordRecord::Deserialize(image); rec.ok()) {
      records.push_back(std::move(rec.value()));
    }
    return Status::OK();
  }).ok();
  return records;
}

Resolution CoordinatorLog::resolution() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resolution_;
}

std::vector<std::string> CoordinatorLog::StableImagesFrom(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> images;
  for (size_t i = from; i < stable_starts_.size(); ++i) {
    const size_t start = stable_starts_[i];
    images.emplace_back(stable_.data() + start + 4,
                        GetFrameLength(stable_.data() + start));
  }
  return images;
}

Status CoordinatorLog::AppendStableImages(
    const std::vector<std::string>& images) {
  std::string framed;
  for (const std::string& image : images) {
    PutFrameLength(&framed, image.size());
    framed += image;
  }
  return AppendFramed(framed, "shipped coordinator images");
}

Status CoordinatorLog::AppendFramed(std::string_view framed,
                                    const std::string& source) {
  // Verify before admitting: a coordinator log must never hold an image it
  // cannot later resolve from. Each image is decoded here, once.
  std::vector<std::pair<size_t, CoordRecord::Verdict>> frames;
  ARIESRH_RETURN_IF_ERROR(ForEachFrame(
      framed, source, [&](size_t start, std::string_view image) -> Status {
        ARIESRH_ASSIGN_OR_RETURN(CoordRecord::Verdict verdict,
                                 CoordRecord::DeserializeVerdict(image));
        frames.emplace_back(start, verdict);
        return Status::OK();
      }));
  std::lock_guard<std::mutex> lock(mu_);
  const size_t base = stable_.size();
  stable_.append(framed);
  for (const auto& [start, verdict] : frames) {
    stable_starts_.push_back(base + start);
    resolution_.Add(verdict);
  }
  return Status::OK();
}

void CoordinatorLog::AppendStableLocked(std::string_view image,
                                        const CoordRecord::Verdict& verdict) {
  stable_starts_.push_back(stable_.size());
  PutFrameLength(&stable_, image.size());
  stable_.append(image);
  resolution_.Add(verdict);
}

size_t CoordinatorLog::stable_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stable_starts_.size();
}

Status CoordinatorLog::SaveSidecar(const std::string& path) const {
  std::string framed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    framed = stable_;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Status CoordinatorLog::LoadSidecar(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::OK();
  // One read into a buffer sized from the file.
  std::string framed(
      static_cast<size_t>(std::max<std::streamoff>(0, in.tellg())), '\0');
  in.seekg(0);
  in.read(framed.data(), static_cast<std::streamsize>(framed.size()));
  framed.resize(static_cast<size_t>(in.gcount()));
  return AppendFramed(framed, "coordinator sidecar " + path);
}

}  // namespace ariesrh::coord
