#include "wal/log_record.h"

#include <cstring>
#include <sstream>

#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesrh {

namespace {

// LSN 0 is reserved, so serialization maps kInvalidLsn to 0 to keep the
// common "no previous record" case at one varint byte.
void PutLsn(std::string* dst, Lsn lsn) {
  PutVarint64(dst, lsn == kInvalidLsn ? 0 : lsn);
}

Status GetLsn(Decoder* dec, Lsn* lsn) {
  uint64_t raw = 0;
  ARIESRH_RETURN_IF_ERROR(dec->GetVarint64(&raw));
  *lsn = raw == 0 ? kInvalidLsn : raw;
  return Status::OK();
}

// Renders a table value for traces: short printable values verbatim in
// quotes, anything else as its byte length.
std::string ImageDigest(const std::string& image) {
  bool printable = image.size() <= 16;
  for (char c : image) {
    if (c < 0x20 || c > 0x7e) printable = false;
  }
  if (printable) return "\"" + image + "\"";
  return "<" + std::to_string(image.size()) + "B>";
}

}  // namespace

const char* LogRecordTypeName(LogRecordType type) {
  switch (type) {
    case LogRecordType::kBegin:
      return "BEGIN";
    case LogRecordType::kUpdate:
      return "UPDATE";
    case LogRecordType::kClr:
      return "CLR";
    case LogRecordType::kCommit:
      return "COMMIT";
    case LogRecordType::kAbort:
      return "ABORT";
    case LogRecordType::kEnd:
      return "END";
    case LogRecordType::kDelegate:
      return "DELEGATE";
    case LogRecordType::kCkptBegin:
      return "CKPT_BEGIN";
    case LogRecordType::kCkptEnd:
      return "CKPT_END";
    case LogRecordType::kPrepare:
      return "PREPARE";
    case LogRecordType::kTableInsert:
      return "TBL_INSERT";
    case LogRecordType::kTableUpdate:
      return "TBL_UPDATE";
    case LogRecordType::kTableDelete:
      return "TBL_DELETE";
    case LogRecordType::kTableClr:
      return "TBL_CLR";
  }
  return "UNKNOWN";
}

std::string LogRecord::Serialize() const {
  std::string out;
  PutFixed8(&out, static_cast<uint8_t>(type));
  PutVarint64(&out, lsn);
  PutVarint64(&out, txn_id);
  PutLsn(&out, prev_lsn);

  switch (type) {
    case LogRecordType::kUpdate:
      PutVarint64(&out, object);
      PutFixed8(&out, static_cast<uint8_t>(kind));
      PutVarint64(&out, ZigZagEncode(before));
      PutVarint64(&out, ZigZagEncode(after));
      break;
    case LogRecordType::kClr:
      PutVarint64(&out, object);
      PutFixed8(&out, static_cast<uint8_t>(kind));
      PutVarint64(&out, ZigZagEncode(before));
      PutVarint64(&out, ZigZagEncode(after));
      PutLsn(&out, compensated_lsn);
      PutLsn(&out, undo_next_lsn);
      break;
    case LogRecordType::kDelegate:
      PutVarint64(&out, tor);
      PutVarint64(&out, tee);
      PutLsn(&out, tor_bc);
      PutLsn(&out, tee_bc);
      PutVarint64(&out, objects.size());
      for (ObjectId ob : objects) PutVarint64(&out, ob);
      PutVarint64(&out, ranges.size());
      for (const auto& [first, last] : ranges) {
        PutLsn(&out, first);
        PutLsn(&out, last);
      }
      PutVarint64(&out, csn);
      break;
    case LogRecordType::kPrepare:
      PutVarint64(&out, csn);
      break;
    case LogRecordType::kCkptEnd:
      PutLengthPrefixed(&out, ckpt_payload);
      break;
    case LogRecordType::kTableInsert:
    case LogRecordType::kTableUpdate:
    case LogRecordType::kTableDelete:
      PutVarint64(&out, object);
      PutLengthPrefixed(&out, key);
      PutLengthPrefixed(&out, before_image);
      PutLengthPrefixed(&out, after_image);
      break;
    case LogRecordType::kTableClr:
      PutVarint64(&out, object);
      PutLengthPrefixed(&out, key);
      PutFixed8(&out, table_remove ? 1 : 0);
      PutLengthPrefixed(&out, after_image);
      PutLsn(&out, compensated_lsn);
      PutLsn(&out, undo_next_lsn);
      break;
    default:
      break;  // BEGIN/COMMIT/ABORT/END/CKPT_BEGIN carry no extra payload
  }

  PutFixed32(&out, crc32c::Mask(crc32c::Value(out)));
  return out;
}

namespace {

// Checks the CRC, then parses the image into `rec`, whose fields the image
// does not carry must already hold their defaults. Forced inline into both
// callers: as an out-of-line call it made Deserialize, the point read's
// decode, about 10% slower on a plain UPDATE (BM_LogRecordDeserialize).
__attribute__((always_inline)) inline Status DecodeImage(const char* data,
                                                         size_t size,
                                                         LogRecord* rec) {
  if (size < 5) return Status::Corruption("log record too short");
  const size_t body_len = size - 4;
  {
    Decoder crc_dec(data + body_len, 4);
    uint32_t stored = 0;
    ARIESRH_RETURN_IF_ERROR(crc_dec.GetFixed32(&stored));
    if (crc32c::Unmask(stored) != crc32c::Value(data, body_len)) {
      return Status::Corruption("log record CRC mismatch");
    }
  }

  Decoder dec(data, body_len);
  uint8_t type_byte = 0;
  ARIESRH_RETURN_IF_ERROR(dec.GetFixed8(&type_byte));
  if (type_byte < static_cast<uint8_t>(LogRecordType::kBegin) ||
      type_byte > static_cast<uint8_t>(LogRecordType::kTableClr)) {
    return Status::Corruption("unknown log record type");
  }
  rec->type = static_cast<LogRecordType>(type_byte);
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->lsn));
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->txn_id));
  ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &rec->prev_lsn));

  uint8_t kind_byte = 0;
  uint64_t raw = 0;
  switch (rec->type) {
    case LogRecordType::kUpdate:
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->object));
      ARIESRH_RETURN_IF_ERROR(dec.GetFixed8(&kind_byte));
      rec->kind = static_cast<UpdateKind>(kind_byte);
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
      rec->before = ZigZagDecode(raw);
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
      rec->after = ZigZagDecode(raw);
      break;
    case LogRecordType::kClr:
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->object));
      ARIESRH_RETURN_IF_ERROR(dec.GetFixed8(&kind_byte));
      rec->kind = static_cast<UpdateKind>(kind_byte);
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
      rec->before = ZigZagDecode(raw);
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&raw));
      rec->after = ZigZagDecode(raw);
      ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &rec->compensated_lsn));
      ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &rec->undo_next_lsn));
      break;
    case LogRecordType::kDelegate: {
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->tor));
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->tee));
      ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &rec->tor_bc));
      ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &rec->tee_bc));
      uint64_t count = 0;
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&count));
      rec->objects.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        ObjectId ob = 0;
        ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&ob));
        rec->objects.push_back(ob);
      }
      uint64_t range_count = 0;
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&range_count));
      if (range_count != 0 && range_count != rec->objects.size()) {
        return Status::Corruption("delegate range count mismatch");
      }
      rec->ranges.reserve(range_count);
      for (uint64_t i = 0; i < range_count; ++i) {
        Lsn first = kInvalidLsn, last = kInvalidLsn;
        ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &first));
        ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &last));
        rec->ranges.emplace_back(first, last);
      }
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->csn));
      break;
    }
    case LogRecordType::kPrepare:
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->csn));
      break;
    case LogRecordType::kCkptEnd:
      ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec->ckpt_payload));
      break;
    case LogRecordType::kTableInsert:
    case LogRecordType::kTableUpdate:
    case LogRecordType::kTableDelete:
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->object));
      ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec->key));
      ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec->before_image));
      ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec->after_image));
      break;
    case LogRecordType::kTableClr: {
      ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(&rec->object));
      ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec->key));
      uint8_t remove_byte = 0;
      ARIESRH_RETURN_IF_ERROR(dec.GetFixed8(&remove_byte));
      rec->table_remove = remove_byte != 0;
      ARIESRH_RETURN_IF_ERROR(dec.GetLengthPrefixed(&rec->after_image));
      ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &rec->compensated_lsn));
      ARIESRH_RETURN_IF_ERROR(GetLsn(&dec, &rec->undo_next_lsn));
      break;
    }
    default:
      break;
  }
  if (!dec.empty()) return Status::Corruption("trailing bytes in log record");
  return Status::OK();
}

}  // namespace

Result<LogRecord> LogRecord::Deserialize(const std::string& image) {
  LogRecord rec;  // a fresh record holds every default already
  ARIESRH_RETURN_IF_ERROR(DecodeImage(image.data(), image.size(), &rec));
  return rec;
}

Status LogRecord::DecodeInto(const char* data, size_t size, LogRecord* rec) {
  // Reset what this image may not carry; containers keep their capacity.
  rec->object = kInvalidObject;
  rec->kind = UpdateKind::kSet;
  rec->before = 0;
  rec->after = 0;
  rec->compensated_lsn = kInvalidLsn;
  rec->undo_next_lsn = kInvalidLsn;
  rec->tor = kInvalidTxn;
  rec->tee = kInvalidTxn;
  rec->tor_bc = kInvalidLsn;
  rec->tee_bc = kInvalidLsn;
  rec->objects.clear();
  rec->ranges.clear();
  rec->csn = 0;
  rec->ckpt_payload.clear();
  rec->key.clear();
  rec->before_image.clear();
  rec->after_image.clear();
  rec->table_remove = false;
  return DecodeImage(data, size, rec);
}

std::string LogRecord::ToString() const {
  std::ostringstream os;
  os << "[" << lsn << " " << LogRecordTypeName(type) << " t" << txn_id;
  switch (type) {
    case LogRecordType::kUpdate:
      os << " ob" << object << (kind == UpdateKind::kSet ? " set " : " add ")
         << before << "->" << after;
      break;
    case LogRecordType::kClr:
      os << " ob" << object << " undo-of " << compensated_lsn;
      break;
    case LogRecordType::kDelegate: {
      os << " t" << tor << "=>t" << tee << " {";
      for (size_t i = 0; i < objects.size(); ++i) {
        if (i) os << ",";
        os << "ob" << objects[i];
      }
      os << "}";
      if (csn != 0) os << " csn" << csn;
      break;
    }
    case LogRecordType::kPrepare:
      os << " csn" << csn;
      break;
    case LogRecordType::kTableInsert:
      os << " rid" << object << " " << ImageDigest(key) << " -> "
         << ImageDigest(after_image);
      break;
    case LogRecordType::kTableUpdate:
      os << " rid" << object << " " << ImageDigest(key) << " "
         << ImageDigest(before_image) << " -> " << ImageDigest(after_image);
      break;
    case LogRecordType::kTableDelete:
      os << " rid" << object << " " << ImageDigest(key) << " "
         << ImageDigest(before_image) << " -> gone";
      break;
    case LogRecordType::kTableClr:
      os << " rid" << object << " " << ImageDigest(key) << " undo-of "
         << compensated_lsn << " ";
      if (table_remove) {
        os << "remove";
      } else {
        os << "restore " << ImageDigest(after_image);
      }
      break;
    default:
      break;
  }
  os << "]";
  return os.str();
}

RedoEntry RedoEntry::Of(const LogRecord& rec) {
  RedoEntry entry;
  entry.lsn = rec.lsn;
  entry.object = rec.object;
  entry.after = rec.after;
  entry.type = rec.type;
  entry.kind = rec.kind;
  entry.table_remove = rec.table_remove;
  if (IsTableRecord(rec.type)) {
    const uint32_t sizes[2] = {static_cast<uint32_t>(rec.key.size()),
                               static_cast<uint32_t>(rec.after_image.size())};
    entry.table = std::make_unique_for_overwrite<char[]>(
        sizeof(sizes) + rec.key.size() + rec.after_image.size());
    char* out = entry.table.get();
    std::memcpy(out, sizes, sizeof(sizes));
    std::memcpy(out + sizeof(sizes), rec.key.data(), rec.key.size());
    std::memcpy(out + sizeof(sizes) + rec.key.size(), rec.after_image.data(),
                rec.after_image.size());
  }
  return entry;
}

std::string_view RedoEntry::key() const {
  uint32_t sizes[2];
  std::memcpy(sizes, table.get(), sizeof(sizes));
  return {table.get() + sizeof(sizes), sizes[0]};
}

std::string_view RedoEntry::after_image() const {
  uint32_t sizes[2];
  std::memcpy(sizes, table.get(), sizeof(sizes));
  return {table.get() + sizeof(sizes) + sizes[0], sizes[1]};
}

LogRecord LogRecord::MakeBegin(TxnId txn) {
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn_id = txn;
  return rec;
}

LogRecord LogRecord::MakeUpdate(TxnId txn, Lsn prev, ObjectId ob, UpdateKind k,
                                int64_t before, int64_t after) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  rec.object = ob;
  rec.kind = k;
  rec.before = before;
  rec.after = after;
  return rec;
}

LogRecord LogRecord::MakeClr(TxnId txn, Lsn prev, ObjectId ob, UpdateKind k,
                             int64_t restore_before, int64_t restore_after,
                             Lsn compensated, Lsn undo_next) {
  LogRecord rec;
  rec.type = LogRecordType::kClr;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  rec.object = ob;
  rec.kind = k;
  rec.before = restore_before;
  rec.after = restore_after;
  rec.compensated_lsn = compensated;
  rec.undo_next_lsn = undo_next;
  return rec;
}

LogRecord LogRecord::MakeCommit(TxnId txn, Lsn prev) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  return rec;
}

LogRecord LogRecord::MakeAbort(TxnId txn, Lsn prev) {
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  return rec;
}

LogRecord LogRecord::MakeEnd(TxnId txn, Lsn prev) {
  LogRecord rec;
  rec.type = LogRecordType::kEnd;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  return rec;
}

LogRecord LogRecord::MakeDelegate(TxnId tor, TxnId tee, Lsn tor_bc, Lsn tee_bc,
                                  std::vector<ObjectId> objects) {
  LogRecord rec;
  rec.type = LogRecordType::kDelegate;
  // The delegate record is written "on behalf of" the delegator; recovery
  // treats tor/tee explicitly, txn_id is informational.
  rec.txn_id = tor;
  rec.tor = tor;
  rec.tee = tee;
  rec.tor_bc = tor_bc;
  rec.tee_bc = tee_bc;
  rec.objects = std::move(objects);
  return rec;
}

LogRecord LogRecord::MakeDelegateRange(TxnId tor, TxnId tee, Lsn tor_bc,
                                       Lsn tee_bc, ObjectId ob, Lsn first,
                                       Lsn last) {
  LogRecord rec = MakeDelegate(tor, tee, tor_bc, tee_bc, {ob});
  rec.ranges.emplace_back(first, last);
  return rec;
}

LogRecord LogRecord::MakePrepare(TxnId txn, Lsn prev, uint64_t csn) {
  LogRecord rec;
  rec.type = LogRecordType::kPrepare;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  rec.csn = csn;
  return rec;
}

LogRecord LogRecord::MakeTableInsert(TxnId txn, Lsn prev, ObjectId rid,
                                     std::string key, std::string value) {
  LogRecord rec;
  rec.type = LogRecordType::kTableInsert;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  rec.object = rid;
  rec.key = std::move(key);
  rec.after_image = std::move(value);
  return rec;
}

LogRecord LogRecord::MakeTableUpdate(TxnId txn, Lsn prev, ObjectId rid,
                                     std::string key, std::string before,
                                     std::string after) {
  LogRecord rec;
  rec.type = LogRecordType::kTableUpdate;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  rec.object = rid;
  rec.key = std::move(key);
  rec.before_image = std::move(before);
  rec.after_image = std::move(after);
  return rec;
}

LogRecord LogRecord::MakeTableDelete(TxnId txn, Lsn prev, ObjectId rid,
                                     std::string key, std::string before) {
  LogRecord rec;
  rec.type = LogRecordType::kTableDelete;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  rec.object = rid;
  rec.key = std::move(key);
  rec.before_image = std::move(before);
  return rec;
}

LogRecord LogRecord::MakeTableClr(TxnId txn, Lsn prev, ObjectId rid,
                                  std::string key, bool remove,
                                  std::string restore, Lsn compensated,
                                  Lsn undo_next) {
  LogRecord rec;
  rec.type = LogRecordType::kTableClr;
  rec.txn_id = txn;
  rec.prev_lsn = prev;
  rec.object = rid;
  rec.key = std::move(key);
  rec.table_remove = remove;
  rec.after_image = std::move(restore);
  rec.compensated_lsn = compensated;
  rec.undo_next_lsn = undo_next;
  return rec;
}

}  // namespace ariesrh
