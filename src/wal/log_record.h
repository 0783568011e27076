// Log record types and their stable serialization.
//
// The record vocabulary is conventional ARIES (BEGIN, UPDATE, CLR, COMMIT,
// ABORT, END, checkpoints) plus the paper's one addition: the DELEGATE record
// (Figure 6), which carries the delegator, the delegatee, pointers into both
// of their backward chains, and the objects whose updates change hands.
//
// Backward chains: every record carries prev_lsn, the previous record written
// on behalf of the same transaction. A DELEGATE record belongs to *two*
// chains — it becomes the head of both the delegator's and the delegatee's —
// so it carries two chain pointers (tor_bc / tee_bc) instead.

#ifndef ARIESRH_WAL_LOG_RECORD_H_
#define ARIESRH_WAL_LOG_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/types.h"

namespace ariesrh {

enum class LogRecordType : uint8_t {
  kBegin = 1,
  kUpdate = 2,
  kClr = 3,       ///< compensation log record (one undone update)
  kCommit = 4,
  kAbort = 5,     ///< rollback started (normal-processing abort)
  kEnd = 6,       ///< transaction fully resolved (commit or rollback done)
  kDelegate = 7,
  kCkptBegin = 8,
  kCkptEnd = 9,   ///< carries the fuzzy-checkpoint table snapshot
  /// Two-phase commit vote (sharded engines only): the transaction's work on
  /// this shard is durable and the shard will commit iff the coordinator's
  /// decision log records COMMIT for the carried csn. In-doubt at restart
  /// until resolved from the coordinator log; presumed abort without it.
  kPrepare = 10,
  /// Logical table records (src/table/): each carries the record key plus
  /// before/after images, and `object` holds the key's stable rid so scopes,
  /// delegation, and loser clustering are keyed by record identity. Redo is
  /// state-based (upsert the after image / remove the key) rather than a
  /// physical page edit, so replay is idempotent in per-key LSN order.
  kTableInsert = 11,  ///< after_image = inserted value
  kTableUpdate = 12,  ///< before_image -> after_image
  kTableDelete = 13,  ///< before_image = removed value
  /// Table compensation record: table_remove ? remove(key)
  /// : upsert(key, after_image). Chain pointers as in kClr.
  kTableClr = 14,
};

/// True for the three forward table write types (not the table CLR).
inline bool IsTableWrite(LogRecordType type) {
  return type == LogRecordType::kTableInsert ||
         type == LogRecordType::kTableUpdate ||
         type == LogRecordType::kTableDelete;
}

/// True for every logical table record: the writes and the table CLR.
inline bool IsTableRecord(LogRecordType type) {
  return IsTableWrite(type) || type == LogRecordType::kTableClr;
}

/// How an update mutates its object cell.
enum class UpdateKind : uint8_t {
  kSet = 0,  ///< exclusive overwrite; undo restores the before image
  kAdd = 1,  ///< commutative increment; undo applies the negated delta
};

const char* LogRecordTypeName(LogRecordType type);

/// One log record. A plain aggregate; unused fields keep their defaults and
/// are not serialized for record types that do not need them.
struct LogRecord {
  Lsn lsn = kInvalidLsn;  ///< assigned by the log manager on append
  LogRecordType type = LogRecordType::kBegin;
  /// Transaction on whose behalf the record was written. For UPDATE records
  /// under ARIES/RH this is the *invoking* transaction and never changes;
  /// the rewriting baselines physically overwrite it with the delegatee.
  TxnId txn_id = kInvalidTxn;
  /// Previous record of txn_id (backward chain); kInvalidLsn at chain end.
  Lsn prev_lsn = kInvalidLsn;

  // --- UPDATE and CLR ---
  ObjectId object = kInvalidObject;
  UpdateKind kind = UpdateKind::kSet;
  int64_t before = 0;  ///< kSet: before image (CLR: value to restore)
  int64_t after = 0;   ///< kSet: after image; kAdd: delta (CLR: negated)

  // --- CLR only ---
  Lsn compensated_lsn = kInvalidLsn;  ///< the update this CLR undoes
  Lsn undo_next_lsn = kInvalidLsn;    ///< next LSN to undo on this chain

  // --- DELEGATE only (paper Figure 6) ---
  TxnId tor = kInvalidTxn;   ///< delegator
  TxnId tee = kInvalidTxn;   ///< delegatee
  Lsn tor_bc = kInvalidLsn;  ///< delegator's previous chain head
  Lsn tee_bc = kInvalidLsn;  ///< delegatee's previous chain head
  std::vector<ObjectId> objects;  ///< objects delegated (atomic set)
  /// Operation-granularity delegation: when non-empty (parallel to
  /// `objects`), only the delegator's updates with LSN in [first, second]
  /// are delegated for that object; (kInvalidLsn, kInvalidLsn) means the
  /// whole object. Empty = whole-object delegation for every entry.
  std::vector<std::pair<Lsn, Lsn>> ranges;

  // --- PREPARE and DELEGATE (sharded engines) ---
  /// Coordinator sequence number. On a PREPARE record it names the 2PC
  /// round this shard voted in. On a DELEGATE record, 0 means a plain
  /// shard-local delegation (effective the moment it is logged, exactly as
  /// in the unsharded engine); non-zero marks one leg of a cross-shard
  /// transfer, effective at restart only if the coordinator log committed
  /// that csn — otherwise recovery voids it (the scopes never transfer).
  uint64_t csn = 0;

  // --- CKPT_END only ---
  std::string ckpt_payload;  ///< serialized table snapshot (see checkpoint.h)

  // --- table records (kTableInsert/kTableUpdate/kTableDelete/kTableClr) ---
  std::string key;           ///< record key; `object` carries its rid
  std::string before_image;  ///< value before the write (empty for insert)
  std::string after_image;   ///< value after the write (empty for delete)
  /// kTableClr only: the compensating action removes the key instead of
  /// reinstating after_image (i.e. this CLR undoes an insert).
  bool table_remove = false;

  /// Serializes to a stable byte image with a trailing masked CRC-32C.
  std::string Serialize() const;

  /// Parses a stable image, verifying the CRC. A failed CRC means a torn
  /// tail; recovery truncates the log there.
  static Result<LogRecord> Deserialize(const std::string& image);

  /// Deserialize into an existing record: every field the image does not
  /// carry is reset to its default, and the record's strings and vectors
  /// keep their capacity, so a sweep that decodes into one reused record
  /// allocates only when an image outgrows it. On error `rec` holds
  /// unspecified (but valid) contents.
  static Status DecodeInto(const char* data, size_t size, LogRecord* rec);

  /// Short human-readable rendering for traces and test failures.
  std::string ToString() const;

  // --- convenience constructors ---
  static LogRecord MakeBegin(TxnId txn);
  static LogRecord MakeUpdate(TxnId txn, Lsn prev, ObjectId ob, UpdateKind k,
                              int64_t before, int64_t after);
  static LogRecord MakeClr(TxnId txn, Lsn prev, ObjectId ob, UpdateKind k,
                           int64_t restore_before, int64_t restore_after,
                           Lsn compensated, Lsn undo_next);
  static LogRecord MakeCommit(TxnId txn, Lsn prev);
  static LogRecord MakeAbort(TxnId txn, Lsn prev);
  static LogRecord MakeEnd(TxnId txn, Lsn prev);
  static LogRecord MakeDelegate(TxnId tor, TxnId tee, Lsn tor_bc, Lsn tee_bc,
                                std::vector<ObjectId> objects);
  static LogRecord MakeDelegateRange(TxnId tor, TxnId tee, Lsn tor_bc,
                                     Lsn tee_bc, ObjectId ob, Lsn first,
                                     Lsn last);
  static LogRecord MakePrepare(TxnId txn, Lsn prev, uint64_t csn);
  static LogRecord MakeTableInsert(TxnId txn, Lsn prev, ObjectId rid,
                                   std::string key, std::string value);
  static LogRecord MakeTableUpdate(TxnId txn, Lsn prev, ObjectId rid,
                                   std::string key, std::string before,
                                   std::string after);
  static LogRecord MakeTableDelete(TxnId txn, Lsn prev, ObjectId rid,
                                   std::string key, std::string before);
  static LogRecord MakeTableClr(TxnId txn, Lsn prev, ObjectId rid,
                                std::string key, bool remove,
                                std::string restore, Lsn compensated,
                                Lsn undo_next);
};

/// One entry of a restart's redo plan: the fields replay reads, not the
/// whole record. A page record replays from lsn, object, kind and after; a
/// logical table record from lsn, type, table_remove, its key and its after
/// image, which share one out-of-line block so a page entry stays 40 bytes
/// and a table entry costs one allocation.
struct RedoEntry {
  Lsn lsn = kInvalidLsn;
  ObjectId object = kInvalidObject;
  int64_t after = 0;  ///< UPDATE/CLR: the after image (kSet) or delta (kAdd)
  LogRecordType type = LogRecordType::kUpdate;
  UpdateKind kind = UpdateKind::kSet;
  bool table_remove = false;  ///< kTableClr: the compensation removes the key
  /// Table records only: the key's and the after image's 32-bit lengths,
  /// then their bytes.
  std::unique_ptr<char[]> table;

  /// The entry replaying `rec`, an UPDATE, CLR or logical table record.
  static RedoEntry Of(const LogRecord& rec);

  /// Table records only.
  std::string_view key() const;
  std::string_view after_image() const;
};

}  // namespace ariesrh

#endif  // ARIESRH_WAL_LOG_RECORD_H_
