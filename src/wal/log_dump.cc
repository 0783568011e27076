#include "wal/log_dump.h"

#include <algorithm>
#include <sstream>

#include "reenact/ownership.h"

namespace ariesrh {

Result<std::string> DumpLog(const LogManager& log, Lsn from, Lsn to) {
  std::ostringstream os;
  to = std::min(to, log.end_lsn());
  while (from <= to) {
    LogCursor cursor(log, from, to);
    while (cursor.Next()) os << cursor.record().ToString() << "\n";
    if (cursor.status().ok()) break;
    // An archived record (the prefix may be archived while the dump runs)
    // gets a marker line, and the dump goes on past it.
    if (!cursor.status().IsNotFound() ||
        cursor.lsn() >= log.first_retained_lsn()) {
      return cursor.status();
    }
    os << "[" << cursor.lsn() << " <archived>]\n";
    from = cursor.lsn() + 1;
  }
  return os.str();
}

Result<std::string> DumpLog(const LogManager& log) {
  return DumpLog(log, kFirstLsn, log.end_lsn());
}

namespace {

/// Folds the log's scope reconstruction once and resolves each entry's
/// responsible transaction in place. Under the rewriting baselines the
/// records already carry post-rewrite attribution, so responsibility is the
/// writer itself and no fold runs.
template <typename Entry>
Status ResolveResponsibility(const LogManager& log, ObjectId ob,
                             DelegationMode mode,
                             const coord::Resolution* resolution,
                             std::vector<Entry>* entries) {
  if (mode != DelegationMode::kRH && mode != DelegationMode::kDisabled) {
    for (Entry& entry : *entries) {
      entry.responsible = entry.writer;
      entry.responsible_committed = true;  // rewrite implies the owner won
    }
    return Status::OK();
  }
  ARIESRH_ASSIGN_OR_RETURN(
      reenact::OwnershipIndex idx,
      reenact::BuildOwnershipIndex(mode, log, kInvalidLsn, resolution));
  for (Entry& entry : *entries) {
    const reenact::OwnedSpan* span = idx.Resolve(ob, entry.writer, entry.lsn);
    if (span != nullptr) {
      entry.responsible = span->owner;
      entry.responsible_committed = span->owner_committed;
    } else {
      // No covering scope: never delegated (kDisabled has no scopes at
      // all), or the write is a CLR — compensation always runs on behalf
      // of the responsible transaction, so the writer answers either way.
      entry.responsible = entry.writer;
      auto it = idx.txns.find(entry.writer);
      entry.responsible_committed =
          it != idx.txns.end()
              ? it->second.committed
              // Terminated and forgotten before the retained range: its
              // surviving records imply it committed.
              : true;
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ObjectHistoryEntry>> ObjectHistory(
    const LogManager& log, ObjectId ob, DelegationMode mode,
    const coord::Resolution* resolution) {
  std::vector<ObjectHistoryEntry> entries;
  std::vector<Lsn> compensated;
  // Scan only the retained range: an archived prefix is expected and not an
  // error, but a failed read inside the range is — propagate it instead of
  // silently dropping history.
  LogCursor cursor(log, log.first_retained_lsn(), log.end_lsn());
  while (cursor.Next()) {
    const LogRecord& rec = cursor.record();
    const Lsn lsn = cursor.lsn();
    if (rec.object != ob) continue;
    if (rec.type == LogRecordType::kUpdate) {
      ObjectHistoryEntry entry;
      entry.lsn = lsn;
      entry.writer = rec.txn_id;
      entry.kind = rec.kind;
      entry.before = rec.before;
      entry.after = rec.after;
      entries.push_back(std::move(entry));
    } else if (rec.type == LogRecordType::kClr) {
      compensated.push_back(rec.compensated_lsn);
    }
  }
  ARIESRH_RETURN_IF_ERROR(cursor.status());
  for (ObjectHistoryEntry& entry : entries) {
    for (Lsn undone : compensated) {
      if (entry.lsn == undone) entry.compensated = true;
    }
  }
  ARIESRH_RETURN_IF_ERROR(
      ResolveResponsibility(log, ob, mode, resolution, &entries));
  return entries;
}

Result<std::vector<TableHistoryEntry>> TableKeyHistory(
    const LogManager& log, const std::string& key, DelegationMode mode,
    const coord::Resolution* resolution) {
  std::vector<TableHistoryEntry> entries;
  std::vector<Lsn> compensated;
  ObjectId rid = kInvalidObject;  // learned from the first matching record
  LogCursor cursor(log, log.first_retained_lsn(), log.end_lsn());
  while (cursor.Next()) {
    const LogRecord& rec = cursor.record();
    const Lsn lsn = cursor.lsn();
    if (rec.key != key) continue;
    switch (rec.type) {
      case LogRecordType::kTableInsert:
      case LogRecordType::kTableUpdate:
      case LogRecordType::kTableDelete: {
        rid = rec.object;
        TableHistoryEntry entry;
        entry.lsn = lsn;
        entry.writer = rec.txn_id;
        entry.type = rec.type;
        entry.before = rec.before_image;
        entry.after = rec.after_image;
        entries.push_back(std::move(entry));
        break;
      }
      case LogRecordType::kTableClr: {
        rid = rec.object;
        // The CLR's action: remove, or reinstate the restore image (stored
        // in after_image).
        TableHistoryEntry entry;
        entry.lsn = lsn;
        entry.writer = rec.txn_id;
        entry.type = rec.type;
        entry.after = rec.table_remove ? std::string() : rec.after_image;
        entries.push_back(std::move(entry));
        compensated.push_back(rec.compensated_lsn);
        break;
      }
      default:
        break;
    }
  }
  ARIESRH_RETURN_IF_ERROR(cursor.status());
  for (TableHistoryEntry& entry : entries) {
    for (Lsn undone : compensated) {
      if (entry.lsn == undone) entry.compensated = true;
    }
  }
  ARIESRH_RETURN_IF_ERROR(
      ResolveResponsibility(log, rid, mode, resolution, &entries));
  return entries;
}

}  // namespace ariesrh
