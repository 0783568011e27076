// Page application helpers shared by normal processing, the redo pass, and
// every undo algorithm (through the undo sinks) — plus the partitioned
// parallel redo pass.

#ifndef ARIESRH_RECOVERY_REDO_H_
#define ARIESRH_RECOVERY_REDO_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/test_hook.h"
#include "util/types.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ariesrh {

/// Applies a redo plan's UPDATE or CLR entry to `page` (latched by the
/// caller) and advances its page LSN to cover the record. With
/// `check_page_lsn` (redo) nothing happens when the page already reflects
/// the record. Returns whether the record was applied.
bool ApplyToPage(const RedoEntry& entry, Page* page, bool check_page_lsn);

/// Applies an UPDATE or CLR record to its page, or a logical table record
/// to the table replay target.
///
/// With `check_page_lsn` (the redo pass), a page record is applied only if
/// the page LSN is older than the record's LSN — ARIES "repeating history"
/// idempotence; otherwise (normal processing) it is applied unconditionally.
/// Either way the page LSN advances to the record's LSN on application and
/// the page is marked dirty. The fetch + apply runs atomically under the
/// pool latch, so concurrent recovery workers can share the pool.
/// Table records replay state-based through `table` (idempotent by per-key
/// LSN order rather than page LSN): the engine's TableHeap, or a
/// reenactment fold's overlay. Engines without a table layer pass nullptr
/// and encountering a table record is then an error.
/// `applied` (optional) reports whether state was actually modified.
/// The RedoEntry form replays a redo plan's entry the same way; only
/// restart replays a plan, so its table is always the engine's heap.
Status ApplyRecordToPage(BufferPool* pool, const LogRecord& rec,
                         bool check_page_lsn, bool* applied = nullptr,
                         table::ReplayTarget* table = nullptr);
Status ApplyRecordToPage(BufferPool* pool, const RedoEntry& entry,
                         bool check_page_lsn, bool* applied = nullptr,
                         table::TableHeap* table = nullptr);

/// Where a backward pass sends its compensations. ScopeSweepUndo,
/// FullScanUndo and ChainUndo decide *which* updates roll back; the sink
/// decides what rolling one back means.
class UndoSink {
 public:
  virtual ~UndoSink() = default;

  /// Compensates `update_rec` (an UPDATE or a logical table write) on behalf
  /// of `responsible`, whose backward-chain head `heads` tracks (in/out).
  virtual Status Undo(const LogRecord& update_rec, TxnId responsible,
                      std::unordered_map<TxnId, Lsn>* heads) = 0;

  /// `txn` is fully rolled back; its backward chain ends at `head`.
  virtual void End(TxnId txn, Lsn head) = 0;
};

/// The sink of normal-processing abort and restart: each compensation is a
/// CLR chained into the responsible transaction's backward chain and then
/// applied to the page — or, for a logical table write, a TBL_CLR carrying
/// the compensating action (remove for an insert, restore the before image
/// otherwise) applied to `heap`. End appends the END record.
/// `hook` (restart only; optional) runs at "recovery:undo" before each
/// compensation. When it fails, the sink flushes the log and returns its
/// error: a crash in the middle of the undo pass with its CLRs durable.
class LoggingUndoSink final : public UndoSink {
 public:
  LoggingUndoSink(LogManager* log, BufferPool* pool, Stats* stats,
                  table::TableHeap* heap = nullptr,
                  const TestHook* hook = nullptr)
      : log_(log), pool_(pool), stats_(stats), heap_(heap), hook_(hook) {}

  Status Undo(const LogRecord& update_rec, TxnId responsible,
              std::unordered_map<TxnId, Lsn>* heads) override;
  void End(TxnId txn, Lsn head) override;

  /// CLRs this sink appended.
  uint64_t clrs_written() const { return clrs_written_; }

 private:
  LogManager* log_;
  BufferPool* pool_;
  Stats* stats_;
  table::TableHeap* heap_;
  const TestHook* hook_;
  uint64_t clrs_written_ = 0;
};

/// The time-travel sink: applies each compensation to scratch components
/// (the fold's pool and its table overlay) and logs nothing — the source
/// log is read-only by design.
class ScratchUndoSink final : public UndoSink {
 public:
  ScratchUndoSink(BufferPool* pool, table::ReplayTarget* table)
      : pool_(pool), table_(table) {}

  Status Undo(const LogRecord& update_rec, TxnId responsible,
              std::unordered_map<TxnId, Lsn>* heads) override;
  void End(TxnId, Lsn) override {}

 private:
  BufferPool* pool_;
  table::ReplayTarget* table_;
};

/// The redo work a collecting forward sweep discovered, keyed by the page
/// each record touches — or, for a logical table record, by its rid's redo
/// bucket (RedoBucketOf), which keeps every record of one key in one unit.
/// Within a page the records are in increasing LSN order, the only order
/// redo needs: each record touches exactly one page and the page-LSN check
/// (state-based per-key order for table records) makes application
/// idempotent. Carrying each record's redo entry means redo never touches
/// the log again — the collecting sweep already paid for the read and the
/// decode — while the plan holds only the fields replay reads (a page entry
/// is 40 bytes, against a LogRecord's 300). The plan is bounded by the log
/// suffix past the last checkpoint, like the sweep itself.
struct RedoPlan {
  std::unordered_map<PageId, std::vector<RedoEntry>> pages;
  uint64_t records = 0;  ///< total over every page
};

/// Partitioned parallel redo: replays `plan`'s pages on up to `threads`
/// workers, one page per work unit, each page's records in plan order.
/// `hook` (optional) runs at "recovery:redo" before each application; its
/// error stops the pass. Returns the number of records actually applied
/// through `applied` (optional).
Status PartitionedRedo(const RedoPlan& plan, size_t threads, BufferPool* pool,
                       Stats* stats, const TestHook* hook = nullptr,
                       uint64_t* applied = nullptr,
                       table::TableHeap* heap = nullptr);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_REDO_H_
