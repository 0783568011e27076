#include "recovery/redo.h"

#include <algorithm>
#include <cassert>

namespace ariesrh {

namespace {

// ApplyToPage for either form: reads lsn, object, kind and after only.
template <typename Rec>
bool ApplyPageAction(const Rec& rec, Page* page, bool check_page_lsn) {
  if (check_page_lsn && page->page_lsn() >= rec.lsn) {
    return false;  // the page already reflects this record
  }
  const uint32_t slot = SlotOf(rec.object);
  if (rec.kind == UpdateKind::kSet) {
    page->Set(slot, rec.after);
  } else {
    page->Add(slot, rec.after);
  }
  // Under instant restart the background undo stream's CLRs and foreground
  // updates can reach one page out of LSN order (their slots differ, so the
  // values commute); the page LSN must still cover every applied record for
  // the WAL rule on eviction.
  page->set_page_lsn(std::max(page->page_lsn(), rec.lsn));
  return true;
}

// ApplyRecordToPage for either form.
template <typename Rec>
Status ApplyAction(BufferPool* pool, const Rec& rec, bool check_page_lsn,
                   bool* applied, table::ReplayTarget* table) {
  if (applied != nullptr) *applied = false;
  if (IsTableRecord(rec.type)) {
    if (table == nullptr) {
      return Status::IllegalState("table log record without a table heap");
    }
    // Logical replay is state-based: idempotence comes from replaying each
    // key's records in LSN order, not from a page-LSN check.
    ARIESRH_RETURN_IF_ERROR(table->ApplyLogical(rec));
    if (applied != nullptr) *applied = true;
    return Status::OK();
  }
  assert(rec.type == LogRecordType::kUpdate ||
         rec.type == LogRecordType::kClr);
  return pool->WithPage(PageOf(rec.object), [&](Page* page) -> Lsn {
    if (!ApplyPageAction(rec, page, check_page_lsn)) return kInvalidLsn;
    if (applied != nullptr) *applied = true;
    return rec.lsn;
  });
}

}  // namespace

Status ApplyRecordToPage(BufferPool* pool, const LogRecord& rec,
                         bool check_page_lsn, bool* applied,
                         table::ReplayTarget* table) {
  return ApplyAction(pool, rec, check_page_lsn, applied, table);
}

Status ApplyRecordToPage(BufferPool* pool, const RedoEntry& entry,
                         bool check_page_lsn, bool* applied,
                         table::ReplayTarget* table) {
  return ApplyAction(pool, entry, check_page_lsn, applied, table);
}

bool ApplyToPage(const RedoEntry& entry, Page* page, bool check_page_lsn) {
  return ApplyPageAction(entry, page, check_page_lsn);
}

namespace {

// The compensation for one update, chained after `prev` on `responsible`'s
// backward chain. It carries the inverse action so it can be (re)applied
// through the same path as an update: a Set is undone by restoring the
// before image, an Add by the negated delta, a table insert by removing the
// key, and a table update or delete by reinstating the before image.
LogRecord CompensationFor(const LogRecord& update_rec, TxnId responsible,
                          Lsn prev) {
  if (IsTableWrite(update_rec.type)) {
    return LogRecord::MakeTableClr(
        responsible, prev, update_rec.object, update_rec.key,
        /*remove=*/update_rec.type == LogRecordType::kTableInsert,
        update_rec.before_image,
        /*compensated=*/update_rec.lsn, /*undo_next=*/update_rec.prev_lsn);
  }
  assert(update_rec.type == LogRecordType::kUpdate);
  const int64_t restore = update_rec.kind == UpdateKind::kSet
                              ? update_rec.before
                              : -update_rec.after;
  return LogRecord::MakeClr(
      responsible, prev, update_rec.object, update_rec.kind,
      /*restore_before=*/update_rec.after, /*restore_after=*/restore,
      /*compensated=*/update_rec.lsn, /*undo_next=*/update_rec.prev_lsn);
}

}  // namespace

Status LoggingUndoSink::Undo(const LogRecord& update_rec, TxnId responsible,
                             std::unordered_map<TxnId, Lsn>* heads) {
  if (undo_budget_ != nullptr && !undo_budget_->Spend()) {
    // Model the crash point: whatever undo work was logged becomes durable
    // up to here, then the system dies.
    ARIESRH_RETURN_IF_ERROR(log_->FlushAll());
    return Status::IOError("injected crash during recovery undo");
  }
  if (IsTableWrite(update_rec.type) && heap_ == nullptr) {
    return Status::IllegalState("table undo without a table heap");
  }
  auto head = heads->find(responsible);
  LogRecord clr = CompensationFor(
      update_rec, responsible,
      head == heads->end() ? kInvalidLsn : head->second);
  clr.lsn = log_->Append(clr);
  ++clrs_written_;
  (*heads)[responsible] = clr.lsn;
  ARIESRH_RETURN_IF_ERROR(ApplyRecordToPage(pool_, clr,
                                            /*check_page_lsn=*/false,
                                            /*applied=*/nullptr, heap_));
  ++stats_->recovery_undos;
  return Status::OK();
}

void LoggingUndoSink::End(TxnId txn, Lsn head) {
  log_->Append(LogRecord::MakeEnd(txn, head));
}

Status ScratchUndoSink::Undo(const LogRecord& update_rec, TxnId responsible,
                             std::unordered_map<TxnId, Lsn>*) {
  // Nothing is appended, so the compensation borrows the update's own LSN:
  // it marks the frame dirty for extraction without moving the page LSN.
  LogRecord clr = CompensationFor(update_rec, responsible, kInvalidLsn);
  clr.lsn = update_rec.lsn;
  return ApplyRecordToPage(pool_, clr, /*check_page_lsn=*/false,
                           /*applied=*/nullptr, table_);
}

Status PartitionedRedo(const RedoPlan& plan, size_t threads, BufferPool* pool,
                       Stats* stats, RecoveryFaultBudget* redo_budget,
                       uint64_t* applied, table::TableHeap* heap) {
  if (applied != nullptr) *applied = 0;
  // Largest pages first: the work queue then back-fills small pages behind
  // the stragglers.
  std::vector<const std::vector<RedoEntry>*> pages;
  pages.reserve(plan.pages.size());
  for (const auto& [page, recs] : plan.pages) pages.push_back(&recs);
  std::sort(pages.begin(), pages.end(),
            [](const auto* a, const auto* b) { return a->size() > b->size(); });

  std::atomic<uint64_t> total_applied{0};
  Status status =
      RunOnWorkers(threads, pages.size(), [&](size_t p) -> Status {
        for (const RedoEntry& entry : *pages[p]) {
          if (redo_budget != nullptr && !redo_budget->Spend()) {
            return Status::IOError("injected crash during recovery redo");
          }
          bool did = false;
          ARIESRH_RETURN_IF_ERROR(ApplyRecordToPage(
              pool, entry, /*check_page_lsn=*/true, &did, heap));
          if (did) {
            ++stats->recovery_redos;
            total_applied.fetch_add(1, std::memory_order_relaxed);
          }
        }
        return Status::OK();
      });
  if (applied != nullptr) {
    *applied = total_applied.load(std::memory_order_relaxed);
  }
  return status;
}

}  // namespace ariesrh
