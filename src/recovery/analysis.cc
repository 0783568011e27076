#include "recovery/analysis.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/redo.h"
#include "recovery/rewrite_baselines.h"

namespace ariesrh {

namespace {

TxnAnalysis& Touch(ForwardPassResult* result, TxnId txn, Lsn lsn) {
  TxnAnalysis& info = result->txns[txn];
  if (info.id == kInvalidTxn) {
    // First sighting: loser by default (paper, forward pass `begin`).
    info.id = txn;
    info.first_lsn = lsn;
  }
  // Monotone, not unconditional: the scan may revisit the fuzzy-checkpoint
  // window, where a record's LSN can lie *behind* the chain head the
  // snapshot seeded — regressing last_lsn would corrupt the backward-chain
  // head END records and undo start from. (kInvalidLsn is the all-ones
  // sentinel, so it must be tested explicitly, not folded into max().)
  if (info.last_lsn == kInvalidLsn || lsn > info.last_lsn) {
    info.last_lsn = lsn;
  }
  result->max_txn_id = std::max(result->max_txn_id, txn);
  return info;
}

// TRANSFER RESPONSIBILITY, exactly as in normal processing (Section 3.5
// delegate step 3): move the delegated objects' entries, merging scopes.
// Operation-granularity records transfer only the covered scope ranges.
void TransferScopes(ForwardPassResult* result, const LogRecord& rec,
                    Stats* stats) {
  TxnAnalysis& tor = result->txns[rec.tor];
  TxnAnalysis& tee = result->txns[rec.tee];
  stats->scopes_transferred += TransferObjects(
      &tor.ob_list, &tee.ob_list, rec.tor, rec.objects, rec.ranges);
}

obs::RecoveryPassKind PassKindOf(ForwardPassKind kind) {
  return kind == ForwardPassKind::kMerged
             ? obs::RecoveryPassKind::kMergedForward
             : obs::RecoveryPassKind::kAnalysis;
}

// Spends one unit of the injected redo-fault budget before a page
// application; returns the injected-crash error when exhausted.
Status SpendRedoBudget(RecoveryFaultBudget* budget) {
  if (budget == nullptr || budget->Spend()) return Status::OK();
  return Status::IOError("injected crash during recovery redo");
}

}  // namespace

Result<ForwardPassResult> ForwardPass(DelegationMode mode, LogManager* log,
                                      BufferPool* pool, Stats* stats,
                                      const CheckpointData* ckpt,
                                      Lsn ckpt_end_lsn,
                                      const ForwardPassOptions& opts) {
  const ForwardPassKind kind = opts.kind;
  RecoveryFaultBudget* redo_budget = opts.redo_budget;
  const coord::Resolution* resolution = opts.resolution;
  table::ReplayTarget* table = opts.table;
  const AnalysisHooks* hooks = opts.hooks;
  // Both redo flavors need the scan to reach back to the redo point.
  const bool redo_bounds = kind != ForwardPassKind::kAnalysisOnly;
  ForwardPassResult result;

  Lsn analysis_from = kFirstLsn;
  Lsn redo_from = kFirstLsn;
  // Per-transaction chain heads as the fuzzy snapshot saw them. A window
  // record (CKPT_BEGIN..CKPT_END) is already reflected in the snapshot's
  // tables iff the snapshot copied its transaction *after* the record was
  // appended — i.e. the snapshot's last_lsn for that transaction is at or
  // past the record. Re-applying only the unreflected records makes the
  // window re-scan idempotent.
  std::unordered_map<TxnId, Lsn> snap_last;
  const auto reflected = [&snap_last](TxnId txn, Lsn lsn) {
    const auto it = snap_last.find(txn);
    return it != snap_last.end() && it->second != kInvalidLsn &&
           it->second >= lsn;
  };
  if (ckpt != nullptr) {
    // Anchor at CKPT_BEGIN: everything appended concurrently with the fuzzy
    // snapshot gets re-scanned and reconciled. Legacy (v1) checkpoints fall
    // back to just past CKPT_END.
    analysis_from = ckpt->AnalysisStart(ckpt_end_lsn);
    redo_from = ckpt->RedoStart(ckpt_end_lsn);
    result.max_txn_id =
        ckpt->next_txn_id > 0 ? ckpt->next_txn_id - 1 : 0;
    for (const CheckpointData::TxnSnapshot& snap : ckpt->active_txns) {
      TxnAnalysis& info = result.txns[snap.id];
      info.id = snap.id;
      info.first_lsn = snap.first_lsn;
      info.last_lsn = snap.last_lsn;
      if (snap.prepared_csn != 0) {
        info.prepared = true;
        info.prepared_csn = snap.prepared_csn;
      }
      info.ob_list = snap.ob_list;
      snap_last[snap.id] = snap.last_lsn;
      result.max_txn_id = std::max(result.max_txn_id, snap.id);
    }
  }

  // An analysis-only pass starts at the checkpoint; a redo-bearing pass
  // may have to reach back to the oldest dirty page.
  const Lsn scan_from =
      redo_bounds ? std::min(redo_from, analysis_from) : analysis_from;
  // The reenactment cut: stop the sweep there instead of the flushed tail.
  const Lsn scan_to = std::min(log->flushed_lsn(), opts.scan_cut);
  result.scan_end = scan_to;
  ++stats->recovery_passes;

  const obs::RecoveryPassKind pass_kind = PassKindOf(kind);
  obs::Histogram* pass_ns = nullptr;
  if (obs::MetricsRegistry* registry = stats->registry()) {
    pass_ns = registry->GetHistogram("ariesrh_recovery_pass_ns");
  }
  obs::ScopedLatencyTimer pass_timer(pass_ns);
  obs::Emit(stats->trace(), obs::TraceEventType::kRecoveryPassBegin,
            static_cast<uint64_t>(pass_kind), scan_from, scan_to);
  uint64_t pass_records = 0;

  // Repeats history for one page or table record past the redo point:
  // applied now (kMerged), or, under kAnalysisCollectRedo, keyed by its page
  // or table redo bucket into `collect_page` — the record's redo entry joins
  // the plan there once the analysis fold is done with it.
  PageId collect_page = kInvalidPage;
  const auto redo = [&](const LogRecord& rec) -> Status {
    if (!redo_bounds || rec.lsn < redo_from) return Status::OK();
    if (kind == ForwardPassKind::kAnalysisCollectRedo) {
      collect_page = IsTableRecord(rec.type) ? table::RedoBucketOf(rec.object)
                                             : PageOf(rec.object);
      return Status::OK();
    }
    ARIESRH_RETURN_IF_ERROR(SpendRedoBudget(redo_budget));
    bool applied = false;
    ARIESRH_RETURN_IF_ERROR(ApplyRecordToPage(
        pool, rec, /*check_page_lsn=*/true, &applied, table));
    if (applied) {
      ++stats->recovery_redos;
      ++result.records_redone;
    }
    return Status::OK();
  };

  LogCursor cursor(*log, scan_from, scan_to);
  cursor.CountRecordsInto(&stats->recovery_forward_records);
  while (cursor.Next()) {
    const LogRecord& rec = cursor.record();
    const Lsn lsn = cursor.lsn();
    ++pass_records;
    const bool analyze = lsn >= analysis_from;
    // Verdicts for the observation hooks (kDelegate fold only).
    bool delegate_applied = false;
    bool delegate_voided = false;

    switch (rec.type) {
      case LogRecordType::kUpdate:
      case LogRecordType::kTableInsert:
      case LogRecordType::kTableUpdate:
      case LogRecordType::kTableDelete: {
        ARIESRH_RETURN_IF_ERROR(redo(rec));
        if (analyze) {
          TxnAnalysis& info = Touch(&result, rec.txn_id, lsn);
          // A window update the snapshot already reflects must not re-adjust
          // scopes: the seeded Ob_List accounts for it (and possibly for a
          // later delegation that moved it away).
          if (mode == DelegationMode::kRH && !reflected(rec.txn_id, lsn)) {
            // ADJUST SCOPES, as in normal processing (Section 3.6.1); a
            // table write's object is its rid. Every table write is
            // exclusive (Set-like), so its scope is marked accordingly for
            // delegation-spec checks.
            ObjectEntry& entry = info.ob_list[rec.object];
            entry.ExtendOrOpen(rec.txn_id, lsn);
            if (rec.type != LogRecordType::kUpdate ||
                rec.kind == UpdateKind::kSet) {
              entry.has_set_update = true;
            }
          }
        }
        break;
      }
      case LogRecordType::kClr:
      case LogRecordType::kTableClr:
        ARIESRH_RETURN_IF_ERROR(redo(rec));
        if (analyze) {
          Touch(&result, rec.txn_id, lsn);
          result.compensated.insert(rec.compensated_lsn);
        }
        break;
      case LogRecordType::kBegin:
        if (analyze) Touch(&result, rec.txn_id, lsn);
        break;
      case LogRecordType::kCommit:
      case LogRecordType::kEnd:
        // Termination flags apply unconditionally, never via the reflected
        // check: the snapshot records only *active* transactions, so it can
        // never testify that a commit was observed — skipping a window
        // COMMIT would wrongly undo a committed transaction on restart.
        if (analyze) {
          TxnAnalysis& info = Touch(&result, rec.txn_id, lsn);
          (rec.type == LogRecordType::kCommit ? info.committed : info.ended) =
              true;
          // Last observable moment of the transaction's resolved
          // responsibility: the scopes it answers for as it terminates.
          if (hooks != nullptr && hooks->on_resolve) {
            hooks->on_resolve(rec, info);
          }
          // Its responsibilities are resolved; its scopes must not feed the
          // loser sweep.
          info.ob_list.clear();
        }
        break;
      case LogRecordType::kAbort:
        if (analyze) Touch(&result, rec.txn_id, lsn).aborting = true;
        break;
      case LogRecordType::kPrepare:
        // Like COMMIT, prepare applies unconditionally (setting it twice is
        // idempotent; a checkpoint snapshot may already carry the csn).
        if (analyze) {
          TxnAnalysis& info = Touch(&result, rec.txn_id, lsn);
          info.prepared = true;
          info.prepared_csn = rec.csn;
        }
        break;
      case LogRecordType::kDelegate:
        if (analyze) {
          Touch(&result, rec.tor, lsn);
          Touch(&result, rec.tee, lsn);
          // TxnManager's checkpoint fence makes each delegation atomic with
          // respect to the fuzzy snapshot: the snapshot saw either both
          // parties post-delegation or neither. So one party reflecting the
          // record means the transfer is already in the seeded Ob_Lists and
          // replaying it would move scopes a second time (e.g. stealing a
          // scope the delegator re-opened after the transfer). Either party
          // may have terminated before the snapshot (absent from it), hence
          // the check consults both.
          const bool in_snapshot =
              reflected(rec.tor, lsn) || reflected(rec.tee, lsn);
          // A csn-stamped record is one leg of a cross-shard transfer; it is
          // effective only if the coordinator's commit point was reached.
          // Voiding leaves the record in both backward chains (traversals
          // still step through it) but the scopes never move — presumed
          // abort for the whole round. The checkpoint fence is held across
          // the entire cross-shard protocol, so a snapshot reflecting the
          // record implies the coordinator COMMIT was already durable.
          const bool voided =
              rec.csn != 0 &&
              (resolution == nullptr || !resolution->IsCommitted(rec.csn));
          delegate_voided = voided;
          if (mode == DelegationMode::kRH && !in_snapshot && !voided) {
            TransferScopes(&result, rec, stats);
            delegate_applied = true;
          } else if (mode == DelegationMode::kLazyRewrite) {
            // Physically rewrite history now (deferred Figure 1): surgery
            // over both chains as they stood just before this record.
            std::unordered_map<TxnId, Lsn> heads;
            // The delegate record itself was already counted as both
            // transactions' last record by Touch above; the chains to
            // rewrite are the ones hanging off its own two pointers.
            heads[rec.tor] = rec.tor_bc;
            heads[rec.tee] = rec.tee_bc;
            std::set<ObjectId> objects(rec.objects.begin(),
                                       rec.objects.end());
            ARIESRH_RETURN_IF_ERROR(RewriteHistory(
                log, stats, rec.tor, rec.tee, objects, &heads));
            // Point the delegate record's chain pointers at the rewritten
            // chain heads so later traversals stay consistent.
            LogRecord patched = rec;
            patched.tor_bc = heads[rec.tor];
            patched.tee_bc = heads[rec.tee];
            ARIESRH_RETURN_IF_ERROR(log->Rewrite(lsn, patched));
          }
        }
        break;
      case LogRecordType::kCkptBegin:
      case LogRecordType::kCkptEnd:
        // The anchor checkpoint's own BEGIN/END bracket the re-scanned
        // window and carry no table deltas. Any *other* checkpoint seen
        // here was superseded (master points elsewhere) or torn. Skip.
        break;
    }
    if (analyze && hooks != nullptr && hooks->on_record) {
      hooks->on_record(rec, delegate_applied, delegate_voided);
    }
    if (collect_page != kInvalidPage) {
      // The scan runs in LSN order, so each page's entries stay in it.
      result.redo_plan.pages[collect_page].push_back(RedoEntry::Of(rec));
      ++result.redo_plan.records;
      collect_page = kInvalidPage;
    }
  }
  ARIESRH_RETURN_IF_ERROR(cursor.status());
  result.records_scanned = pass_records;
  obs::Emit(stats->trace(), obs::TraceEventType::kRecoveryPassEnd,
            static_cast<uint64_t>(pass_kind), pass_records,
            result.records_redone);
  return result;
}

uint64_t ResolveInDoubt(
    ForwardPassResult* fwd, const coord::Resolution* resolution,
    const std::function<void(TxnId, TxnAnalysis*)>& on_commit) {
  uint64_t committed = 0;
  for (auto& [txn, info] : fwd->txns) {
    if (!info.InDoubt() || resolution == nullptr ||
        !resolution->IsCommitted(info.prepared_csn)) {
      continue;
    }
    if (on_commit) on_commit(txn, &info);
    info.committed = true;
    info.ob_list.clear();
    ++committed;
  }
  return committed;
}

}  // namespace ariesrh
