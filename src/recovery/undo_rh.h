// The ARIES/RH backward pass (paper Figure 8): undo by loser-scope clusters.
//
// Instead of following per-transaction backward chains, RH undoes exactly
// the *loser updates* — updates whose ultimately-responsible transaction is
// a loser — by sweeping the log backwards through the clusters of
// overlapping loser scopes. Between clusters no record is touched; within a
// cluster each record is examined exactly once, in strictly decreasing LSN
// order (the property that preserves ARIES's sequential-log efficiencies).
//
// The same sweep serves normal-processing abort (the "cluster" is then just
// the aborting transaction's own scopes), restart's undo pass (clusters span
// every loser's scopes, one sweep per independent group) and time travel,
// which compensates through an UndoSink that logs nothing.

#ifndef ARIESRH_RECOVERY_UNDO_RH_H_
#define ARIESRH_RECOVERY_UNDO_RH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "recovery/redo.h"
#include "txn/scope.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// One loser scope queued for undo, tagged with the transaction that is
/// responsible for (and therefore aborts) the covered updates.
struct ScopeUndoTarget {
  TxnId responsible = kInvalidTxn;
  ObjectId object = kInvalidObject;
  Scope scope;
};

/// Credits `stats->recovery_backward_skipped` with every record a cluster
/// sweep over `targets` leaves unread: the gap from `sweep_from` (the newest
/// record the pass could have read — the end of the log during recovery)
/// down to the first cluster, and the gaps between clusters. Each credited
/// gap is also a kUndoClusterSkip trace event. Over one pass, examined plus
/// skipped records then equal `sweep_from - oldest scope start + 1`, however
/// the targets are later split into sweeps. Returns the records credited.
uint64_t CreditClusterSkips(const std::vector<ScopeUndoTarget>& targets,
                        Lsn sweep_from, Stats* stats);

/// Sweeps the log backwards through the clusters of overlapping `targets`,
/// handing every covered update to `sink` on behalf of the scope's
/// responsible transaction, skipping records whose LSN appears in
/// `compensated` (already undone before a crash — rebuilt by the forward
/// pass from CLRs). `heads` carries the responsible transactions' backward
/// chain heads (in/out). Reads `log`; credits no skips (CreditClusterSkips
/// does, once per pass).
Status SweepLoserClusters(const std::vector<ScopeUndoTarget>& targets,
                          const std::unordered_set<Lsn>& compensated,
                          LogManager* log, Stats* stats, UndoSink* sink,
                          std::unordered_map<TxnId, Lsn>* heads);

/// One whole cluster-sweep pass: CreditClusterSkips from `sweep_from`, then
/// SweepLoserClusters over the same targets.
Status ScopeSweepUndo(const std::vector<ScopeUndoTarget>& targets,
                      const std::unordered_set<Lsn>& compensated,
                      Lsn sweep_from, LogManager* log, Stats* stats,
                      UndoSink* sink, std::unordered_map<TxnId, Lsn>* heads);

/// Ablation baseline for the backward pass (Section 3.6.2's rejected
/// alternative): scan EVERY record from `sweep_from` down to the oldest
/// loser scope, matching each against the loser scopes. Produces the same
/// compensations in the same order as ScopeSweepUndo but examines every
/// record in between, including all the winner updates the cluster sweep
/// skips.
Status FullScanUndo(const std::vector<ScopeUndoTarget>& targets,
                    const std::unordered_set<Lsn>& compensated,
                    Lsn sweep_from, LogManager* log, Stats* stats,
                    UndoSink* sink, std::unordered_map<TxnId, Lsn>* heads);

/// Partitions loser scopes into groups that can be undone concurrently,
/// one ScopeSweepUndo per group. Two scopes land in the same group when any
/// of the following holds (transitively):
///  - their LSN intervals overlap — they belong to the same sweep cluster,
///    and splitting a cluster would break the single-examination sweep;
///  - they share a responsible transaction — that loser's CLR chain must be
///    written in strictly decreasing compensated-LSN order, which only a
///    single sequential sweep guarantees;
///  - they name the same object — a Set undo restores a before image, so
///    per-object undo order must match the serial (decreasing-LSN) order.
/// Groups are returned in a deterministic order (by largest scope end,
/// descending) regardless of input order. Scopes inside a group keep the
/// relative order ScopeSweepUndo would see serially.
std::vector<std::vector<ScopeUndoTarget>> PartitionUndoClusters(
    const std::vector<ScopeUndoTarget>& targets);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_UNDO_RH_H_
