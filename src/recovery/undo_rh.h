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
// every loser's scopes: one stream per shard over all of them, resolving
// independent groups as it passes their oldest scope) and time travel,
// which compensates through an UndoSink that logs nothing. The stream reads
// the log through one backward LogCursor, reading through a short gap
// between clusters instead of paying a seek to jump it.

#ifndef ARIESRH_RECOVERY_UNDO_RH_H_
#define ARIESRH_RECOVERY_UNDO_RH_H_

#include <functional>
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

/// One independently sweepable unit of loser undo: the loser scopes it
/// covers (kRH) and the backward-chain heads of the losers it rolls back.
/// Each loser lives in exactly one group, so groups never share a chain.
struct UndoGroup {
  std::vector<ScopeUndoTarget> targets;  ///< empty under chain undo
  std::unordered_map<TxnId, Lsn> heads;  ///< in/out: CLRs chain onto these
};

/// The cluster sweep: ONE backward LogCursor stream over the union of every
/// group's loser scopes, newest cluster first, handing every covered update
/// to `sink` on behalf of its scope's responsible transaction, whose chain
/// head the scope's group keeps (UndoGroup::heads). Records whose LSN is in
/// `compensated` (undone before a crash — rebuilt by the forward pass from
/// CLRs) are examined but not undone again. Each record is visited at most
/// once, in strictly decreasing LSN order, over all groups together.
///
/// Between clusters, starting from `sweep_from` (the newest record the pass
/// could have read — the end of the log during recovery), the stream moves
/// on with LogCursor::SkipTo: a gap shorter than the device's break-even is
/// read through (stats->recovery_backward_read_through), a longer one is
/// sought over (stats->recovery_backward_skipped, plus a kUndoClusterSkip
/// trace event). So examined + skipped + read-through records equal
/// `sweep_from - oldest scope start + 1`; with the seek stall at 0 nothing
/// is read through. When a group's last scope retires, `on_group_done(g)`
/// (optional) runs — groups resolve in stream order — and a failing
/// callback stops the sweep. `records_skipped` (optional) receives the
/// records this sweep sought over.
Status SweepLoserClusters(
    std::vector<UndoGroup>* groups, const std::unordered_set<Lsn>& compensated,
    Lsn sweep_from, LogManager* log, Stats* stats, UndoSink* sink,
    const std::function<Status(size_t)>& on_group_done = nullptr,
    uint64_t* records_skipped = nullptr);

/// SweepLoserClusters over one group: `targets`, with the responsible
/// transactions' backward chain heads in `heads` (in/out). The
/// normal-processing abort's sweep.
Status ScopeSweepUndo(std::vector<ScopeUndoTarget> targets,
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

/// Partitions loser scopes into groups that resolve independently: the
/// unit kInstant's recovery gate lifts, and the losers that end together.
/// Two scopes land in the same group when any of the following holds
/// (transitively):
///  - their LSN intervals overlap — they belong to the same sweep cluster;
///  - they share a responsible transaction — that loser is rolled back only
///    once all of its scopes are;
///  - they name the same object — the object is consistent again only once
///    every loser update of it is undone.
/// Groups are returned in a deterministic order (by largest scope end,
/// descending) regardless of input order. Scopes inside a group are sorted
/// by scope start, descending.
std::vector<std::vector<ScopeUndoTarget>> PartitionUndoClusters(
    const std::vector<ScopeUndoTarget>& targets);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_UNDO_RH_H_
