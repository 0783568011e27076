// The ARIES/RH forward pass: merged analysis + redo (paper Section 3.6.1).
//
// A single sweep of the stable log that (a) repeats history — reapplies
// every logged update and CLR whose page does not yet reflect it — and
// (b) rebuilds the volatile state delegation depends on: the transaction
// table, each transaction's Ob_List with scopes (by re-playing UPDATE scope
// adjustments and DELEGATE scope transfers exactly as normal processing
// performed them), the set of compensated updates, and the winner/loser
// classification. The paper's key efficiency point is that all of this is
// piggy-backed on the sweep ARIES already performs; no extra pass exists.

#ifndef ARIESRH_RECOVERY_ANALYSIS_H_
#define ARIESRH_RECOVERY_ANALYSIS_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "coord/coordinator_log.h"
#include "core/options.h"
#include "recovery/checkpoint.h"
#include "recovery/redo.h"
#include "storage/buffer_pool.h"
#include "table/table_heap.h"
#include "txn/scope.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/test_hook.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// Per-transaction state rebuilt by the forward pass.
struct TxnAnalysis {
  TxnId id = kInvalidTxn;
  Lsn first_lsn = kInvalidLsn;
  Lsn last_lsn = kInvalidLsn;
  bool committed = false;  ///< COMMIT record seen -> winner
  bool aborting = false;   ///< ABORT record seen, rollback was in progress
  bool ended = false;      ///< END record seen -> fully resolved
  bool prepared = false;   ///< PREPARE record seen -> in doubt (2PC)
  uint64_t prepared_csn = 0;  ///< csn of the PREPARE round (0 = none)
  ObList ob_list;  ///< scopes (kRH mode only)

  bool IsLoser() const { return !committed && !ended; }
  /// In doubt: voted in a 2PC round whose fate only the coordinator log
  /// knows. ResolveInDoubt settles these before the undo pass.
  bool InDoubt() const { return prepared && !committed && !ended; }
};

/// Everything recovery's backward pass needs.
struct ForwardPassResult {
  std::unordered_map<TxnId, TxnAnalysis> txns;
  /// LSNs of updates already undone before the crash (from CLRs).
  std::unordered_set<Lsn> compensated;
  /// Highest transaction id observed (for re-seeding the id counter).
  TxnId max_txn_id = 0;
  /// Last LSN processed (end of the stable log).
  Lsn scan_end = 0;
  /// Records examined by this sweep (for the recovery Outcome).
  uint64_t records_scanned = 0;
  /// Records this sweep applied to pages (kMerged only).
  uint64_t records_redone = 0;
  /// Redo work discovered but not applied (kAnalysisCollectRedo only), keyed
  /// by page — the input to PartitionedRedo and OnDemandRedo.
  RedoPlan redo_plan;
};

/// What a forward sweep does. Restart always rebuilds the tables in one
/// sweep (§3.3: "ARIES/RH relies on a single forward pass"); the kind only
/// says what happens to the redo work that sweep discovers.
enum class ForwardPassKind {
  kMerged,        ///< analysis + redo applied inline, one sweep
  kAnalysisOnly,  ///< rebuild tables/scopes, do not touch pages
  /// Rebuild tables/scopes AND move every redo-eligible record into
  /// ForwardPassResult::redo_plan under its page without touching pages —
  /// the input to PartitionedRedo (parallel restart) and OnDemandRedo
  /// (instant restart).
  kAnalysisCollectRedo,
};

/// Observation hooks into the analysis fold (all optional). The reenactment
/// engine and the log-inspection paths use these to watch the same scope /
/// Ob_List reconstruction recovery performs, instead of re-implementing the
/// delegation-resolution rules a second time.
struct AnalysisHooks {
  /// Called after each record's analysis fold (analysis-bearing kinds only,
  /// records at or past the analysis anchor). For kDelegate records
  /// `delegate_applied` reports whether the scopes actually moved, and
  /// `delegate_voided` whether a csn-stamped leg was voided (its
  /// cross-shard round never reached the coordinator's commit point). Both
  /// are false for every other record type.
  std::function<void(const LogRecord& rec, bool delegate_applied,
                     bool delegate_voided)>
      on_record;
  /// Called when a termination record (COMMIT or END) is about to drop the
  /// transaction's Ob_List — the last moment its resolved responsibility
  /// (every scope it answers for) is observable. `info` still carries the
  /// pre-clear ob_list; `info.committed` reflects the record being folded.
  std::function<void(const LogRecord& rec, const TxnAnalysis& info)>
      on_resolve;
};

/// Optional knobs for ForwardPass, bundled so new consumers (reenactment,
/// log inspection) do not keep growing the positional signature.
struct ForwardPassOptions {
  ForwardPassKind kind = ForwardPassKind::kMerged;
  /// Runs at "recovery:redo" before each of kMerged's redo applications;
  /// its error stops the pass (may be nullptr).
  const TestHook* hook = nullptr;
  /// Coordinator verdicts for csn-stamped DELEGATE legs (see ForwardPass).
  const coord::Resolution* resolution = nullptr;
  /// What logical table records replay into (redo-bearing kinds): the
  /// engine's TableHeap, or a reenactment fold's overlay.
  table::ReplayTarget* table = nullptr;
  /// Stop the scan after this LSN — the reenactment cut. kInvalidLsn (the
  /// default) scans to the flushed tail, which is recovery's behavior.
  Lsn scan_cut = kInvalidLsn;
  /// Observation hooks (see AnalysisHooks); may be nullptr.
  const AnalysisHooks* hooks = nullptr;
};

/// Runs a forward pass over the stable log. `ckpt` (with `ckpt_end_lsn`)
/// seeds the tables and bounds the scan when a checkpoint exists; pass
/// nullptr to scan from the log head. In kLazyRewrite mode the
/// analysis-bearing pass also physically applies each DELEGATE record via
/// chain surgery (the baseline the paper contrasts with RH).
/// `resolution` (sharded engines) carries the coordinator's committed-csn
/// set: a csn-stamped DELEGATE record whose csn is not committed is one leg
/// of a cross-shard transfer that never reached its commit point — the pass
/// voids it (the record stays in both backward chains but its scopes never
/// transfer, so undo targets the original invoker). nullptr treats every
/// csn-stamped DELEGATE as uncommitted, which is exactly presumed abort.
/// `opts.table` (optional) is what logical table records replay into
/// (redo-bearing kinds); engines without a table layer pass nullptr and a
/// table record to redo is then an error. `pool` is touched only by the
/// redo-bearing kinds: a kAnalysisOnly pass may pass nullptr for it.
Result<ForwardPassResult> ForwardPass(DelegationMode mode, LogManager* log,
                                      BufferPool* pool, Stats* stats,
                                      const CheckpointData* ckpt,
                                      Lsn ckpt_end_lsn,
                                      const ForwardPassOptions& opts = {});

/// In-doubt resolution (2PC) over a forward pass's result: a prepared
/// transaction whose csn `resolution` committed becomes a winner —
/// `on_commit` (optional) sees it first, Ob_List intact — and its undo
/// targets drop. Every other prepared transaction stays a loser: presumed
/// abort, exactly what a null `resolution` means. Returns how many were
/// committed.
uint64_t ResolveInDoubt(
    ForwardPassResult* fwd, const coord::Resolution* resolution,
    const std::function<void(TxnId, TxnAnalysis*)>& on_commit = nullptr);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_ANALYSIS_H_
