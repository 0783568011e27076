// Restart recovery: one pipeline, scheduled two ways.
//
// Both restart modes build the same RecoveryManager::Plan: checkpoint
// lookup, one forward sweep (analysis, with redo applied inline or collected
// into a redo plan), in-doubt resolution, the losers' undo groups, and END
// records for everything analysis alone resolves. Both then run the same
// undo executor (UndoGroups): one backward log stream per shard over every
// group. kFull (Recover) applies redo first — inside the merged sweep at one
// thread, page-partitioned on recovery_threads workers above that — and
// runs the executor before returning; kInstant (InstantRestart, ondemand.h)
// arms on-demand redo and the recovery gate and runs the executor in the
// background. Time travel (reenact/) runs the same executor at a cut through
// a sink that logs nothing.

#ifndef ARIESRH_RECOVERY_RECOVERY_MANAGER_H_
#define ARIESRH_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "recovery/analysis.h"
#include "recovery/redo.h"
#include "recovery/undo_rh.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/test_hook.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// Splits the losers in `fwd` into undo groups. Under kRH every loser scope
/// is a target: kScopeClusters partitions them (PartitionUndoClusters), the
/// kFullScan ablation keeps them in one group. The other modes undo by
/// chain: one group holding every loser's chain head. A loser with nothing
/// to undo belongs to no group.
std::vector<UndoGroup> BuildUndoGroups(const ForwardPassResult& fwd,
                                       const Options& options);

/// The undo executor, one thread per shard: under kRH scope clusters one
/// SweepLoserClusters stream over every group at once, under the kFullScan
/// ablation FullScanUndo, otherwise ChainUndo (those two modes have one
/// group) — reading `log` and compensating through `sink`. When a group is
/// resolved its losers end (UndoSink::End) and `on_group_done(g)`
/// (optional) runs; a failing callback stops the pass. `records_skipped`
/// (optional) receives the records the cluster sweep sought over. Returns
/// the first failure.
Status UndoGroups(const Options& options, const ForwardPassResult& fwd,
                  std::vector<UndoGroup>* groups, LogManager* log,
                  Stats* stats, UndoSink* sink,
                  const std::function<Status(size_t)>& on_group_done = nullptr,
                  uint64_t* records_skipped = nullptr);

/// Drives restart recovery. Construct against the post-crash components
/// (fresh log manager and buffer pool over the surviving disk), then either
/// call Recover() once (kFull) or drive BuildPlan()/Undo() (kInstant).
class RecoveryManager {
 public:
  /// `heap` (optional) is the shard's table heap; logical table records
  /// replay into it and table undo compensates through it. Engines without
  /// a table layer pass nullptr. `hook` (optional) runs at "recovery:redo"
  /// before each redo application, inline or on a redo worker, and at
  /// "recovery:undo" before each compensation, where its error flushes the
  /// log first (LoggingUndoSink).
  RecoveryManager(const Options& options, SimulatedDisk* disk,
                  LogManager* log, BufferPool* pool, Stats* stats,
                  table::TableHeap* heap = nullptr, TestHook hook = nullptr);

  /// What restart recovery did — enough for operators (the shell's
  /// `recover` command prints it) and for tests to assert equivalence
  /// across thread counts.
  struct Outcome {
    TxnId next_txn_id = 1;   ///< id counter seed for new transactions
    uint64_t winners = 0;    ///< committed before the crash
    uint64_t losers = 0;     ///< rolled back by recovery
    Lsn checkpoint_used = 0; ///< CKPT_END the pass started from (0 = none)

    uint32_t threads_used = 1;        ///< worker threads the run employed
    bool merged_forward_pass = false; ///< analysis+redo in one sweep?

    uint64_t analysis_ns = 0;  ///< wall time of the analysis-bearing sweep
    uint64_t redo_ns = 0;      ///< wall time of redo (0 when merged)
    uint64_t undo_ns = 0;      ///< wall time of the backward pass

    uint64_t records_analyzed = 0;  ///< records the forward sweep examined
    uint64_t records_redone = 0;    ///< records actually applied to pages
    uint64_t records_undone = 0;    ///< loser updates compensated (CLRs)
    uint64_t clusters_swept = 0;    ///< undo cluster groups dispatched
    uint64_t records_skipped = 0;   ///< records the cluster sweep never read

    /// In-doubt (prepared) transactions resolved from the coordinator log:
    /// committed because the coordinator's COMMIT was durable, or rolled
    /// back by presumed abort. Always 0 in unsharded engines.
    uint64_t in_doubt_committed = 0;
    uint64_t in_doubt_aborted = 0;

    /// Multi-line human-readable rendering (shell `recover` output).
    std::string ToString() const;
  };

  /// What the restart front half leaves for redo and undo.
  struct Plan {
    ForwardPassResult fwd;
    std::vector<UndoGroup> groups;
    Outcome outcome;  ///< filled in as the restart proceeds
  };

  /// kFull: BuildPlan, redo, Undo, flush — the whole restart before it
  /// returns. Idempotent under crashes during recovery: re-running after a
  /// partial recovery converges to the same state (CLRs and the compensated
  /// set prevent double undo).
  ///
  /// `resolution` (sharded engines) carries the coordinator's durable
  /// verdicts: a prepared transaction whose csn is committed there gets a
  /// COMMIT record appended and counts as a winner; every other prepared
  /// transaction rolls back (presumed abort — the same thing nullptr
  /// does, which is also the unsharded engine's path).
  Result<Outcome> Recover(const coord::Resolution* resolution = nullptr);

  /// The restart front half both modes share: checkpoint lookup, the
  /// forward sweep, in-doubt resolution (see Recover), the undo groups, and
  /// END records for winners and for losers with nothing to undo. `kind` is
  /// kMerged (redo applied inline) or kAnalysisCollectRedo (redo left in
  /// fwd.redo_plan). Appends but does not flush.
  Result<Plan> BuildPlan(const coord::Resolution* resolution,
                         ForwardPassKind kind);

  /// The undo pass: UndoGroups over `plan`'s groups through the logging
  /// sink, wrapped in the pass's trace pair, timers and Outcome fields.
  Status Undo(Plan* plan,
              const std::function<Status(size_t)>& on_group_done = nullptr);

  /// Scans backward from the stable log's end dropping records whose CRC
  /// fails (torn tail). Called before constructing the log manager.
  static Status TruncateTornTail(SimulatedDisk* disk);

  /// Locates the most recent completed checkpoint via the disk's master
  /// record and deserializes it into `out`. Returns the CKPT_END LSN, or 0
  /// when recovery must start from the log head (`out` is then untouched) —
  /// always 0 for the history-rewriting baselines, whose checkpoints would
  /// be stale. Shared by restart and reenactment.
  static Result<Lsn> LocateCheckpoint(const Options& options,
                                      SimulatedDisk* disk, LogManager* log,
                                      CheckpointData* out);

 private:
  const Options& options_;
  SimulatedDisk* disk_;
  LogManager* log_;
  BufferPool* pool_;
  Stats* stats_;
  table::TableHeap* heap_;
  const TestHook hook_;
};

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_RECOVERY_MANAGER_H_
