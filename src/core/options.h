// Engine configuration.

#ifndef ARIESRH_CORE_OPTIONS_H_
#define ARIESRH_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace ariesrh {

/// How delegation is realized (Section 3.2 of the paper enumerates the
/// design space; RH is the paper's contribution, the others are baselines).
enum class DelegationMode {
  /// No delegation support at all: conventional ARIES. Delegate() fails.
  /// Exists so E1 ("no delegation, no overhead") compares against an engine
  /// that does not even maintain scope bookkeeping.
  kDisabled,
  /// The paper's algorithm: volatile scopes + one DELEGATE log record;
  /// recovery interprets the log, never modifies it.
  kRH,
  /// Naive baseline (Figure 1 applied eagerly): each delegation physically
  /// rewrites matching log records and re-links both backward chains, with
  /// random stable-log reads and writes.
  kEager,
  /// Deferred baseline: delegations are logged like RH, but recovery
  /// physically rewrites history during the forward pass and then runs
  /// conventional chain undo.
  kLazyRewrite,
};

const char* DelegationModeName(DelegationMode mode);

/// How the RH backward pass locates loser updates. The paper's algorithm
/// sweeps only the clusters of overlapping loser scopes; the full-scan
/// alternative ("one could scan all log records backwards, identifying the
/// loser updates... undesirable as it entails unnecessarily inspecting many
/// winner updates", Section 3.6.2) exists as an ablation baseline.
enum class UndoStrategy {
  kScopeClusters,
  kFullScan,
};

const char* UndoStrategyName(UndoStrategy strategy);

/// How much restart work Database::Open / StartRecovery performs before the
/// engine accepts new transactions (docs/INSTANT_RESTART.md).
enum class RecoveryMode {
  /// Classic ARIES/RH restart: analysis, redo, and undo all complete before
  /// the open returns. The RecoveryHandle is done by then.
  kFull,
  /// Instant restart (Sauer & Härder style, made cheap by RH's scope
  /// index): the open returns after the analysis sweep. Redo replays
  /// per-page on demand as pages are fetched; loser-cluster undo runs
  /// incrementally on a background pool, blocking only transactions whose
  /// footprints intersect a still-unresolved loser cluster. Requires
  /// delegation_mode kRH and undo_strategy kScopeClusters (the scope index
  /// IS the blocking mechanism).
  kInstant,
};

const char* RecoveryModeName(RecoveryMode mode);

/// When the group-commit flusher forces (docs/GROUP_COMMIT.md).
enum class GroupCommitPolicy {
  /// Fixed window: after a request the flusher waits group_commit_window_us
  /// (or until group_commit_target_batch requests queue) before forcing.
  kFixed,
  /// Device-paced: the flusher forces the moment the device is free; a
  /// batch is whatever queued during the previous force. No timer, so a
  /// lone committer pays one force and N concurrent ones share ~1.
  kAdaptive,
};

const char* GroupCommitPolicyName(GroupCommitPolicy policy);

/// Upper bound on Options::num_shards. Shards are full engine instances
/// (log, pool, lock table, daemon threads each); the cap keeps a typo from
/// spawning thousands of them.
inline constexpr size_t kMaxShards = 64;

/// Test-only fault injection knobs.
struct FaultInjection {
  /// When non-zero, recovery's undo pass "crashes" (flushes the log written
  /// so far and fails with IOError) after undoing this many updates. Used
  /// to prove recovery is idempotent when interrupted mid-undo.
  uint64_t crash_after_undo_steps = 0;

  /// When non-zero, recovery's redo work "crashes" (fails with IOError)
  /// after applying this many records. Redo never writes the log, so
  /// nothing needs flushing — the stable state is simply left mid-redo.
  /// With recovery_threads > 1 the budget is shared across redo workers.
  uint64_t crash_after_redo_records = 0;
};

/// Knobs for Database construction. Defaults give a small, fully-functional
/// engine suitable for tests; benches widen the pool and the object space.
struct Options {
  DelegationMode delegation_mode = DelegationMode::kRH;

  /// Engine shards. 1 (the default) is the classic single-engine layout,
  /// byte-for-byte identical to the unsharded engine. N > 1 partitions the
  /// object space by ObjectId hash across N independent engine shards (each
  /// with its own log, buffer pool, lock table, transaction-manager
  /// partition, and checkpoint daemon); transactions that touch several
  /// shards commit through the coordinator (docs/SHARDING.md). Sharding
  /// requires checkpoint-capable recovery, so only kRH and kDisabled
  /// delegation modes are valid with num_shards > 1.
  size_t num_shards = 1;

  /// Buffer pool frames (per shard).
  size_t buffer_pool_pages = 64;

  /// Force the log on every commit (classic durability). When false, the
  /// commit record stays in the volatile tail until the next flush — lazy
  /// durability: far fewer device flushes, but an acknowledged commit can be
  /// lost to a crash until Database::Sync() (or any forced flush) runs.
  bool force_commits = true;

  /// Group commit: a dedicated flusher thread owns the stable-log forces.
  /// Commit appends its record, enqueues a flush request, and parks until
  /// the flusher's next batched force covers it — the commit record is
  /// durable before Commit returns (the WAL rule holds), but N concurrent
  /// committers share ~1 device force instead of paying N. Requires
  /// force_commits (lazy durability and group commit are contradictory).
  bool group_commit = false;

  /// Group-commit coalescing window, in microseconds. After waking for a
  /// flush request the flusher waits up to this long for more committers to
  /// pile on before forcing; 0 forces immediately (batching then emerges
  /// naturally from requests arriving while a force is in flight). Only
  /// meaningful with group_commit and the kFixed policy.
  uint64_t group_commit_window_us = 0;

  /// Force policy (see GroupCommitPolicy). Set the window only under
  /// kFixed; kAdaptive has none.
  GroupCommitPolicy group_commit_policy = GroupCommitPolicy::kFixed;

  /// kFixed only: the flusher forces as soon as this many requests are
  /// queued rather than sleeping out the window (0 disables the early wake).
  uint64_t group_commit_target_batch = 8;

  /// Early lock release (docs/GROUP_COMMIT.md): a committing transaction
  /// releases its locks the moment its COMMIT record is *appended*, before
  /// the group-commit force. A transaction that then acquires one of those
  /// locks picks up a commit-ordering dependency — it may not report commit
  /// until the releaser's COMMIT record is durable, and cascade-aborts if
  /// the releaser's flush fails. Shrinks lock hold time by the full force
  /// latency. Requires force_commits (without a durability wait there is no
  /// window to release early into).
  bool early_lock_release = false;

  /// Background checkpoint daemon: when either interval is non-zero the
  /// Database owns a thread that takes fuzzy checkpoints concurrently with
  /// the workload — after this many log records have been appended since
  /// the last checkpoint (0 = no record-count trigger)...
  uint64_t checkpoint_interval_records = 0;
  /// ...or after this many milliseconds have elapsed since the last one
  /// (0 = no timer trigger). Both triggers may be combined; whichever fires
  /// first wins. Requires a checkpoint-consuming delegation mode (kRH or
  /// kDisabled — the rewriting baselines recover from the log head and
  /// would take checkpoints nothing ever reads).
  uint64_t checkpoint_interval_ms = 0;

  /// After each daemon checkpoint, archive the no-longer-needed log prefix
  /// (Database::ArchiveLog) automatically — continuous log retention.
  /// Requires the checkpoint daemon (an interval above must be set).
  bool auto_archive = false;

  /// Backward-pass implementation for kRH (ablation; see UndoStrategy).
  UndoStrategy undo_strategy = UndoStrategy::kScopeClusters;

  /// Restart availability policy (see RecoveryMode). kFull keeps the
  /// classic blocking restart; kInstant opens after analysis and pays
  /// redo/undo lazily, gated per object by the loser-scope index.
  RecoveryMode recovery_mode = RecoveryMode::kFull;

  /// Worker threads for restart recovery. At 1 (the default) kFull restart
  /// applies redo inside the paper's single merged forward sweep (§3.3).
  /// With more threads the sweep only collects a redo plan, which replays
  /// page-partitioned on a worker pool. The undo pass is one backward log
  /// stream per shard at any value, so its log reads stay sequential.
  size_t recovery_threads = 1;

  /// Simulated seek stall, in nanoseconds, charged to each *random*
  /// (non-adjacent) stable-log record read; sequential scans stay free.
  /// 0 (the default) disables stalling. Models the access-pattern
  /// asymmetry of real stable storage so overlapping seeks — what
  /// parallel restart exploits — is wall-clock measurable even where
  /// plain CPU parallelism is not (single-core CI, the simulated disk's
  /// in-memory reads). The stall is paid outside the log manager's lock.
  uint64_t sim_log_random_read_ns = 0;

  /// Simulated device stall, in nanoseconds, charged to each stable-log
  /// *force* (the synchronous write barrier a commit pays for durability).
  /// 0 (the default) disables stalling. Models the fsync latency real
  /// stable storage charges per force, so group commit's amortization —
  /// N committers sharing one force — is wall-clock measurable even on the
  /// in-memory simulated disk. The stall is paid outside the log manager's
  /// tail lock, so concurrent appenders keep running during a force.
  uint64_t sim_log_force_ns = 0;

  /// Lock granularity for the typed table layer (docs/TABLE.md). True (the
  /// default) locks each record's rid, so transactions touching different
  /// keys in one heap bucket never conflict. False locks the key's bucket
  /// chain — page-granularity locking, the false-sharing baseline the
  /// record mode is measured against. Recovery semantics are identical in
  /// both modes (logging is logical either way).
  bool table_record_locking = true;

  /// Upper bound on a table value's size in bytes. A record (key + value +
  /// slot overhead) must fit a heap page, so the bound must leave room for
  /// the largest permitted key.
  size_t table_max_value_bytes = 1024;

  /// Test-only fault injection.
  FaultInjection faults;

  /// Checks the knobs for internal consistency. Called by the Database
  /// constructor and Database::Open; a failed validation leaves the
  /// database unusable (every operation returns this status).
  Status Validate() const;
};

}  // namespace ariesrh

#endif  // ARIESRH_CORE_OPTIONS_H_
