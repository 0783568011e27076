// Transaction manager: normal processing per Section 3.5 of the paper.
//
// Implements begin / read / update (Set, Add) / delegate / permit /
// commit / abort over the WAL, buffer pool, and lock manager; the Database
// facade hands out the transaction ids and keeps the form-dependency graph.
// Delegation maintenance follows the paper exactly:
//   update    -> ADJUST SCOPES (open or extend the invoker's scope)
//   delegate  -> WELL-FORMED? / PREPARE LOG RECORD / TRANSFER RESPONSIBILITY
//                (move scopes between Ob_Lists) / WRITE DELEGATION RECORD
//                (which becomes the head of both backward chains)
//   commit    -> commit record, force the log (NO-FORCE for pages)
//   abort     -> undo exactly the updates in the transaction's scopes by a
//                backward cluster sweep, writing CLRs
//
// Under DelegationMode::kDisabled none of the scope bookkeeping runs and
// abort uses conventional backward-chain undo — the engine is then plain
// ARIES, which is what makes the paper's "no delegation, no overhead" claim
// honestly measurable.
//
// Thread safety: safe under concurrent callers, with the session contract a
// real engine's connection layer provides — all calls on behalf of ONE
// transaction come from one session at a time. Different transactions may be
// driven concurrently (the worker-pool scheduler does exactly that):
//   - the transaction table is guarded by a shared mutex and holds each
//     control block by shared_ptr; a lookup hands out a reference, so the
//     block outlives a checkpoint's reap while any session still uses it,
//   - each control block carries a latch for the fields cross-transaction
//     observers touch (ob_list scope moves during delegation, last_lsn chain
//     splices, checkpoint snapshots, ResponsibleTxn sweeps),
//   - delegation's guard locks both parties' latches in ascending-TxnId
//     order and checks their state underneath them, so it cannot race a
//     commit,
//   - Commit parks in LogManager::FlushWait *outside* the latch (group
//     commit), flagging the block `terminating` first so no delegation can
//     splice into the chain behind the COMMIT record.
//   - checkpoints reap terminated transactions (CheckpointSnapshot) under
//     the exclusive checkpoint fence and the exclusive table lock.
// Lock order: the checkpoint fence (delegations shared, snapshots
// exclusive), then transaction latches (two at once in ascending-TxnId
// order), then the buffer-pool latch, then log-manager internals;
// lock-manager shards are leaves.

#ifndef ARIESRH_TXN_TXN_MANAGER_H_
#define ARIESRH_TXN_TXN_MANAGER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/options.h"
#include "lock/lock_manager.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "table/table_heap.h"
#include "txn/delegation_spec.h"
#include "txn/dependency_graph.h"
#include "txn/transaction.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// Volatile; a crash discards it entirely. See the file comment for the
/// concurrency contract.
class TxnManager {
 public:
  /// `heap` (optional) is the shard's table heap; nullptr disables the
  /// Table* entry points (they then return IllegalState).
  TxnManager(const Options& options, LogManager* log, BufferPool* pool,
             LockManager* locks, Stats* stats,
             table::TableHeap* heap = nullptr);

  /// Starts a transaction (ASSET initiate+begin) under the id the facade
  /// allocated, which enlists a transaction once on each shard it touches:
  /// writes a BEGIN record. `id` must be new to this shard. Bumps the local
  /// counter past `id`, which a checkpoint records and restart seeds the
  /// facade's ids from.
  Result<TxnId> BeginWithId(TxnId id);

  /// Reads an object under a shared lock (or a stronger lock/permit already
  /// held). Returns kBusy on lock conflict.
  Result<int64_t> Read(TxnId txn, ObjectId ob);

  /// Overwrites an object (exclusive lock).
  Status Set(TxnId txn, ObjectId ob, int64_t value);

  /// Increments an object (increment lock; commutes with other increments,
  /// so several transactions may hold scopes on one object concurrently).
  Status Add(TxnId txn, ObjectId ob, int64_t delta);

  // --- Typed key-value table layer (docs/TABLE.md) ---
  //
  // Each record's key hashes to a stable rid; the rid is an ObjectId, so
  // scopes, delegation, and (in record mode) locks key by it directly.
  // Logging is logical — TBL_* records carry the key and before/after
  // images — and Options::table_record_locking picks the lock granularity
  // (rid vs the key's bucket chain). kRH and kDisabled modes only: the
  // rewriting baselines physically splice chains and know nothing of the
  // logical record types.

  /// Reads the record under a shared lock (exclusive when `for_update` —
  /// the read-modify-write idiom, which must not upgrade mid-flight).
  /// nullopt = no such key. kBusy on lock conflict.
  Result<std::optional<std::string>> TableGet(TxnId txn,
                                              const std::string& key,
                                              bool for_update = false);

  /// Inserts or overwrites the record (exclusive lock): logs TBL_INSERT or
  /// TBL_UPDATE (chosen from the key's current state) and applies it.
  Status TablePut(TxnId txn, const std::string& key, const std::string& value);

  /// Deletes the record (exclusive lock): logs TBL_DELETE carrying the
  /// before image. NotFound if the key does not exist.
  Status TableDelete(TxnId txn, const std::string& key);

  /// Ordered scan: up to `limit` (0 = unbounded) pairs with key >=
  /// start_key, each stabilized under a shared lock before it is returned.
  /// kBusy on any lock conflict (no partial result).
  Result<std::vector<std::pair<std::string, std::string>>> TableScan(
      TxnId txn, const std::string& start_key, size_t limit);

  /// ASSET permit: let `grantee` access `ob` despite `owner`'s locks.
  Status Permit(TxnId owner, TxnId grantee, ObjectId ob);

  /// Establishes a savepoint: a token for RollbackTo. Cheap (no log
  /// record); the token is the transaction's current chain head.
  Result<Lsn> Savepoint(TxnId txn);

  /// Partial rollback (ARIES-style): undoes every update logged after the
  /// savepoint that the transaction is currently responsible for, writing
  /// CLRs, and clips its scopes accordingly. The transaction stays active
  /// and keeps its locks.
  ///
  /// Interaction with delegation follows responsibility, not invocation
  /// (history has been rewritten, so delegated-in updates count as this
  /// transaction's): every currently-responsible update with LSN greater
  /// than the savepoint is undone — including delegated-in ones — while
  /// updates delegated *away* since the savepoint are no longer this
  /// transaction's to undo and survive.
  Status RollbackTo(TxnId txn, Lsn savepoint);

  /// Commits: writes the COMMIT record, makes it durable (direct force, or
  /// a parked group-commit wait when Options::group_commit is set), writes
  /// END, releases locks. The WAL rule holds in every mode: Commit returns
  /// OK only after the commit record is on stable storage (unless forcing
  /// is off entirely, the deliberate fast-and-loose configuration). The
  /// facade checks form-dependency prerequisites before it calls this.
  ///
  /// With Options::early_lock_release the locks are marked released the
  /// moment the COMMIT record is appended — before the durability wait — so
  /// other transactions can acquire them during the force. Each such
  /// acquirer picks up a kCommitDurable edge; this transaction's own
  /// successful force implies every such edge is satisfiable (the COMMIT
  /// records sit earlier in the same log). If the force FAILS (tail
  /// discard / flusher stop — the crash path), the commit record is lost
  /// while others may already have built on the released locks: the
  /// transaction is marked aborted in volatile state and every dependent
  /// cascade-aborts.
  Status Commit(TxnId txn);

  /// Aborts: rolls back every update the transaction is responsible for
  /// (scope sweep under RH, chain undo otherwise), writes CLRs, ABORT and
  /// END records, releases locks. Nothing cascades from here: the only
  /// edges this shard keeps are the kCommitDurable ones early lock release
  /// creates, and their target is already past its COMMIT append, which
  /// Abort refuses.
  Status Abort(TxnId txn);

  // --- Two-phase commit participant role (sharded engines only) ---

  /// Phase 1 vote: appends a csn-stamped PREPARE record and returns its
  /// LSN, moving the transaction to kPrepared. The vote is not durable yet:
  /// the caller must force the log past the LSN (the facade forces every
  /// participant's vote in one concurrent round) before the coordinator may
  /// decide commit. From here no further work is accepted (FindActive
  /// rejects kPrepared); the transaction's fate belongs to the coordinator
  /// and arrives via FinishCommit, or, when the round stops, via restart's
  /// in-doubt resolution (the facade poisons itself until then). Locks are
  /// retained — a prepared transaction's writes stay protected until the
  /// round resolves.
  Result<Lsn> Prepare(TxnId txn, uint64_t csn);

  /// Phase 2 commit of a prepared transaction: COMMIT + END records,
  /// release locks. Deliberately does NOT force the log — the round's
  /// commit point is the coordinator's durable COMMIT; a crash before these
  /// records flush is resolved in-doubt from the coordinator log.
  Status FinishCommit(TxnId txn);

  // --- Delegation (Section 3.5): guard, check, apply ---
  //
  // delegate(t1, t2, spec) is one operation in three calls, so that the
  // facade can check every shard a transfer touches before it applies the
  // transfer anywhere: a refusal on one shard then never strands a leg
  // applied on another. The shard-local transfer and each leg of a
  // cross-shard one run the same three calls; only the csn differs.

  /// Holds this shard's checkpoint fence (shared) plus both parties'
  /// latches from acquisition until destruction, so a transfer is atomic
  /// with respect to fuzzy checkpoints and to both parties' commit and
  /// abort on this shard. A checkpoint snapshot therefore lands entirely
  /// before the transfer (a cross-shard leg's csn-stamped record then
  /// re-applies or voids on restart's window re-scan) or entirely after it
  /// (for a cross-shard leg, once the coordinator COMMIT is durable).
  class DelegationGuard {
    friend class TxnManager;
    // Declared before the locks, so destroyed after them.
    std::shared_ptr<Transaction> tor_;
    std::shared_ptr<Transaction> tee_;
    std::shared_lock<std::shared_mutex> fence_;
    std::unique_lock<TxnLatch> first_, second_;  ///< ascending-TxnId order
  };

  /// Acquires `guard`, an empty one, in place (fence, then both latches in
  /// ascending-TxnId order per the documented lock order) and checks that
  /// both parties are active and neither is committing or aborting.
  /// NotSupported under DelegationMode::kDisabled. On an error the guard
  /// may hold part of its locks until the caller destroys it.
  Status GuardDelegation(TxnId from, TxnId to, DelegationGuard* guard);

  /// The paper's WELL-FORMED? step under the guard, for an object list or
  /// an operation range (an all-objects spec must arrive as its object
  /// list): the delegator is responsible for every listed object, or for
  /// some update in a well-formed range whose split leaves no Set
  /// (non-commuting) coverage on both sides. Ranges need kRH, and the
  /// rewriting baselines refuse to delegate across a partial rollback.
  /// Mutates nothing.
  Status CheckDelegation(const DelegationGuard& guard,
                         const DelegationSpec& spec) const;

  /// Applies a checked transfer under the guard: PREPARE and WRITE the
  /// DELEGATE (or DELEGATE_RANGE) record, stamped with `csn` (0 for a
  /// shard-local transfer) and heading both backward chains — under kEager
  /// the physical log rewrite instead — then TRANSFER RESPONSIBILITY: the
  /// scopes and the locks move. Returns the record's LSN (kInvalidLsn under
  /// kEager, which writes none). A cross-shard leg's caller must force the
  /// log past it before the coordinator reaches its commit point, else a
  /// committed csn could reference a lost shard record. A ranged transfer
  /// moves the lock only once nothing of the object remains the
  /// delegator's responsibility.
  Result<Lsn> ApplyDelegation(const DelegationGuard& guard,
                              const DelegationSpec& spec, uint64_t csn);

  /// Looks up a live transaction, or a terminated one no checkpoint has
  /// reaped yet (nullptr otherwise). The pointer stays valid until the
  /// transaction is reaped, so only single-threaded callers (tests, the
  /// shell) may keep it; concurrent observers use IsActive or
  /// SnapshotTransactions.
  const Transaction* Find(TxnId txn) const;

  /// Whether `txn` is active here. A reaped transaction reads as not active,
  /// exactly like any other terminated one.
  bool IsActive(TxnId txn) const;

  /// The objects currently in `txn`'s Ob_List (latched read; empty when the
  /// transaction does not exist on this shard). The sharded facade uses
  /// this to expand an all-objects delegation into per-shard object lists.
  std::vector<ObjectId> ObjectsOf(TxnId txn) const;

  /// The transaction currently responsible for `invoker`'s update to `ob`
  /// logged at `lsn` — i.e. ResponsibleTr(update[ob]) computed from scopes.
  /// NotFound if no live transaction's scopes cover it.
  Result<TxnId> ResponsibleTxn(TxnId invoker, ObjectId ob, Lsn lsn) const;

  /// Consistent copy of the transaction table, each control block copied
  /// under its latch — what log archiving iterates while workers keep
  /// running (checkpoints use CheckpointSnapshot). Holds the checkpoint
  /// fence exclusively for the whole copy, so every delegation (a two-party
  /// scope move) lands either entirely before or entirely after the
  /// snapshot — the snapshot can never observe a scope in neither party's
  /// Ob_List, or in one party but not yet out of the other's.
  std::map<TxnId, Transaction> SnapshotTransactions() const;

  /// Seeds the id counter (recovery hands back max-seen + 1) before the
  /// first BeginWithId; ids below `next` are from before the restart.
  void SetNextTxnId(TxnId next);
  TxnId next_txn_id() const {
    return next_txn_id_.load(std::memory_order_relaxed);
  }

  /// A checkpoint's transaction snapshot. Under one exclusive hold of the
  /// checkpoint fence and the table lock it
  ///   - copies every live transaction: prepared, or active with no COMMIT
  ///     record appended yet;
  ///   - drops (reaps) the control block of every terminated transaction
  ///     nothing needs any more.
  /// A committed or aborted transaction is reaped once all of these hold:
  ///   - it answers for no scope (its Ob_List is empty), so neither restart
  ///     nor ArchiveLog's retention bound can need it;
  ///   - its END record is durable (last_lsn <= `durable_lsn`), so its
  ///     commit or abort is too, and no ELR (early lock release) dependent
  ///     can still be waiting on its COMMIT record;
  ///   - no csn (coordinator sequence number) is in doubt for it
  ///     (prepared_csn is 0).
  /// A reaped id reads as "not active" everywhere (Find returns nullptr,
  /// IsActive false), and its outcome survives for dependencies: the ids of
  /// reaped aborted transactions are kept, every other reaped id reads as
  /// committed. A checkpoint so never copies the terminated history, and
  /// its cost follows the live set.
  std::map<TxnId, Transaction> CheckpointSnapshot(Lsn durable_lsn);

 private:
  bool TrackScopes() const {
    return options_.delegation_mode != DelegationMode::kDisabled;
  }
  Result<std::shared_ptr<Transaction>> FindActive(TxnId txn);
  Result<std::shared_ptr<Transaction>> FindPrepared(TxnId txn);
  /// The lock acquisition every data path uses. Under early_lock_release it
  /// collects the early-released holders the grant violated and registers a
  /// kCommitDurable edge for each; otherwise it is a plain Acquire.
  Status AcquireLock(TxnId txn, ObjectId ob, LockMode mode);
  /// The ELR crash path: the COMMIT record failed to become durable after
  /// the locks were already marked released. Marks the transaction aborted
  /// (volatile only — the log is in its crash state; recovery rebuilds),
  /// physically releases the locks, and cascade-aborts every dependent that
  /// acquired one. Returns `cause`.
  Status FailEarlyReleasedCommit(Transaction* tx, const Status& cause);
  Status DoUpdate(TxnId txn, ObjectId ob, UpdateKind kind, LockMode lock_mode,
                  int64_t value_or_delta);
  /// Preconditions shared by every table entry point: a heap is attached,
  /// the delegation mode supports logical records, the key is in bounds.
  Status CheckTableOp(const std::string& key) const;
  /// The object a table operation locks: the rid itself in record mode,
  /// the key's bucket chain in page mode.
  ObjectId TableLockIdOf(ObjectId rid) const {
    return options_.table_record_locking ? rid : table::PageLockIdOf(rid);
  }
  /// The write path shared by TablePut and TableDelete: lock, run the heap
  /// mutation (`fn` appends the log record), splice the chain, adjust
  /// scopes.
  Status DoTableWrite(
      TxnId txn, ObjectId rid,
      const std::function<Result<Lsn>(Transaction* tx,
                                      const std::optional<std::string>&,
                                      table::RecordMutation*)>& fn,
      const std::string& key);
  /// The one rollback: undoes every update `tx` is responsible for that
  /// was logged after `savepoint` (0 = the whole transaction), writing
  /// CLRs — by the scope sweep under kRH and kLazyRewrite, by chain undo
  /// otherwise — and advances the chain head. A partial rollback also
  /// clips the stored scopes to what is still live. Caller holds the latch.
  Status RollBack(Transaction* tx, Lsn savepoint);
  /// The tail every ending shares (Commit, FinishCommit, Abort and the ELR
  /// crash path): releases the locks and the dependency edges, counts the
  /// transaction as `outcome` and emits its trace event at `lsn`.
  void Terminate(TxnId txn, TxnState outcome, Lsn lsn);
  /// The state of `txn` read under the table lock, a reaped one's included
  /// (kAborted or kCommitted); nullopt for an id never handed out or from
  /// before a restart.
  std::optional<TxnState> StateOf(TxnId txn) const;

  const Options& options_;
  LogManager* log_;
  BufferPool* pool_;
  LockManager* locks_;
  Stats* stats_;
  table::TableHeap* heap_;
  obs::Histogram* commit_ns_ = nullptr;  ///< null when Stats is unattached
  obs::Histogram* table_scan_len_ = nullptr;
  /// Commit request -> durable ack (the user-visible commit latency, which
  /// under group commit includes the parked wait). Single-shard commits
  /// observe it here; 2PC commits observe it in the facade at the
  /// coordinator's force.
  obs::Histogram* commit_latency_ns_ = nullptr;

  /// The kCommitDurable edges AcquireLock records under early lock release;
  /// the user's form-dependency edges live in the facade. deps_mu_ guards
  /// the graph (which is not thread-safe). Leaf: never held across log,
  /// pool, or latch operations.
  mutable std::mutex deps_mu_;
  DependencyGraph deps_;

  /// The checkpoint fence: delegations hold it shared across their latched
  /// two-party transfer; the snapshots (and with them the reaper) hold it
  /// exclusive. Single-transaction operations do not take it — a
  /// snapshot that straddles one of those is reconciled record-by-record by
  /// recovery's window re-scan (each record's effect is visible iff the
  /// snapshot's last_lsn covers it); only the *two-party* transfer needs
  /// snapshot atomicity. Acquired before any transaction latch.
  mutable std::shared_mutex ckpt_fence_;

  /// Guards the table's *shape* (insert/erase/find). Field access within a
  /// found control block is governed by its own latch + the session
  /// contract, so readers hold this shared and briefly.
  mutable std::shared_mutex table_mu_;
  std::map<TxnId, std::shared_ptr<Transaction>> txns_;
  /// Ids of the aborted transactions CheckpointSnapshot reaped (guarded by
  /// table_mu_): a kCommitDurable edge on one must still doom its
  /// dependent. Aborts are a small share of transactions.
  std::unordered_set<TxnId> reaped_aborted_;
  /// Ids from first_txn_id_ up to next_txn_id_ are from this run: one not
  /// in the table and not reaped aborted reads as committed. Both are
  /// written under table_mu_; next_txn_id_ stays past every id begun here.
  TxnId first_txn_id_ = 1;
  std::atomic<TxnId> next_txn_id_{1};
};

}  // namespace ariesrh

#endif  // ARIESRH_TXN_TXN_MANAGER_H_
