// Database: the public facade over the whole engine.
//
// A Database is N EngineShards behind one API (Options::num_shards); N = 1
// is the classic single engine. Every transactional call takes the same
// routed path at every N:
//
//   * routing: objects hash to shards (ShardOf); the facade hands out
//     transaction ids and keeps a TxnRoute per transaction — the shards it
//     enlisted on and its outcome. A transaction enlists on a shard the
//     first time it touches it; with one shard Begin enlists at once, so
//     the N = 1 log (BEGIN at Begin, facade ids equal to shard ids) is the
//     unsharded engine's, byte for byte,
//   * one dependency graph: form-dependency edges live here (they may span
//     shards); the shards keep only the early-lock-release edges their lock
//     managers generate,
//   * a coordinator log (coord::CoordinatorLog, N > 1 only): cross-shard
//     rounds — the two-phase commit of a multi-shard transaction, and the
//     atomic transfer of a cross-shard delegation — are decided by one
//     forced coordinator COMMIT record (presumed abort),
//   * coordinated restart: every shard recovers in parallel, consulting the
//     coordinator's durable verdicts for in-doubt transactions and
//     cross-shard delegation legs.
//
// See docs/SHARDING.md for the protocols and their failure analysis.
//
//   Database db(options);
//   TxnId t1 = *db.Begin(), t2 = *db.Begin();
//   db.Set(t1, obj, 42);
//   db.Delegate(t1, t2, DelegationSpec::Objects({obj}));
//   db.Abort(t1);                 // does not disturb the delegated update
//   db.Commit(t2);                // makes it durable
//   db.SimulateCrash();
//   db.StartRecovery().value()->Await();  // ARIES/RH restart (per shard)
//   db.ReadCommitted(obj);        // == 42
//
// Restart is governed by Options::recovery_mode: kFull blocks until every
// pass completes; kInstant opens after analysis and runs redo on demand
// plus background undo (docs/INSTANT_RESTART.md). Every restart surface —
// Database::Open / OpenFromBackup / StartRecovery — returns a
// RecoveryHandle for progress and Await().

#ifndef ARIESRH_CORE_DATABASE_H_
#define ARIESRH_CORE_DATABASE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coord/coordinator_log.h"
#include "core/engine_shard.h"
#include "core/options.h"
#include "obs/observability.h"
#include "recovery/ondemand.h"
#include "recovery/recovery_manager.h"
#include "reenact/reenact.h"
#include "txn/delegation_spec.h"
#include "txn/dependency_graph.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/test_hook.h"
#include "util/types.h"

namespace ariesrh {

class Database {
 public:
  explicit Database(Options options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- transactional API (see TxnManager for semantics) ---
  Result<TxnId> Begin();
  Result<int64_t> Read(TxnId txn, ObjectId ob);
  Status Set(TxnId txn, ObjectId ob, int64_t value);
  Status Add(TxnId txn, ObjectId ob, int64_t delta);

  // --- typed key-value table layer (docs/TABLE.md) ---
  //
  // Records route to shards by their rid (the key's stable hash), so a
  // table transaction enlists on exactly the shards its keys live on —
  // cross-shard commits and delegation work unchanged, keyed by rid.

  /// Reads a record (shared lock; exclusive when `for_update`). nullopt =
  /// no such key.
  Result<std::optional<std::string>> TableGet(TxnId txn,
                                              const std::string& key,
                                              bool for_update = false);

  /// Inserts or overwrites a record.
  Status TablePut(TxnId txn, const std::string& key, const std::string& value);

  /// Deletes a record; NotFound if the key does not exist.
  Status TableDelete(TxnId txn, const std::string& key);

  /// Ordered scan: up to `limit` (0 = unbounded) pairs with key >=
  /// start_key, in key order. Sharded engines fan out to every shard and
  /// merge.
  Result<std::vector<std::pair<std::string, std::string>>> TableScan(
      TxnId txn, const std::string& start_key, size_t limit);

  /// Read-modify-write: reads the record under an exclusive lock (held from
  /// the start, so the idiom never deadlocks on an upgrade) and overwrites
  /// it with `mutate`'s result.
  Status TableReadModifyWrite(
      TxnId txn, const std::string& key,
      const std::function<std::string(const std::optional<std::string>&)>&
          mutate);

  /// Reads a record's current value outside any transaction (test/bench
  /// oracle access; no locks taken). nullopt = no such key.
  Result<std::optional<std::string>> TableGetCommitted(const std::string& key);

  /// The delegation entry point: transfers responsibility from `from` to
  /// `to` per the spec (DelegationSpec::All / Objects / Operations). Every
  /// shard the transfer touches is guarded and checked (TxnManager's
  /// GuardDelegation and CheckDelegation) before any applies it. A
  /// transfer touching one shard then writes one plain DELEGATE record; one
  /// spanning shards runs the coordinator-decided cross-shard protocol
  /// (docs/SHARDING.md) so the shards' csn-stamped DELEGATE legs take
  /// effect all-or-nothing. NotSupported under DelegationMode::kDisabled.
  Status Delegate(TxnId from, TxnId to, const DelegationSpec& spec);

  Status Permit(TxnId owner, TxnId grantee, ObjectId ob);
  Status FormDependency(DependencyType type, TxnId dependent, TxnId on);

  /// Savepoints stay shard-local: supported while the transaction has
  /// touched at most one shard.
  Result<Lsn> Savepoint(TxnId txn);
  Status RollbackTo(TxnId txn, Lsn savepoint);

  /// Commits. A transaction that touched one shard commits with that
  /// shard's ordinary commit; a multi-shard transaction runs two-phase
  /// commit: every shard force-logs a csn-stamped PREPARE, the coordinator
  /// forces its COMMIT (the commit point), then the shards write their
  /// COMMIT/END records lazily — a crash in between is resolved in-doubt
  /// from the coordinator log at restart.
  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  /// True while `txn` is known to the engine and still active (neither
  /// committed nor aborted). Answered from the facade's routes, which track
  /// the transaction even before it touches any shard — shard-local Find()
  /// would miss a transaction enlisted elsewhere.
  bool IsActive(TxnId txn);

  /// Forces every shard's log (and the coordinator log) to stable storage.
  /// Under group commit (Options::force_commits = false) this is the
  /// durability point for all previously acknowledged commits.
  Status Sync();

  /// Takes a fuzzy checkpoint on every shard: CKPT_BEGIN, a fenced table
  /// snapshot carried (with its CKPT_BEGIN LSN) in CKPT_END's payload, a
  /// log force, and the master-record update. Safe concurrently with
  /// running workers — the records they append inside the BEGIN..END window
  /// are reconciled by recovery's window re-scan — and serialized against
  /// other checkpoint / archive admin operations (e.g. the background
  /// daemons').
  Status Checkpoint();

  /// Persists the stable state (pages + durable log + master record) to a
  /// file. Exactly what a crash would preserve — the volatile tail and
  /// dirty pages are *not* included, by design; call FlushAll/Checkpoint
  /// first to tighten the image. A sharded engine writes one file per shard
  /// (`path` for shard 0, `path + ".shard<i>"` for the rest) plus the
  /// coordinator's durable decisions at `path + ".coord"`. Reopen with
  /// Database::Open.
  Status SaveTo(const std::string& path);

  /// What every open surface returns: the live database plus the
  /// RecoveryHandle describing its restart. Under RecoveryMode::kFull (and
  /// fresh opens) the handle is already done; under kInstant it tracks the
  /// background passes — Await() blocks until the database has fully caught
  /// up.
  struct OpenResult {
    std::unique_ptr<Database> db;
    std::shared_ptr<RecoveryHandle> recovery;
  };

  /// Opens a fresh (empty) database. Nothing to recover: the handle is
  /// terminal with a default Outcome.
  static Result<OpenResult> Open(Options options);

  /// The on-disk naming convention SaveTo/Open use for a sharded image:
  /// shard 0 keeps the caller's path (so single-shard images stay
  /// compatible both ways), the rest get a ".shard<i>" suffix. The
  /// coordinator sidecar lives at `path + ".coord"`. Shared with every
  /// other consumer of saved images (e.g. reenactment archive opens).
  static std::string ShardImagePath(const std::string& path, size_t shard);

  /// Opens a database persisted with SaveTo and performs restart per
  /// Options::recovery_mode (StartRecovery). Sharded engines load every
  /// shard's image
  /// (and the coordinator file) and restart all shards in parallel; the
  /// returned database is live the moment this returns.
  static Result<OpenResult> Open(Options options, const std::string& path);

  /// A media-recovery backup (see EngineShard::BackupImage).
  using BackupImage = EngineShard::BackupImage;

  /// Takes a backup: flushes all dirty pages, checkpoints, and snapshots
  /// the stable pages. Restoring it plus replaying the log from its
  /// checkpoint reproduces the current state (ARIES media recovery).
  /// Single-shard engines only.
  Result<BackupImage> Backup();

  /// Models a media failure: every shard's stable pages are destroyed (the
  /// logs, stored separately, survive) and all volatile state is lost.
  /// RestoreFromBackup + StartRecovery() bring a single-shard database
  /// back.
  void SimulateMediaFailure();

  /// Installs a backup's pages and master record after a media failure.
  /// Fails if the log needed to roll the backup forward has been archived.
  /// Call StartRecovery() afterwards to replay the log suffix. Single-shard
  /// engines only.
  Status RestoreFromBackup(const BackupImage& backup);

  /// Builds a fresh database from a backup image — the restore/open entry
  /// point unifying the RestoreFromBackup+StartRecovery sequence: installs the
  /// backup's pages and its checkpoint's log window, then performs restart
  /// per Options::recovery_mode. Single-shard engines only (as Backup is).
  static Result<OpenResult> OpenFromBackup(Options options,
                                           const BackupImage& backup);

  /// Archives the no-longer-needed log prefix on every shard (see
  /// EngineShard::ArchiveLog for the retention bound). Returns the total
  /// number of records archived across shards. `retain_from` pins every
  /// record at or after it on every shard — e.g. a standby's
  /// StandbyReplica::RetentionPin().
  Result<uint64_t> ArchiveLog(Lsn retain_from = kInvalidLsn);

  // --- crash / recovery harness ---

  /// Models a failure: every shard's volatile structures and the
  /// coordinator log's unforced tail are discarded; only stable storage
  /// survives. StartRecovery() must run before the transactional API is
  /// used again.
  void SimulateCrash();

  /// Restart recovery: every shard runs EngineShard::Restart per
  /// Options::recovery_mode, in parallel, against the coordinator log's
  /// durable verdicts. Under kFull every pass runs before this returns (the
  /// handle is done); under kInstant the database is usable the moment this
  /// returns — analysis has run, on-demand redo and the recovery gates are
  /// armed, and loser undo drains in the background. handle->Await() blocks
  /// until fully caught up and returns the merged Outcome. If any shard's
  /// restart fails, every shard is crashed again; if an instant restart's
  /// background pass fails, the next call crashes them. Either way the
  /// database NeedsRecovery() and a plain StartRecovery() retries.
  Result<std::shared_ptr<RecoveryHandle>> StartRecovery();

  /// True between SimulateCrash() and a successful StartRecovery() — and,
  /// under kInstant, after a background restart pass failed (the facade is
  /// then poisoned). Exactly when StartRecovery() applies.
  bool NeedsRecovery() const {
    return crashed_ ||
           (active_recovery_ != nullptr && active_recovery_->failed());
  }

  // --- inspection ---

  /// Reads an object's current value outside any transaction (test/bench
  /// oracle access; no locks taken).
  Result<int64_t> ReadCommitted(ObjectId ob);

  // --- reenactment: provenance and time-travel over the retained log ---
  //
  // Read-only diagnostic queries answered by reenact::Reenactor over the
  // live engine's durable log (docs/REENACTMENT.md; shell builtins `asof`,
  // `whodunit`, `replay`, `chain`). Each call opens a fresh reenactor, so
  // answers reflect the durable log at that moment. Only the kRH and
  // kDisabled delegation modes are supported (NotSupported otherwise), and
  // cuts below the earliest replayable LSN fail with kOutOfRange.

  /// The committed state as of cut LSN `cut` (kInvalidLsn = each shard's
  /// durable tail).
  Result<reenact::StateImage> ReenactStateAt(Lsn cut = kInvalidLsn);

  /// Which transaction answers for the object's / key's value at the cut,
  /// after delegation, CLR voiding, and coordinator verdicts fold in.
  Result<reenact::ResponsibilityAnswer> ReenactWhodunit(
      ObjectId ob, Lsn cut = kInvalidLsn);
  Result<reenact::ResponsibilityAnswer> ReenactWhodunitKey(
      const std::string& key, Lsn cut = kInvalidLsn);

  /// One transaction's effects reenacted in isolation against the committed
  /// state at its begin point.
  Result<reenact::ReplayResult> ReenactReplayTxn(TxnId txn,
                                                 Lsn cut = kInvalidLsn);

  /// The object's / key's responsibility-transfer chain (delegation hops,
  /// csn-stamped cross-shard legs, voided legs).
  Result<std::vector<reenact::TransferHop>> ReenactTransferChain(ObjectId ob);
  Result<std::vector<reenact::TransferHop>> ReenactTransferChainKey(
      const std::string& key);

  /// Engine-wide counters, a value snapshot: each field sums its family's
  /// series, the shards' and the facade's own (docs/OBSERVABILITY.md).
  Stats stats() const { return Stats::Totals(obs_.registry); }
  Stats* mutable_stats() { return &stats_; }

  /// The engine's observability bundle, shared by every shard. Both survive
  /// SimulateCrash() — restart metrics accumulate into the same registry,
  /// and the trace shows the crash/recovery boundary events in sequence.
  obs::Observability* observability() { return &obs_; }
  obs::MetricsRegistry* metrics() { return &obs_.registry; }
  obs::EventTrace* trace() { return &obs_.trace; }

  const Options& options() const { return options_; }

  // --- sharding ---

  size_t num_shards() const { return shards_.size(); }

  /// The shard an object routes to (stable hash of the id).
  size_t ShardOf(ObjectId ob) const;

  /// Direct access to one shard's engine and its components (tests,
  /// benchmarks, replication, inspection tools).
  EngineShard* shard(size_t index) { return shards_[index].get(); }

  /// The cross-shard decision log; nullptr for a 1-shard engine.
  coord::CoordinatorLog* coordinator_log() { return coord_.get(); }

  // --- test hook ---

  /// Installs the test hook (nullptr removes it). It runs at each named
  /// point below with the point's name; a returned error stops the
  /// operation there, modelling a crash at that point. Names ending in
  /// <shard> or <bucket> carry that index. Every shard keeps a copy, so the
  /// hook survives SimulateCrash. Install it while no cross-shard protocol
  /// runs and no restart is starting; a restart keeps the hook it started
  /// with.
  ///
  /// Cross-shard protocols (never at one shard): "2pc:before-prepare:<shard>",
  /// "2pc:votes-appended", "2pc:before-decision", "2pc:after-decision",
  /// "2pc:before-finish:<shard>", "xdel:before-coord-prepare",
  /// "xdel:before-apply:<shard>", "xdel:legs-appended",
  /// "xdel:before-decision", "xdel:after-decision". A stop after the first
  /// mutation leaves the volatile state half-applied, so the facade poisons
  /// itself: every later call fails until SimulateCrash()+StartRecovery().
  ///
  /// Checkpoints: "checkpoint:after-begin:<shard>" after the CKPT_BEGIN
  /// append; during a write-back (a checkpoint with a predecessor)
  /// "checkpoint:after-bucket:<bucket>:<shard>" after each heap bucket
  /// chain's turn; "checkpoint:after-snapshot:<shard>" before the CKPT_END
  /// append. A stop leaves no CKPT_END.
  ///
  /// Restart: "recovery:redo:<shard>" before each redo application, inline
  /// in the merged sweep or on a redo worker (on-demand redo fires none),
  /// and "recovery:undo:<shard>" before each restart compensation, where a
  /// stop first makes the CLRs written so far durable. Hooks run on redo
  /// workers and restart threads, so they must be thread-safe.
  void set_test_hook(TestHook hook);

  /// True after a cross-shard protocol stopped mid-flight (test hook or
  /// component failure), cleared by SimulateCrash()+StartRecovery() — or
  /// after an instant restart's background pass failed, which leaves shards
  /// half-recovered the same way, cleared by StartRecovery().
  bool poisoned() const {
    return poisoned_ ||
           (active_recovery_ != nullptr && active_recovery_->failed());
  }

  /// The most recent restart's handle (progress, Await); nullptr before the
  /// first StartRecovery()/Open.
  std::shared_ptr<RecoveryHandle> recovery_handle() const {
    return active_recovery_;
  }

 private:
  /// Per-transaction routing state: which shards the transaction enlisted
  /// on, and its facade-level outcome. Commit erases the route; an aborted
  /// one stays until the next restart, so abort and strong-commit
  /// dependencies formed later still see the abort.
  struct TxnRoute {
    /// Serializes this transaction's facade operations — in particular a
    /// cross-shard protocol against a concurrent commit/abort of the same
    /// transaction from another session.
    std::mutex mu;
    /// Bit s is set once the transaction enlisted on shard s. A mask, not
    /// a set: enlisting is on every transaction's path and must not
    /// allocate.
    uint64_t shards = 0;
    std::atomic<TxnState> outcome{TxnState::kActive};

    bool EnlistedOn(size_t s) const { return (shards >> s) & 1; }
    size_t ShardCount() const { return std::popcount(shards); }
    /// The enlisted shards in ascending order.
    std::vector<size_t> Shards() const {
      std::vector<size_t> out;
      for (uint64_t m = shards; m != 0; m &= m - 1) {
        out.push_back(std::countr_zero(m));
      }
      return out;
    }
  };
  static_assert(kMaxShards <= 64, "TxnRoute::shards is a 64-bit mask");

  /// The route map, striped by TxnId so that concurrent sessions' lookups
  /// (shared) and begins and commits (exclusive) spread over 64 locks, each
  /// stripe on cache lines of its own.
  static constexpr size_t kRouteStripes = 64;
  struct alignas(64) RouteStripe {
    mutable std::shared_mutex mu;
    std::unordered_map<TxnId, std::shared_ptr<TxnRoute>> routes;
  };
  RouteStripe& StripeOf(TxnId txn) { return routes_[txn % kRouteStripes]; }
  const RouteStripe& StripeOf(TxnId txn) const {
    return routes_[txn % kRouteStripes];
  }

  Status EnsureUsable() const;
  /// The route of `txn`; nullptr when it has none.
  std::shared_ptr<TxnRoute> LookupRoute(TxnId txn) const;
  /// The route of `txn`. Without one, an id handed out since the last
  /// restart is a committed (forgotten) transaction — IllegalState, as for
  /// any terminated one — and any other id is NotFound.
  Result<std::shared_ptr<TxnRoute>> FindRoute(TxnId txn) const;
  /// The facade-level state of `txn`, a forgotten committed one's included;
  /// nullopt for an id from before the last restart or never handed out.
  /// Mirrors TxnManager::StateOf.
  std::optional<TxnState> RouteOutcomeOf(TxnId txn) const;
  /// Whether the facade handed out `txn` since the last restart.
  bool HandedOut(TxnId txn) const {
    return txn >= first_txn_id_ &&
           txn < next_txn_id_.load(std::memory_order_relaxed);
  }
  static Status CheckRouteActive(const TxnRoute& route, TxnId txn);
  /// The routing prologue of every single-object call (Read, Set, Add and
  /// the keyed table calls): usable, route, active, enlist on `ob`'s shard,
  /// the instant-restart gate — then `op` on that shard's TxnManager.
  template <typename Op>
  std::invoke_result_t<Op&, TxnManager*> Routed(TxnId txn, ObjectId ob,
                                                Op op);
  /// Starts `txn` on `shard` (BeginWithId) if not already enlisted there.
  /// Caller holds route->mu.
  Status EnlistLocked(TxnRoute* route, TxnId txn, size_t shard);
  /// `txn` just aborted: forgets its dependency edges and aborts its abort
  /// and strong-commit dependents. Caller holds no route mutex.
  Status CascadeAbort(TxnId txn);
  /// Marks the facade poisoned when `status` is an error; returns it.
  Status PoisonOnError(Status status);
  /// Makes each (shard, lsn) leg durable in one round: requests a force on
  /// every listed shard log before awaiting any (LogManager::RequestFlush /
  /// AwaitFlush). The cross-shard protocols' vote and leg forces.
  Status ForceShardLogs(const std::vector<std::pair<size_t, Lsn>>& legs);
  /// Two-phase commit across `parts`. Caller holds the route mutex.
  Status TwoPhaseCommit(TxnId txn, const std::vector<size_t>& parts);
  /// Feeds the time-to-first-commit histogram once per restart (the instant
  /// restart figure of merit): the first successful Commit after a
  /// StartRecovery observes now - restart begin.
  void ObserveFirstCommit();

  Options options_;
  /// Options::Validate() verdict from construction. When not OK, every
  /// operation (including StartRecovery) returns it — the database is
  /// inert.
  Status init_status_ = Status::OK();
  obs::Observability obs_;  // declared before stats_: bound during its life
  Stats stats_;  // the unlabelled series: work no shard does (scheduler)
  std::vector<std::unique_ptr<EngineShard>> shards_;
  std::unique_ptr<coord::CoordinatorLog> coord_;  // num_shards > 1 only
  bool crashed_ = false;
  bool poisoned_ = false;

  /// The current restart's handle; failure there poisons the facade
  /// (NeedsRecovery/poisoned). Cleared by SimulateCrash.
  std::shared_ptr<RecoveryHandle> active_recovery_;
  /// Time-to-first-commit instrumentation: armed by StartRecovery, consumed
  /// by the first successful Commit.
  std::atomic<bool> ttfc_armed_{false};
  std::atomic<uint64_t> restart_epoch_ns_{0};

  /// Transaction id allocation: every id in [first_txn_id_, next_txn_id_)
  /// was handed out since the last restart. first_txn_id_ changes only
  /// while the database is crashed.
  TxnId first_txn_id_ = 1;
  std::atomic<TxnId> next_txn_id_{1};
  std::array<RouteStripe, kRouteStripes> routes_;

  /// The dependency graph: dependencies may span shards, so they live
  /// here, not in any one shard's TxnManager.
  mutable std::mutex deps_mu_;
  DependencyGraph deps_;

  TestHook test_hook_;

  /// The cross-shard commit's histograms, resolved once; nullptr at one
  /// shard, which never runs the protocol.
  obs::Histogram* twopc_prepare_ns_ = nullptr;
  obs::Histogram* twopc_coord_force_ns_ = nullptr;
  obs::Histogram* twopc_finish_ns_ = nullptr;
  obs::Histogram* commit_latency_ns_ = nullptr;
};

}  // namespace ariesrh

#endif  // ARIESRH_CORE_DATABASE_H_
