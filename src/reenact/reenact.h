// Reenactment: read-only provenance, responsibility, and time-travel
// queries over the delegation log (docs/REENACTMENT.md).
//
// ARIES/RH never rewrites history — the log is an append-only, complete
// account of every update, delegation, compensation, and commit decision.
// This subsystem consumes that account as *data*: it opens a log archive
// (a Database::SaveTo image), a live database's retained log, or a
// standby's shipped logs, and answers four queries without disturbing the
// source:
//
//   * StateAt(L)        — the committed state as of cut LSN L: replay redo
//                         up to L (the same merged forward pass restart
//                         runs, stopped at the cut), resolve in-doubt
//                         transactions against the coordinator's verdicts,
//                         then roll back every transaction uncommitted at L
//                         — in scratch components, logging nothing.
//   * ResponsibleFor    — which transaction answers for an object's value
//                         at a cut, after DELEGATE scope transfers, CLR
//                         voiding, and 2PC verdicts fold in (whodunit).
//   * ReplayTxn         — one transaction's effects reenacted in isolation
//                         against StateAt of its begin point (its footprint
//                         diff).
//   * TransferChain     — an object's responsibility-transfer chain:
//                         delegation hops, csn-stamped cross-shard legs,
//                         voided legs.
//
// Cut semantics in a sharded engine: each shard numbers its own LSNs, so a
// single "cut" is applied per shard as min(cut, that shard's durable tail).
// Tests that need one coherent global instant quiesce the workload first
// (exactly what a crash point is).

#ifndef ARIESRH_REENACT_REENACT_H_
#define ARIESRH_REENACT_REENACT_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coord/coordinator_log.h"
#include "core/options.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/analysis.h"
#include "recovery/checkpoint.h"
#include "reenact/fold_table.h"
#include "reenact/ownership.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {
class Database;
}

namespace ariesrh::reenact {

/// A reconstructed committed state. Deterministic: two images of the same
/// history compare byte-identical through Serialize(), which is how the
/// oracle tests pin StateAt(tail) against real restart recovery.
struct StateImage {
  /// Plain object cells with a non-zero value (a zero cell is
  /// indistinguishable from a never-written one — fresh pages read 0 — so
  /// zeros are canonically absent on both sides of any comparison).
  std::map<ObjectId, int64_t> objects;
  /// Table records present at the cut.
  std::map<std::string, std::string> records;
  /// Effective per-shard cut LSNs (informational; not serialized).
  std::vector<Lsn> cuts;

  /// 0 when absent (matching a fresh cell).
  int64_t ValueOf(ObjectId ob) const;
  std::optional<std::string> RecordOf(const std::string& key) const;

  /// Deterministic byte rendering of objects + records (cuts excluded, so
  /// images are comparable across replay strategies).
  std::string Serialize() const;
  std::string ToString() const;

  bool operator==(const StateImage& other) const {
    return objects == other.objects && records == other.records;
  }
};

/// The answer to "who is responsible for this object's value at the cut?".
struct ResponsibilityAnswer {
  ObjectId object = kInvalidObject;
  std::string key;  ///< set when the query was by table key
  size_t shard = 0;
  Lsn cut = 0;  ///< effective (clamped) cut on that shard
  /// The last write to the object at or before the cut that no CLR had
  /// compensated by the cut; kInvalidLsn when no retained write exists.
  Lsn value_lsn = kInvalidLsn;
  /// The invoking transaction recorded in that record (under RH this never
  /// changes — it is what the buggy pre-fix log_dump reported).
  TxnId writer = kInvalidTxn;
  /// The transaction actually responsible after delegation resolution.
  TxnId responsible = kInvalidTxn;
  bool responsible_committed = false;
  bool responsible_terminated = false;
  /// Responsibility landed somewhere other than the writer — at least one
  /// delegation hop carried it there.
  bool delegated = false;
  /// Delegation hops mentioning the object (plus, for csn-stamped hops,
  /// the same round's legs on other shards), in fold order.
  std::vector<TransferHop> chain;
  /// Matching events still in the live engine's trace ring buffer (live
  /// opens only): the online complement citing the same history.
  std::vector<std::string> trace_citations;

  std::string ToString() const;
};

/// One transaction reenacted in isolation: its footprint's before images
/// (the committed state at its begin point) and after images (that state
/// plus only this transaction's records, CLRs included).
struct ReplayResult {
  TxnId txn = kInvalidTxn;
  /// Shards the transaction left records on, with its first LSN there.
  std::map<size_t, Lsn> begin_lsns;
  uint64_t records_applied = 0;
  /// Plain-object footprint: object -> (before, after).
  std::map<ObjectId, std::pair<int64_t, int64_t>> objects;
  /// Table footprint: key -> (before, after); nullopt = absent.
  std::map<std::string,
           std::pair<std::optional<std::string>, std::optional<std::string>>>
      records;

  std::string ToString() const;
};

/// The read-only reenactment engine. Open against exactly one source:
///
///   * OpenArchive — a Database::SaveTo image (plus its ".coord" sidecar);
///     owns everything it loads, usable with no live engine at all.
///   * OpenLive — a live database's retained log. Borrows the engine's log
///     managers (reads are thread-safe); answers reflect the durable log as
///     of each query. The engine must not need recovery. If the engine has
///     archived its log prefix, open/queries should be quiesced — the base
///     page snapshot is taken without a latch.
///   * OpenQuiescentDisks — borrowed quiescent disks holding shipped logs
///     (the standby path; see StandbyReplica::Reenact). The reenactor must
///     not outlive the disks and must not run concurrently with shipping.
///
/// Only kRH and kDisabled logs are supported: the rewriting baselines edit
/// records in place, so their logs are not a faithful history to reenact.
class Reenactor {
 public:
  static Result<Reenactor> OpenArchive(const Options& options,
                                       const std::string& path);
  static Result<Reenactor> OpenLive(Database* db);
  static Result<Reenactor> OpenQuiescentDisks(
      const Options& options, const std::vector<SimulatedDisk*>& disks,
      coord::Resolution resolution);

  Reenactor(Reenactor&&) = default;
  Reenactor& operator=(Reenactor&&) = default;

  size_t num_shards() const { return shards_.size(); }
  size_t ShardOf(ObjectId ob) const {
    return ShardIndexOf(ob, shards_.size());
  }
  /// Durable tail at open — the highest admissible cut on that shard.
  Lsn tail_lsn(size_t shard) const;
  /// Earliest replayable cut on that shard. 0 when the full log is
  /// retained (any cut from the dawn of history replays exactly); when the
  /// log prefix is archived, replay anchors at the master checkpoint's
  /// page image, so cuts below max(CKPT_END, newest base page LSN) cannot
  /// be reconstructed — StateAt then fails loudly with kOutOfRange instead
  /// of returning silently truncated history.
  Lsn earliest_lsn(size_t shard) const;

  /// Committed state at the cut (kInvalidLsn = each shard's durable tail).
  Result<StateImage> StateAt(Lsn cut = kInvalidLsn);

  /// Whodunit for a plain object / a table key.
  Result<ResponsibilityAnswer> ResponsibleFor(ObjectId ob,
                                              Lsn cut = kInvalidLsn);
  Result<ResponsibilityAnswer> ResponsibleForKey(const std::string& key,
                                                 Lsn cut = kInvalidLsn);

  /// Reenacts one transaction in isolation: base = StateAt(its begin
  /// point), then only its own records (CLRs included) up to `cut`.
  Result<ReplayResult> ReplayTxn(TxnId txn, Lsn cut = kInvalidLsn);

  /// Responsibility-transfer chain for an object / a table key, to the
  /// tail: hops mentioning it, plus the other-shard legs of any csn-stamped
  /// round it took part in.
  Result<std::vector<TransferHop>> TransferChain(ObjectId ob);
  Result<std::vector<TransferHop>> TransferChainKey(const std::string& key);

 private:
  /// One shard's log source. Member order is destruction order in reverse:
  /// `stats` backs the owned disk/log, so it must outlive them.
  struct ShardSource {
    std::unique_ptr<Stats> stats;          ///< owned components' counters
    std::unique_ptr<SimulatedDisk> disk;   ///< archive opens own the disk
    std::unique_ptr<LogManager> log_owner; /// archive/quiescent opens
    LogManager* log = nullptr;             ///< records are read from here
    SimulatedDisk* disk_view = nullptr;    ///< metadata + base pages
    Lsn tail = 0;
    Lsn first_retained = kFirstLsn;
    /// Log prefix archived: replay anchors at the master checkpoint over a
    /// snapshot of the stable pages instead of an empty state.
    bool anchored = false;
    CheckpointData ckpt;
    Lsn ckpt_end_lsn = 0;
    PageImages base_pages;  ///< shared with the disk, never copied
    Lsn earliest = 0;  ///< earliest replayable cut (0 = any)
  };

  /// The product of replaying one shard to a cut: the ownership index and
  /// (for state-bearing folds only) scratch components holding the replayed
  /// plain pages and the table's key overlay over the shard's base images.
  /// Member order: stats outlives disk/pool.
  struct ShardFold {
    Lsn cut = 0;
    OwnershipIndex ownership;
    ForwardPassResult fwd;
    std::unique_ptr<Stats> stats;
    std::unique_ptr<SimulatedDisk> disk;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<FoldTable> table;
    /// Writes to the tracked object/key, oldest first (lsn, txn, type).
    std::vector<std::tuple<Lsn, TxnId, LogRecordType>> tracked;
  };

  explicit Reenactor(Options options) : options_(std::move(options)) {}

  static Status CheckMode(const Options& options);
  /// Derives tail / retention / checkpoint anchor / base pages / earliest.
  static Status InitShardSource(const Options& options, ShardSource* src);

  /// Clamps kInvalidLsn (and beyond-tail cuts) to the shard tail; fails
  /// with kOutOfRange below the earliest replayable cut.
  Status ClampCut(size_t shard, Lsn* cut) const;

  /// Replays shard `shard` up to `cut`; analysis only (no scratch
  /// component at all) unless `materialize`. A materializing fold is a
  /// restart at the cut in scratch components: the merged forward pass,
  /// then every transaction uncommitted at the cut rolled back by restart's
  /// own undo executor through a sink that logs nothing (the source log is
  /// read-only here by design). Plain pages replay into a scratch pool over
  /// the base pages; table records into a FoldTable over the base heap
  /// images. `track_ob` / `track_key` (optional) collect that object's /
  /// key's write history into ShardFold::tracked.
  Result<ShardFold> FoldShard(size_t shard, Lsn cut, bool materialize,
                              ObjectId track_ob = kInvalidObject,
                              const std::string* track_key = nullptr);

  Result<ResponsibilityAnswer> ResolveResponsibility(ObjectId ob,
                                                     const std::string* key,
                                                     Lsn cut);
  Result<std::vector<TransferHop>> ChainFor(ObjectId ob);
  /// Other-shard legs of every csn-stamped round in `home_hops` (a
  /// cross-shard delegation is one round with one leg per shard).
  Result<std::vector<TransferHop>> PeerLegs(
      size_t home_shard, const std::vector<TransferHop>& home_hops);

  void ObserveQuery(uint64_t start_ns) const;

  Options options_;
  std::vector<std::unique_ptr<ShardSource>> shards_;
  coord::Resolution resolution_;
  obs::MetricsRegistry* registry_ = nullptr;  ///< live opens only
  obs::EventTrace* trace_ = nullptr;          ///< live opens only
};

/// Captures a live database's committed state through the same extraction
/// StateAt uses (non-zero cells and table records, read in memory; nothing
/// is written back, so the engine's stable pages do not move).
/// The oracle tests compare this against StateAt(tail) byte-for-byte. The
/// database must be quiescent and fully recovered.
Result<StateImage> CaptureCommittedState(Database* db);

}  // namespace ariesrh::reenact

#endif  // ARIESRH_REENACT_REENACT_H_
