// Object-granularity lock manager.
//
// Three modes: shared (read), exclusive (Set), and increment (Add).
// Increment locks are mutually compatible — the case the paper highlights
// where several transactions update one object concurrently with commuting
// operations, and therefore the case scopes exist for.
//
// Delegation interacts with locking in two ways, both implemented here:
//   * Transfer: delegate(t1, t2, ob) moves t1's lock on ob to t2, so the
//     delegatee gains the visibility the paper describes.
//   * Permit: the ASSET `permit` primitive lets a grantee access an object
//     despite the owner's lock, without forming a dependency.
//
// Early lock release (docs/GROUP_COMMIT.md): a committing transaction calls
// MarkEarlyReleased the moment its COMMIT record is appended — before the
// group-commit force. Marked holders stop blocking ELR-aware acquirers;
// instead each acquirer that would have conflicted receives a
// CommitDependency naming the releaser and its COMMIT record's LSN, which
// the transaction manager turns into a commit-ordering edge in the ASSET
// dependency graph. The marked entries physically disappear in the ordinary
// ReleaseAll once the commit completes (or aborts on the crash path).
//
// Acquisition policy is no-wait: a conflicting request returns kBusy and the
// caller decides (retry, abort, restructure), so no transaction ever waits
// for another and there is no deadlock to detect.
//
// Thread safety: every operation is safe under concurrent callers. State is
// partitioned into shards by object id; a shard bundles its slice of the
// lock table WITH its own per-transaction held-object index, so any
// object-keyed operation (Acquire, Release, Transfer, Permit, Holds) locks
// exactly one shard mutex, and the whole-transaction sweeps (ReleaseAll,
// MarkEarlyReleased, HeldLocks, Reset) visit shards one at a time. No two
// shard mutexes are ever held together, so there is no lock-ordering concern
// and shard mutexes are leaves under every engine lock.
//
// Each shard's lock table and held-object index are std::unordered_maps;
// holder and permit lists are std::vectors scanned linearly (one or two
// holders is the overwhelmingly common case).

#ifndef ARIESRH_LOCK_LOCK_MANAGER_H_
#define ARIESRH_LOCK_LOCK_MANAGER_H_

#include <array>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"

namespace ariesrh {

enum class LockMode : uint8_t {
  kShared = 0,
  kIncrement = 1,
  kExclusive = 2,
};

const char* LockModeName(LockMode mode);

/// True when two holders in the given modes may coexist on one object.
bool LockModesCompatible(LockMode a, LockMode b);

/// Thread-safe (sharded by object; see the file comment).
class LockManager {
 public:
  /// An early-released lock an acquirer violated: the acquirer may not
  /// report commit until `on`'s COMMIT record (at `commit_lsn`) is durable,
  /// and must abort if `on` does.
  struct CommitDependency {
    TxnId on = kInvalidTxn;
    Lsn commit_lsn = kInvalidLsn;
  };
  using CommitDependencyList = std::vector<CommitDependency>;

  /// `stats`, when given, receives acquire/conflict/transfer/permit counts
  /// and lock trace events; it must outlive the manager. Unit tests that
  /// exercise locking in isolation construct without one.
  explicit LockManager(Stats* stats = nullptr) : stats_(stats) {}

  /// Acquires (or upgrades to) `mode` on `ob` for `txn`. Returns kBusy if a
  /// conflicting holder exists and has not permitted `txn`. Re-acquiring an
  /// equal or weaker mode is a no-op; upgrades succeed when every other
  /// holder is compatible with the stronger mode or has permitted `txn`.
  ///
  /// `elr_deps` (non-null = the caller runs early lock release): a
  /// conflicting holder that is early-released does not block; it is
  /// appended to `elr_deps` instead and the acquisition succeeds. With
  /// `elr_deps` null an early-released holder conflicts like any other.
  Status Acquire(TxnId txn, ObjectId ob, LockMode mode,
                 CommitDependencyList* elr_deps = nullptr);

  /// Early lock release: marks every lock `txn` holds as released-at-commit,
  /// recording `commit_lsn` (the COMMIT record just appended). The entries
  /// stay in the table — carrying the dependency information for later
  /// acquirers — until the ordinary ReleaseAll removes them.
  void MarkEarlyReleased(TxnId txn, Lsn commit_lsn);

  /// Releases every lock held by `txn` (transaction termination).
  void ReleaseAll(TxnId txn);

  /// Releases `txn`'s lock on one object, if held.
  void Release(TxnId txn, ObjectId ob);

  /// Moves `from`'s lock on `ob` to `to` (delegation). If `to` already holds
  /// a lock on `ob` the stronger mode wins. No-op if `from` holds nothing.
  void Transfer(TxnId from, TxnId to, ObjectId ob);

  /// ASSET permit: `grantee` may ignore `owner`'s locks on `ob`.
  /// Lasts until `owner` terminates (ReleaseAll).
  void Permit(TxnId owner, TxnId grantee, ObjectId ob);

  /// True if `txn` holds `ob` in a mode at least as strong as `mode`. An
  /// early-released lock no longer counts: its protection is gone the
  /// moment it stops blocking acquirers.
  bool Holds(TxnId txn, ObjectId ob, LockMode mode) const;

  /// Objects currently locked by `txn`, with modes. Assembled shard by
  /// shard: a point-in-time view only if the transaction is not
  /// concurrently acquiring (the usual session contract).
  std::map<ObjectId, LockMode> HeldLocks(TxnId txn) const;

  /// Crash: forget everything (locks are volatile).
  void Reset();

 private:
  struct Holder {
    TxnId txn = kInvalidTxn;
    LockMode mode = LockMode::kShared;
    /// Early lock release: set at COMMIT-append time. The lock no longer
    /// blocks, but a conflicting acquirer picks up a commit dependency on
    /// `txn` keyed by `commit_lsn`.
    bool early_released = false;
    Lsn commit_lsn = kInvalidLsn;
  };
  /// (owner, grantee): grantee ignores owner's lock on this object.
  struct PermitPair {
    TxnId owner = kInvalidTxn;
    TxnId grantee = kInvalidTxn;
  };

  struct ObjectLocks {
    /// One holder (or two, briefly, under ELR or increment sharing) is the
    /// common case, so both lists are scanned linearly.
    std::vector<Holder> holders;
    std::vector<PermitPair> permits;

    Holder* FindHolder(TxnId txn);
    const Holder* FindHolder(TxnId txn) const;
    bool HasPermit(TxnId owner, TxnId grantee) const;
  };

  /// One partition: its objects' lock state plus the per-transaction index
  /// of objects held *within this shard*, so the commit-path sweeps
  /// (ReleaseAll, MarkEarlyReleased) visit only the transaction's own
  /// objects.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ObjectId, ObjectLocks> table;
    std::unordered_map<TxnId, std::vector<ObjectId>> held;
  };

  static constexpr size_t kShards = 16;

  Shard& ShardFor(ObjectId ob) { return shards_[ShardIndex(ob)]; }
  const Shard& ShardFor(ObjectId ob) const { return shards_[ShardIndex(ob)]; }
  static size_t ShardIndex(ObjectId ob) {
    // Mix before masking: consecutive object ids land on distinct shards
    // either way, but strided workloads should too.
    uint64_t h = static_cast<uint64_t>(ob);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h) % kShards;
  }

  /// kBusy-style conflict test. With `elr_deps` non-null, early-released
  /// conflicting holders are collected there instead of conflicting.
  bool ConflictsIgnoringPermits(const ObjectLocks& locks, TxnId requester,
                                LockMode mode,
                                CommitDependencyList* elr_deps) const;

  /// Drops `ob` from `txn`'s held index within `shard` (under its mutex).
  static void DropFromHeld(Shard& shard, TxnId txn, ObjectId ob);

  Stats* stats_ = nullptr;
  std::array<Shard, kShards> shards_;
};

}  // namespace ariesrh

#endif  // ARIESRH_LOCK_LOCK_MANAGER_H_
