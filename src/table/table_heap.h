// The table heap: a per-shard key-value store over slotted heap pages, with
// logical WAL records and record-identity delegation.
//
// Record identity: every key hashes to a stable 64-bit rid, tagged so rids
// never collide with the engine's plain object ids. The rid IS an ObjectId —
// scopes, Ob_Lists, the lock manager, delegation (including cross-shard),
// and loser clustering all key by it unchanged. A hash collision between two
// keys merely makes them share a lock and a scope (conservative, never
// incorrect: each log record carries its key, so undo and redo always act on
// the right record).
//
// Placement: keys hash-partition into kTableBuckets chains of heap pages per
// shard, deterministic by rid. The bucket id doubles as the page-granularity
// lock unit when Options::table_record_locking is off — two transactions
// touching different keys in one bucket then conflict, which is exactly the
// false sharing record-level locking removes.
//
// Logging is logical: TBL_INSERT/TBL_UPDATE/TBL_DELETE carry key + before/
// after images, never page ids or slots. Redo is state-based replay
// (upsert the after image, remove the key), idempotent in per-key LSN order;
// physical placement during replay is free to differ from the original run.
// Heap pages live in the SimulatedDisk under kHeapPageBase, carry page LSNs,
// and obey the WAL rule on write-back, so checkpoints fold the heap's dirty
// pages into the dirty page table and RedoStart reaches every unflushed
// table write. Write-back goes one whole bucket chain at a time: a key that
// relocates between two pages of its chain is never stable on both (nor on
// neither), so Bootstrap always reads a consistent image.

#ifndef ARIESRH_TABLE_TABLE_HEAP_H_
#define ARIESRH_TABLE_TABLE_HEAP_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "table/heap_page.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace ariesrh::table {

/// Tag bits segregating the table's id spaces from plain object ids (which
/// are small in practice): rids have bit 63 set and bit 62 clear; bucket
/// (page-granularity) lock ids have both set.
inline constexpr ObjectId kTableRidTag = 1ull << 63;
inline constexpr ObjectId kTablePageLockTag = 3ull << 62;

/// First PageId used for heap pages in the stable store; plain pages
/// (PageOf(ob) = ob / kObjectsPerPage) stay far below this.
inline constexpr PageId kHeapPageBase = 1u << 30;

/// Hash-partition fanout per shard: each key's page chain, and the
/// page-granularity lock unit.
inline constexpr size_t kTableBuckets = 16;

/// Hard cap on key length (values are capped by
/// Options::table_max_value_bytes).
inline constexpr size_t kMaxKeyBytes = 256;

/// Stable record identity: FNV-1a over the key, retagged into rid space.
ObjectId TableRid(std::string_view key);

inline bool IsTableRid(ObjectId ob) {
  return (ob & kTablePageLockTag) == kTableRidTag;
}

inline size_t BucketOfRid(ObjectId rid) {
  return static_cast<size_t>(rid % kTableBuckets);
}

/// The object locked in page-granularity mode: the key's bucket chain.
inline ObjectId PageLockIdOf(ObjectId rid) {
  return kTablePageLockTag | static_cast<ObjectId>(BucketOfRid(rid));
}

/// Partition key for table records in the parallel redo plan: all records of
/// one bucket (hence of one key) land in the same redo work unit, preserving
/// per-key LSN order across redo workers.
inline PageId RedoBucketOf(ObjectId rid) {
  return kHeapPageBase + static_cast<PageId>(BucketOfRid(rid));
}

/// What a WithRecord callback asks the heap to do after the log append.
enum class RecordOp : uint8_t {
  kNone,    ///< read-only; nothing changes
  kUpsert,  ///< install `value` for the key (insert or overwrite)
  kRemove,  ///< drop the key
};

struct RecordMutation {
  RecordOp op = RecordOp::kNone;
  std::string value;
};

/// Instant-restart hook: removes and returns a bucket's pending logical
/// redo entries (in LSN order) for the heap to replay before it serves the
/// bucket. Runs under the heap latch (lock order: heap latch, then the redo
/// index's lock).
using BucketResolveFn = std::function<std::vector<RedoEntry>(size_t bucket)>;

class TableHeap {
 public:
  /// `wal_flush` enforces the WAL rule on write-back (flush the log through
  /// a page's LSN before the page image hits the disk).
  TableHeap(SimulatedDisk* disk, Stats* stats, WalFlushFn wal_flush);

  /// The forward write path. Runs `fn` under the heap latch with the key's
  /// current value (nullopt = absent); `fn` typically appends the log record
  /// (choosing insert vs update from the current value) and returns its LSN,
  /// filling `mut` with the action to apply. The heap applies the mutation
  /// and stamps every touched page with the returned LSN before releasing
  /// the latch — the same read-log-apply atomicity DoUpdate gets from
  /// BufferPool::WithPage. An error from `fn` leaves the heap untouched.
  Result<Lsn> WithRecord(
      const std::string& key,
      const std::function<Result<Lsn>(const std::optional<std::string>&,
                                      RecordMutation*)>& fn);

  /// Point read of the current (possibly uncommitted) value.
  std::optional<std::string> Read(const std::string& key) const;

  /// Ordered scan: up to `limit` (0 = unbounded) key/value pairs with
  /// key >= start_key, in key order.
  std::vector<std::pair<std::string, std::string>> Scan(
      const std::string& start_key, size_t limit) const;

  /// State-based logical replay of a table record (redo pass, and CLR
  /// application during undo): TBL_INSERT/TBL_UPDATE and restoring TBL_CLRs
  /// upsert the after image, TBL_DELETE and removing TBL_CLRs drop the key.
  /// Idempotent in per-key LSN order; thread-safe for concurrent redo
  /// workers on different buckets. The RedoEntry form replays a redo plan's
  /// entry the same way.
  Status ApplyLogical(const LogRecord& rec);
  Status ApplyLogical(const RedoEntry& entry);

  /// Writes every dirty heap page to the stable store (WAL rule enforced)
  /// and clears the dirty table, one bucket chain per latch hold.
  Status FlushAll() { return WriteBackOlderThan(kInvalidLsn); }

  /// The checkpoint's write-back: every bucket chain holding a dirty page
  /// whose rec_lsn is below `older_than` is written whole — all of its
  /// dirty pages, under one hold of the heap latch, after one log flush
  /// through the newest of their page LSNs (the WAL rule). Chains go one at
  /// a time with DrainPending's hand-off, so a foreground record access
  /// waits for at most one chain. `after_bucket(b)`, when set, runs after
  /// bucket b's turn without the latch; an error from it stops the
  /// write-back there (a test's crash point). `written` counts pages.
  Status WriteBackOlderThan(
      Lsn older_than,
      const std::function<Status(size_t bucket)>& after_bucket = {},
      uint64_t* written = nullptr);

  /// Dirty heap pages -> recovery LSN (first LSN that dirtied each since it
  /// was last clean). Checkpoints merge this into the engine's dirty page
  /// table so RedoStart covers unflushed table writes.
  std::map<PageId, Lsn> DirtyPageTable() const;

  /// Crash: drops every frame, the key index, and the dirty table. Stable
  /// page images survive in the disk.
  void Reset();

  /// Restart: loads every stable heap page and rebuilds the key index by
  /// scanning slot directories. Called before recovery replays the log.
  /// Fails with Corruption when a key is stable on two pages.
  Status Bootstrap();

  /// Installs (or clears, with an empty function) the instant-restart
  /// resolve hook. Every record access — WithRecord, Read, Scan, and CLR
  /// application — drains the touched bucket's pending records first, so no
  /// caller observes a key whose log suffix has not been replayed.
  void set_redo_resolve(BucketResolveFn resolve);

  /// Drains every bucket's pending records (instant restart's final
  /// background sweep). A no-op without a resolve hook. The heap latch is
  /// taken one bucket at a time, and record accesses queued on it go first
  /// between buckets: a foreground caller waits for at most one bucket's
  /// drain. Each bucket drains atomically, so per-key LSN order holds.
  Status DrainPending();

  size_t record_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }

 private:
  struct RecordLocation {
    PageId page = kInvalidPage;
    uint32_t slot = 0;
  };

  /// The heap latch for a record access (WithRecord, Read, Scan,
  /// ApplyLogical); while a bucket walk runs the caller queues for its
  /// between-bucket hand-off.
  std::unique_lock<std::mutex> LatchForAccess() const;
  /// A bucket walk (DrainPending, write-back): runs `fn(b)` for every
  /// bucket in turn, each under its own hold of the heap latch, and lets the
  /// record accesses that queued meanwhile go before the next bucket.
  /// `after(b)`, when set, runs between buckets without the latch. Stops at
  /// the first error.
  Status ForEachBucket(const std::function<Status(size_t)>& fn,
                       const std::function<Status(size_t)>& after = {});
  /// The replay of one logical record, from the only fields it reads.
  Status ApplyLogicalLocked(LogRecordType type, bool remove,
                            std::string_view key, std::string_view after_image,
                            Lsn lsn);
  Status DrainBucketLocked(size_t bucket);
  Status WriteBackChainLocked(size_t bucket, Lsn older_than,
                              uint64_t* written);
  Status UpsertLocked(std::string_view key, std::string_view value, Lsn lsn);
  Status RemoveLocked(std::string_view key, Lsn lsn);
  /// Finds (or allocates) a page in the key's bucket chain with room for the
  /// record and inserts it there, updating the index.
  Status PlaceLocked(std::string_view key, std::string_view value, Lsn lsn);
  HeapPage& FrameLocked(PageId id);
  void StampLocked(PageId id, Lsn lsn);

  SimulatedDisk* disk_;
  Stats* stats_;
  WalFlushFn wal_flush_;
  BucketResolveFn redo_resolve_;

  mutable std::mutex mu_;
  /// The bucket walks' hand-off: how many walks run, the record accesses
  /// that queued on mu_ during one, and how many of them have been granted
  /// it.
  std::atomic<int> walkers_{0};
  mutable std::atomic<uint64_t> latch_queued_{0};
  mutable std::atomic<uint64_t> latch_granted_{0};
  std::map<PageId, HeapPage> frames_;
  std::map<PageId, Lsn> dirty_;  // page -> rec_lsn
  std::map<std::string, RecordLocation, std::less<>> index_;
  /// Page chains per bucket. Page ids encode their bucket
  /// (kHeapPageBase + bucket + kTableBuckets * n), so Bootstrap can rebuild
  /// the chains from stable page ids alone.
  std::array<std::vector<PageId>, kTableBuckets> buckets_;
};

}  // namespace ariesrh::table

#endif  // ARIESRH_TABLE_TABLE_HEAP_H_
