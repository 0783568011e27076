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
// neither), so a bucket load always reads a consistent chain.
//
// Open on first touch: a heap built at restart has no bucket in memory. A
// bucket's stable chain is read, checked and indexed the first time a
// record access, a bucket drain or a scan touches it, and before any
// pending redo replays over it. An unloaded bucket is clean, so write-back
// and the dirty page table pass it by. The key index is kept per bucket;
// Scan merges the buckets in key order.
//
// Latching: each bucket has its own latch over its frames, dirty marks and
// key index; nothing is shared between buckets. A record access, a bucket
// drain and a chain's write-back latch only their bucket, so they run
// concurrently on different buckets. Scan latches every bucket in index
// order for an atomic snapshot. Lock order: bucket latch, then the redo
// index's lock (the resolve hook), then the log (the write path's append,
// the write-back's WAL flush).

#ifndef ARIESRH_TABLE_TABLE_HEAP_H_
#define ARIESRH_TABLE_TABLE_HEAP_H_

#include <array>
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

/// What replaying a logical table record does to its key: TBL_INSERT,
/// TBL_UPDATE and restoring TBL_CLRs upsert the after image, TBL_DELETE and
/// removing TBL_CLRs drop the key; kNone for a record of any other type.
inline RecordOp ReplayOpOf(LogRecordType type, bool table_remove) {
  switch (type) {
    case LogRecordType::kTableInsert:
    case LogRecordType::kTableUpdate:
      return RecordOp::kUpsert;
    case LogRecordType::kTableDelete:
      return RecordOp::kRemove;
    case LogRecordType::kTableClr:
      return table_remove ? RecordOp::kRemove : RecordOp::kUpsert;
    default:
      return RecordOp::kNone;
  }
}

/// What logical table replay writes into: restart's redo and undo replay
/// into the engine's TableHeap, a reenactment fold into its own key overlay
/// (reenact/fold_table.h). Replay is state-based (ReplayOpOf), idempotent
/// in per-key LSN order; a record that is not a table record fails with
/// IllegalState.
class ReplayTarget {
 public:
  virtual ~ReplayTarget() = default;
  virtual Status ApplyLogical(const LogRecord& rec) = 0;
  /// Replays a redo plan's entry the same way.
  virtual Status ApplyLogical(const RedoEntry& entry) = 0;
};

/// Instant-restart hook: removes and returns a bucket's pending logical
/// redo entries (in LSN order) for the heap to replay before it serves the
/// bucket. Runs under the bucket's latch.
using BucketResolveFn = std::function<std::vector<RedoEntry>(size_t bucket)>;

class TableHeap final : public ReplayTarget {
 public:
  /// `wal_flush` enforces the WAL rule on write-back (flush the log through
  /// a page's LSN before the page image hits the disk).
  TableHeap(SimulatedDisk* disk, Stats* stats, WalFlushFn wal_flush);

  /// The forward write path. Runs `fn` under the bucket latch with the key's
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

  /// Point read of the current (possibly uncommitted) value. Fails when
  /// the key's bucket cannot be loaded or drained.
  Result<std::optional<std::string>> Read(const std::string& key);

  /// Ordered scan: up to `limit` (0 = unbounded) key/value pairs with
  /// key >= start_key, in key order. Touches every bucket, and holds every
  /// bucket latch while it copies, so the result is one atomic snapshot.
  Result<std::vector<std::pair<std::string, std::string>>> Scan(
      const std::string& start_key, size_t limit);

  /// Visits the records with key >= start_key in key order, in place,
  /// while `fn` returns true. Touches every bucket, and holds every bucket
  /// latch while it visits, so the visit is one atomic snapshot; `fn` must
  /// not call back into the heap, and its views die with the call.
  Status ForEachRecord(
      std::string_view start_key,
      const std::function<bool(std::string_view key, std::string_view value)>&
          fn);

  /// Logical replay of a table record (redo pass, and CLR application
  /// during undo) into the key's bucket, after the bucket drains.
  /// Thread-safe for concurrent redo workers on different buckets.
  Status ApplyLogical(const LogRecord& rec) override;
  Status ApplyLogical(const RedoEntry& entry) override;

  /// Writes every dirty heap page to the stable store (WAL rule enforced)
  /// and marks it clean, one bucket chain at a time.
  Status FlushAll() { return WriteBackOlderThan(kInvalidLsn); }

  /// The checkpoint's write-back: every bucket chain holding a dirty page
  /// whose rec_lsn is below `older_than` is written whole — all of its
  /// dirty pages, under one hold of that bucket's latch, after one log flush
  /// through the newest of their page LSNs (the WAL rule). Chains go one at
  /// a time, so a record access waits only when it hits the chain being
  /// written. `after_bucket(b)`, when set, runs after bucket b's turn
  /// without the latch; an error from it stops the write-back there (a
  /// test's crash point). `written` counts pages.
  Status WriteBackOlderThan(
      Lsn older_than,
      const std::function<Status(size_t bucket)>& after_bucket = {},
      uint64_t* written = nullptr);

  /// Dirty heap pages -> recovery LSN (first LSN that dirtied each since it
  /// was last clean). Checkpoints merge this into the engine's dirty page
  /// table so RedoStart covers unflushed table writes.
  std::map<PageId, Lsn> DirtyPageTable() const;

  /// Installs (or clears, with an empty function) the instant-restart
  /// resolve hook. Every record access — WithRecord, Read, Scan, and CLR
  /// application — drains the touched bucket's pending records first, so no
  /// caller observes a key whose log suffix has not been replayed.
  void set_redo_resolve(BucketResolveFn resolve);

  /// Loads `bucket` and replays its pending records under its latch
  /// (instant restart's final background sweep calls it for each bucket
  /// with pending redo); without a resolve hook it only loads. The bucket
  /// drains atomically, so per-key LSN order holds, and a record access to
  /// another bucket does not wait for it.
  Status Drain(size_t bucket);

  /// Records in the buckets loaded so far.
  size_t record_count() const;

 private:
  /// A heap page in memory and its dirty mark.
  struct Frame {
    HeapPage page;
    /// The oldest LSN that dirtied the page since it was last clean;
    /// kInvalidLsn while it is clean.
    Lsn rec_lsn = kInvalidLsn;
  };
  struct RecordLocation {
    uint32_t frame = 0;  // index into the bucket's frames
    uint32_t slot = 0;
  };
  using KeyIndex = std::map<std::string, RecordLocation, std::less<>>;
  /// One hash bucket: its latch, its page chain in memory and the key index
  /// over it. Each starts its own cache line, so writers on neighbouring
  /// buckets do not contend for their latches' line.
  struct alignas(64) Bucket {
    mutable std::mutex mu;
    /// The chain in allocation order. Page ids encode their bucket
    /// (kHeapPageBase + bucket + kTableBuckets * n), so the stable chain is
    /// known from stable page ids alone before the bucket loads.
    std::vector<Frame> frames;
    KeyIndex index;
    bool loaded = false;
  };

  /// Every bucket latch, taken in index order.
  std::vector<std::unique_lock<std::mutex>> LatchAll();
  /// The replay of one logical record, from the only fields it reads.
  Status ApplyLogicalLocked(Bucket& bucket, LogRecordType type, bool remove,
                            std::string_view key, std::string_view after_image,
                            Lsn lsn);
  /// The touch: loads the bucket if it is not in memory yet, then replays
  /// its pending redo entries (when a resolve hook is installed).
  Status DrainBucketLocked(size_t bucket);
  /// First touch: reads the bucket's stable chain, checks that every live
  /// key belongs to the bucket and is stable once, and indexes it. Fails
  /// with Corruption naming the page otherwise, leaving the bucket
  /// unloaded.
  Status LoadBucketLocked(size_t bucket);
  static size_t BucketOfKey(std::string_view key) {
    return BucketOfRid(TableRid(key));
  }
  static std::string_view ValueAt(const Bucket& bucket,
                                  const RecordLocation& at) {
    return bucket.frames[at.frame].page.ValueAt(at.slot);
  }
  Status WriteBackChainLocked(Bucket& bucket, Lsn older_than,
                              uint64_t* written);
  Status UpsertLocked(Bucket& bucket, std::string_view key,
                      std::string_view value, Lsn lsn);
  Status RemoveLocked(Bucket& bucket, std::string_view key, Lsn lsn);
  /// Finds (or allocates) a page in the key's bucket chain with room for the
  /// record and inserts it there, updating the index.
  Status PlaceLocked(Bucket& bucket, std::string_view key,
                     std::string_view value, Lsn lsn);
  static void Stamp(Frame& frame, Lsn lsn);

  SimulatedDisk* disk_;
  Stats* stats_;
  WalFlushFn wal_flush_;
  BucketResolveFn redo_resolve_;

  std::array<Bucket, kTableBuckets> buckets_;
  /// The stable page ids of each bucket's chain, listed once, at the first
  /// touch of any bucket: an unloaded bucket is never written, so its
  /// stable chain cannot change before its own load.
  std::once_flag chains_listed_;
  std::array<std::vector<PageId>, kTableBuckets> stable_chains_;
};

}  // namespace ariesrh::table

#endif  // ARIESRH_TABLE_TABLE_HEAP_H_
