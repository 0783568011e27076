// Buffer pool: volatile cache of pages over the simulated disk.
//
// Policy is STEAL / NO-FORCE, the regime ARIES exists for:
//   - STEAL: a dirty page holding uncommitted updates may be evicted and
//     written to stable storage before its transaction commits (so recovery
//     must be able to UNDO).
//   - NO-FORCE: commit does not flush pages, only the log (so recovery must
//     be able to REDO).
//
// The write-ahead rule is enforced here: before a dirty page is written to
// disk, the log is flushed up to that page's page LSN.
//
// Thread safety: all operations serialize on one internal latch so parallel
// restart recovery (partitioned redo, instant restart's background undo
// beside foreground transactions) can share the pool.
// Fetch's returned pointer is only stable until the next pool operation, so
// concurrent workers must use WithPage, which holds the latch across
// fetch + apply — that is the unit of atomicity parallel redo needs.

#ifndef ARIESRH_STORAGE_BUFFER_POOL_H_
#define ARIESRH_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>

#include "storage/page.h"
#include "storage/simulated_disk.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"

namespace ariesrh {

/// Flushes the write-ahead log up to (and including) the given LSN.
using WalFlushFn = std::function<Status(Lsn)>;

/// Instant-restart hook: replays a page's pending redo-plan suffix onto the
/// freshly fetched frame, returning the first applied LSN (the frame's
/// rec_lsn) or kInvalidLsn when nothing was pending. Runs under the pool
/// latch (lock order: pool latch, then the redo index's lock).
using RedoResolveFn = std::function<Lsn(PageId, Page*)>;

/// LRU buffer pool. Volatile: Reset() models the crash.
class BufferPool {
 public:
  /// `capacity` is the number of page frames. `wal_flush` enforces the WAL
  /// rule on eviction and may be empty only if no page is ever dirtied.
  /// `stats`, when given, counts hits and misses.
  BufferPool(SimulatedDisk* disk, size_t capacity, WalFlushFn wal_flush,
             Stats* stats = nullptr);

  /// Returns the cached page, reading it from disk on a miss (a page never
  /// written to disk materializes as a fresh zeroed page). The returned
  /// pointer is valid until the next Fetch/Reset; callers do not hold pages
  /// across other pool operations. Single-threaded use only — concurrent
  /// recovery workers go through WithPage.
  Result<Page*> Fetch(PageId id);

  /// Fixes the page and runs `fn` on it while holding the pool latch, then
  /// marks the page dirty with the LSN `fn` returns (kInvalidLsn = the page
  /// was not modified). The latch spans fetch + apply, so a concurrent
  /// worker's Fetch cannot evict the page mid-application. This is the
  /// fix-for-redo path parallel recovery uses; a possible eviction inside
  /// the fetch may invoke the WAL-flush hook while the latch is held (lock
  /// order: pool latch, then log).
  Status WithPage(PageId id, const std::function<Lsn(Page*)>& fn);

  /// Marks a page dirty, recording its recovery LSN (the LSN of the first
  /// update that dirtied it) for the dirty page table.
  void MarkDirty(PageId id, Lsn rec_lsn);

  /// Writes all dirty pages to disk (backups and tests).
  Status FlushAll() { return FlushOlderThan(kInvalidLsn); }

  /// Writes every dirty page whose recovery LSN is below `older_than` (WAL
  /// rule enforced per page), under one pool-latch hold. Checkpoints pass
  /// the previous checkpoint's CKPT_BEGIN (the penultimate-checkpoint rule);
  /// kInvalidLsn, the largest LSN, writes every dirty page. Returns the
  /// number of pages written through `written` when given.
  Status FlushOlderThan(Lsn older_than, uint64_t* written = nullptr);

  /// Writes one dirty page to disk if cached and dirty.
  Status FlushPage(PageId id);

  /// Dirty page table: page id -> recovery LSN. Snapshot for checkpoints.
  std::map<PageId, Lsn> DirtyPageTable() const;

  /// Runs `fn` on every page with an id below `below` as a Fetch would see
  /// it: a cached frame as it is, dirty or clean, and a stable page the
  /// pool does not hold decoded from its image. Writes nothing back and
  /// caches nothing; holds the pool latch throughout, so `fn` must not
  /// call back into the pool. Fails if a stable image does not decode.
  Status ForEachPage(PageId below,
                     const std::function<void(const Page&)>& fn) const;

  /// Crash: discards every frame, including dirty ones.
  void Reset();

  /// Installs (or clears, with an empty function) the instant-restart
  /// resolve hook. Every fetch — hit or miss, any entry point — consults it
  /// before the frame is visible, so no caller can observe a page whose
  /// pending redo has not been replayed. Install before the engine opens.
  void set_redo_resolve(RedoResolveFn resolve);

  size_t capacity() const { return capacity_; }
  size_t cached_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Frame {
    Page page;
    bool dirty = false;
    Lsn rec_lsn = kInvalidLsn;
    std::list<PageId>::iterator lru_pos;
  };

  Result<Page*> FetchLocked(PageId id);
  void ResolvePendingRedoLocked(PageId id, Page* page);
  void MarkDirtyLocked(PageId id, Lsn rec_lsn);
  Status EvictOne();
  Status WriteBack(PageId id, Frame* frame);
  void Touch(PageId id, Frame* frame);

  SimulatedDisk* disk_;
  size_t capacity_;
  WalFlushFn wal_flush_;
  RedoResolveFn redo_resolve_;
  Stats* stats_ = nullptr;
  mutable std::mutex mu_;
  std::unordered_map<PageId, Frame> frames_;
  std::list<PageId> lru_;  // front = most recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace ariesrh

#endif  // ARIESRH_STORAGE_BUFFER_POOL_H_
