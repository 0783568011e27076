#include "table/table_heap.h"

#include <algorithm>
#include <thread>

namespace ariesrh::table {

ObjectId TableRid(std::string_view key) {
  // FNV-1a 64-bit, then retagged: bit 63 set, bit 62 cleared, so rids are
  // disjoint from plain object ids and from bucket lock ids.
  uint64_t hash = 1469598103934665603ull;
  for (char c : key) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return (hash & ~kTablePageLockTag) | kTableRidTag;
}

TableHeap::TableHeap(SimulatedDisk* disk, Stats* stats, WalFlushFn wal_flush)
    : disk_(disk), stats_(stats), wal_flush_(std::move(wal_flush)) {}

Result<Lsn> TableHeap::WithRecord(
    const std::string& key,
    const std::function<Result<Lsn>(const std::optional<std::string>&,
                                    RecordMutation*)>& fn) {
  const std::unique_lock<std::mutex> lock = LatchForAccess();
  ARIESRH_RETURN_IF_ERROR(DrainBucketLocked(BucketOfRid(TableRid(key))));
  std::optional<std::string> current;
  if (auto it = index_.find(key); it != index_.end()) {
    current.emplace(FrameLocked(it->second.page).ValueAt(it->second.slot));
  }
  RecordMutation mut;
  ARIESRH_ASSIGN_OR_RETURN(Lsn lsn, fn(current, &mut));
  switch (mut.op) {
    case RecordOp::kNone:
      break;
    case RecordOp::kUpsert:
      ARIESRH_RETURN_IF_ERROR(UpsertLocked(key, mut.value, lsn));
      break;
    case RecordOp::kRemove:
      ARIESRH_RETURN_IF_ERROR(RemoveLocked(key, lsn));
      break;
  }
  return lsn;
}

std::optional<std::string> TableHeap::Read(const std::string& key) const {
  const std::unique_lock<std::mutex> lock = LatchForAccess();
  // Best-effort drain (a failure here surfaces on the next write path).
  const_cast<TableHeap*>(this)
      ->DrainBucketLocked(BucketOfRid(TableRid(key)))
      .ok();
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  const auto frame = frames_.find(it->second.page);
  return std::string(frame->second.ValueAt(it->second.slot));
}

std::vector<std::pair<std::string, std::string>> TableHeap::Scan(
    const std::string& start_key, size_t limit) const {
  const std::unique_lock<std::mutex> lock = LatchForAccess();
  if (redo_resolve_) {
    for (size_t b = 0; b < kTableBuckets; ++b) {
      const_cast<TableHeap*>(this)->DrainBucketLocked(b).ok();
    }
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = index_.lower_bound(start_key); it != index_.end(); ++it) {
    if (limit != 0 && out.size() >= limit) break;
    const auto frame = frames_.find(it->second.page);
    out.emplace_back(it->first,
                     std::string(frame->second.ValueAt(it->second.slot)));
  }
  return out;
}

Status TableHeap::ApplyLogical(const LogRecord& rec) {
  const std::unique_lock<std::mutex> lock = LatchForAccess();
  // Instant restart: a CLR (or any out-of-band replay) must land after the
  // key's pending forward records — state-based idempotence is per-key LSN
  // order, so the bucket drains first.
  ARIESRH_RETURN_IF_ERROR(DrainBucketLocked(BucketOfRid(rec.object)));
  return ApplyLogicalLocked(rec);
}

Status TableHeap::ApplyLogicalLocked(const LogRecord& rec) {
  switch (rec.type) {
    case LogRecordType::kTableInsert:
    case LogRecordType::kTableUpdate:
      return UpsertLocked(rec.key, rec.after_image, rec.lsn);
    case LogRecordType::kTableDelete:
      return RemoveLocked(rec.key, rec.lsn);
    case LogRecordType::kTableClr:
      if (rec.table_remove) return RemoveLocked(rec.key, rec.lsn);
      return UpsertLocked(rec.key, rec.after_image, rec.lsn);
    default:
      return Status::IllegalState("not a table log record");
  }
}

Status TableHeap::DrainBucketLocked(size_t bucket) {
  if (!redo_resolve_) return Status::OK();
  const std::vector<LogRecord> recs = redo_resolve_(bucket);
  for (const LogRecord& rec : recs) {
    ARIESRH_RETURN_IF_ERROR(ApplyLogicalLocked(rec));
  }
  return Status::OK();
}

void TableHeap::set_redo_resolve(BucketResolveFn resolve) {
  std::lock_guard<std::mutex> lock(mu_);
  redo_resolve_ = std::move(resolve);
}

std::unique_lock<std::mutex> TableHeap::LatchForAccess() const {
  if (walkers_.load(std::memory_order_acquire) == 0) {
    return std::unique_lock<std::mutex>(mu_);
  }
  // A bucket walk is running: queue for the hand-off it makes between
  // buckets.
  latch_queued_.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lock(mu_);
  latch_granted_.fetch_add(1, std::memory_order_acq_rel);
  return lock;
}

Status TableHeap::ForEachBucket(const std::function<Status(size_t)>& fn,
                                const std::function<Status(size_t)>& after) {
  walkers_.fetch_add(1, std::memory_order_acq_rel);
  Status status = Status::OK();
  for (size_t b = 0; b < kTableBuckets && status.ok(); ++b) {
    // Accesses already queued on the latch go before the next bucket, so a
    // foreground caller waits for at most the bucket in progress; later
    // arrivals do not extend the wait.
    const uint64_t queued = latch_queued_.load(std::memory_order_acquire);
    while (latch_granted_.load(std::memory_order_acquire) < queued) {
      std::this_thread::yield();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      status = fn(b);
    }
    if (status.ok() && after) status = after(b);
  }
  walkers_.fetch_sub(1, std::memory_order_acq_rel);
  return status;
}

Status TableHeap::DrainPending() {
  return ForEachBucket([this](size_t b) { return DrainBucketLocked(b); });
}

Status TableHeap::WriteBackOlderThan(
    Lsn older_than, const std::function<Status(size_t bucket)>& after_bucket,
    uint64_t* written) {
  return ForEachBucket(
      [&](size_t b) { return WriteBackChainLocked(b, older_than, written); },
      after_bucket);
}

Status TableHeap::WriteBackChainLocked(size_t bucket, Lsn older_than,
                                       uint64_t* written) {
  // The chain goes out whole or not at all: a record relocated within it
  // left one page and joined another, and only writing both keeps the key
  // stable on exactly one page.
  bool due = false;
  Lsn newest = 0;
  for (PageId id : buckets_[bucket]) {
    const auto it = dirty_.find(id);
    if (it == dirty_.end()) continue;
    due = due || it->second < older_than;
    newest = std::max(newest, frames_.at(id).page_lsn());
  }
  if (!due) return Status::OK();
  // WAL rule: the log must cover the chain's newest applied record before
  // any of its page images becomes stable.
  if (wal_flush_ && newest != 0) {
    ARIESRH_RETURN_IF_ERROR(wal_flush_(newest));
  }
  for (PageId id : buckets_[bucket]) {
    const auto it = dirty_.find(id);
    if (it == dirty_.end()) continue;
    ARIESRH_RETURN_IF_ERROR(disk_->WritePage(id, frames_.at(id).Serialize()));
    dirty_.erase(it);
    if (written != nullptr) ++*written;
  }
  return Status::OK();
}

std::map<PageId, Lsn> TableHeap::DirtyPageTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_;
}

void TableHeap::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  frames_.clear();
  dirty_.clear();
  index_.clear();
  for (auto& chain : buckets_) chain.clear();
}

Status TableHeap::Bootstrap() {
  std::lock_guard<std::mutex> lock(mu_);
  frames_.clear();
  dirty_.clear();
  index_.clear();
  for (auto& chain : buckets_) chain.clear();
  for (PageId id : disk_->StablePageIds()) {
    if (id < kHeapPageBase) continue;  // a plain fixed-cell page
    ARIESRH_ASSIGN_OR_RETURN(std::string image, disk_->ReadPage(id));
    ARIESRH_ASSIGN_OR_RETURN(HeapPage page, HeapPage::Deserialize(image));
    if (page.id() != id) {
      return Status::Corruption("heap page id mismatch");
    }
    buckets_[(id - kHeapPageBase) % kTableBuckets].push_back(id);
    frames_.emplace(id, std::move(page));
  }
  // Chains in allocation order; rebuild the key index from slot directories.
  for (auto& chain : buckets_) std::sort(chain.begin(), chain.end());
  for (auto& [id, page] : frames_) {
    for (uint32_t slot = 0; slot < page.slot_count(); ++slot) {
      if (!page.SlotLive(slot)) continue;
      const auto [it, fresh] =
          index_.try_emplace(std::string(page.KeyAt(slot)),
                             RecordLocation{id, slot});
      if (!fresh) return Status::Corruption("duplicate key across heap pages");
    }
  }
  return Status::OK();
}

Status TableHeap::UpsertLocked(const std::string& key,
                               const std::string& value, Lsn lsn) {
  if (auto it = index_.find(key); it != index_.end()) {
    HeapPage& page = FrameLocked(it->second.page);
    Status updated = page.Update(it->second.slot, value);
    if (updated.ok()) {
      StampLocked(it->second.page, lsn);
      return Status::OK();
    }
    // No room on the record's page even after compaction: relocate within
    // the bucket chain.
    ARIESRH_RETURN_IF_ERROR(page.Remove(it->second.slot));
    StampLocked(it->second.page, lsn);
    index_.erase(it);
    if (stats_ != nullptr) ++stats_->table_relocations;
  }
  return PlaceLocked(key, value, lsn);
}

Status TableHeap::RemoveLocked(const std::string& key, Lsn lsn) {
  const auto it = index_.find(key);
  if (it == index_.end()) return Status::OK();  // replay is remove-if-present
  ARIESRH_RETURN_IF_ERROR(
      FrameLocked(it->second.page).Remove(it->second.slot));
  StampLocked(it->second.page, lsn);
  index_.erase(it);
  return Status::OK();
}

Status TableHeap::PlaceLocked(const std::string& key, const std::string& value,
                              Lsn lsn) {
  const size_t bucket = BucketOfRid(TableRid(key));
  std::vector<PageId>& chain = buckets_[bucket];
  PageId target = kInvalidPage;
  for (PageId id : chain) {
    if (FrameLocked(id).HasSpaceFor(key, value)) {
      target = id;
      break;
    }
  }
  if (target == kInvalidPage) {
    // Extend the chain; the page id encodes the bucket so Bootstrap can
    // rebuild chains from stable ids.
    target = kHeapPageBase + static_cast<PageId>(bucket) +
             static_cast<PageId>(kTableBuckets * chain.size());
    while (frames_.contains(target)) {
      target += static_cast<PageId>(kTableBuckets);
    }
    chain.push_back(target);
    frames_.emplace(target, HeapPage(target));
  }
  HeapPage& page = FrameLocked(target);
  ARIESRH_ASSIGN_OR_RETURN(uint32_t slot, page.Insert(key, value));
  index_[key] = RecordLocation{target, slot};
  StampLocked(target, lsn);
  return Status::OK();
}

HeapPage& TableHeap::FrameLocked(PageId id) { return frames_.at(id); }

void TableHeap::StampLocked(PageId id, Lsn lsn) {
  HeapPage& page = FrameLocked(id);
  page.set_page_lsn(std::max(page.page_lsn(), lsn));
  // rec_lsn: the oldest LSN that dirtied the page since it was last clean.
  // Replay can reach a page out of global LSN order (buckets replay
  // concurrently), so keep the minimum.
  const auto [it, fresh] = dirty_.try_emplace(id, lsn);
  if (!fresh && lsn < it->second) it->second = lsn;
}

}  // namespace ariesrh::table
