#include "table/table_heap.h"

#include <algorithm>

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
  const size_t b = BucketOfKey(key);
  Bucket& bucket = buckets_[b];
  const std::lock_guard<std::mutex> lock(bucket.mu);
  ARIESRH_RETURN_IF_ERROR(DrainBucketLocked(b));
  std::optional<std::string> current;
  if (auto it = bucket.index.find(key); it != bucket.index.end()) {
    current.emplace(ValueAt(bucket, it->second));
  }
  RecordMutation mut;
  ARIESRH_ASSIGN_OR_RETURN(Lsn lsn, fn(current, &mut));
  switch (mut.op) {
    case RecordOp::kNone:
      break;
    case RecordOp::kUpsert:
      ARIESRH_RETURN_IF_ERROR(UpsertLocked(bucket, key, mut.value, lsn));
      break;
    case RecordOp::kRemove:
      ARIESRH_RETURN_IF_ERROR(RemoveLocked(bucket, key, lsn));
      break;
  }
  return lsn;
}

Result<std::optional<std::string>> TableHeap::Read(const std::string& key) {
  const size_t b = BucketOfKey(key);
  const Bucket& bucket = buckets_[b];
  const std::lock_guard<std::mutex> lock(bucket.mu);
  ARIESRH_RETURN_IF_ERROR(DrainBucketLocked(b));
  const auto it = bucket.index.find(key);
  if (it == bucket.index.end()) return std::optional<std::string>();
  return std::optional<std::string>(ValueAt(bucket, it->second));
}

std::vector<std::unique_lock<std::mutex>> TableHeap::LatchAll() {
  std::vector<std::unique_lock<std::mutex>> latches;
  latches.reserve(kTableBuckets);
  for (Bucket& bucket : buckets_) latches.emplace_back(bucket.mu);
  return latches;
}

Result<std::vector<std::pair<std::string, std::string>>> TableHeap::Scan(
    const std::string& start_key, size_t limit) {
  std::vector<std::pair<std::string, std::string>> out;
  ARIESRH_RETURN_IF_ERROR(ForEachRecord(
      start_key, [&out, limit](std::string_view key, std::string_view value) {
        out.emplace_back(key, value);
        return limit == 0 || out.size() < limit;
      }));
  return out;
}

Status TableHeap::ForEachRecord(
    std::string_view start_key,
    const std::function<bool(std::string_view key, std::string_view value)>&
        fn) {
  const std::vector<std::unique_lock<std::mutex>> latches = LatchAll();
  for (size_t b = 0; b < kTableBuckets; ++b) {
    ARIESRH_RETURN_IF_ERROR(DrainBucketLocked(b));
  }
  // Merge the buckets' indexes in key order: a min-heap of one cursor per
  // bucket that still has keys at or past start_key.
  struct Cursor {
    const Bucket* bucket;
    KeyIndex::const_iterator it;
    std::string_view key;  // it->first, kept beside the heap's comparisons
  };
  std::vector<Cursor> cursors;
  for (const Bucket& bucket : buckets_) {
    const auto it = bucket.index.lower_bound(start_key);
    if (it != bucket.index.end()) cursors.push_back({&bucket, it, it->first});
  }
  const auto later = [](const Cursor& a, const Cursor& b) {
    return a.key > b.key;
  };
  std::make_heap(cursors.begin(), cursors.end(), later);
  while (!cursors.empty()) {
    std::pop_heap(cursors.begin(), cursors.end(), later);
    Cursor& cursor = cursors.back();
    if (!fn(cursor.key, ValueAt(*cursor.bucket, cursor.it->second))) break;
    if (++cursor.it == cursor.bucket->index.end()) {
      cursors.pop_back();
    } else {
      cursor.key = cursor.it->first;
      std::push_heap(cursors.begin(), cursors.end(), later);
    }
  }
  return Status::OK();
}

Status TableHeap::ApplyLogical(const LogRecord& rec) {
  const size_t b = BucketOfRid(rec.object);
  const std::lock_guard<std::mutex> lock(buckets_[b].mu);
  // Instant restart: a CLR (or any out-of-band replay) must land after the
  // key's pending forward records — state-based idempotence is per-key LSN
  // order, so the bucket drains first.
  ARIESRH_RETURN_IF_ERROR(DrainBucketLocked(b));
  return ApplyLogicalLocked(buckets_[b], rec.type, rec.table_remove, rec.key,
                            rec.after_image, rec.lsn);
}

Status TableHeap::ApplyLogical(const RedoEntry& entry) {
  const size_t b = BucketOfRid(entry.object);
  const std::lock_guard<std::mutex> lock(buckets_[b].mu);
  ARIESRH_RETURN_IF_ERROR(DrainBucketLocked(b));
  return ApplyLogicalLocked(buckets_[b], entry.type, entry.table_remove,
                            entry.key(), entry.after_image(), entry.lsn);
}

Status TableHeap::ApplyLogicalLocked(Bucket& bucket, LogRecordType type,
                                     bool remove, std::string_view key,
                                     std::string_view after_image, Lsn lsn) {
  switch (ReplayOpOf(type, remove)) {
    case RecordOp::kUpsert:
      return UpsertLocked(bucket, key, after_image, lsn);
    case RecordOp::kRemove:
      return RemoveLocked(bucket, key, lsn);
    case RecordOp::kNone:
      break;
  }
  return Status::IllegalState("not a table log record");
}

Status TableHeap::DrainBucketLocked(size_t bucket) {
  ARIESRH_RETURN_IF_ERROR(LoadBucketLocked(bucket));
  if (!redo_resolve_) return Status::OK();
  const std::vector<RedoEntry> entries = redo_resolve_(bucket);
  for (const RedoEntry& entry : entries) {
    ARIESRH_RETURN_IF_ERROR(ApplyLogicalLocked(
        buckets_[bucket], entry.type, entry.table_remove, entry.key(),
        entry.after_image(), entry.lsn));
  }
  return Status::OK();
}

void TableHeap::set_redo_resolve(BucketResolveFn resolve) {
  const std::vector<std::unique_lock<std::mutex>> latches = LatchAll();
  redo_resolve_ = std::move(resolve);
}

Status TableHeap::Drain(size_t bucket) {
  const std::lock_guard<std::mutex> lock(buckets_[bucket].mu);
  return DrainBucketLocked(bucket);
}

Status TableHeap::WriteBackOlderThan(Lsn older_than, const TestHook* hook,
                                     uint64_t* written) {
  for (size_t b = 0; b < kTableBuckets; ++b) {
    {
      const std::lock_guard<std::mutex> lock(buckets_[b].mu);
      ARIESRH_RETURN_IF_ERROR(
          WriteBackChainLocked(buckets_[b], older_than, written));
    }
    ARIESRH_RETURN_IF_ERROR(RunTestPoint(hook, "checkpoint:after-bucket", b));
  }
  return Status::OK();
}

Status TableHeap::WriteBackChainLocked(Bucket& bucket, Lsn older_than,
                                       uint64_t* written) {
  // The chain goes out whole or not at all: a record relocated within it
  // left one page and joined another, and only writing both keeps the key
  // stable on exactly one page.
  bool due = false;
  Lsn newest = 0;
  for (const Frame& frame : bucket.frames) {
    if (frame.rec_lsn == kInvalidLsn) continue;
    due = due || frame.rec_lsn < older_than;
    newest = std::max(newest, frame.page.page_lsn());
  }
  if (!due) return Status::OK();
  // WAL rule: the log must cover the chain's newest applied record before
  // any of its page images becomes stable.
  if (wal_flush_ && newest != 0) {
    ARIESRH_RETURN_IF_ERROR(wal_flush_(newest));
  }
  for (Frame& frame : bucket.frames) {
    if (frame.rec_lsn == kInvalidLsn) continue;
    ARIESRH_RETURN_IF_ERROR(
        disk_->WritePage(frame.page.id(), frame.page.Serialize()));
    frame.rec_lsn = kInvalidLsn;
    if (written != nullptr) ++*written;
  }
  return Status::OK();
}

std::map<PageId, Lsn> TableHeap::DirtyPageTable() const {
  std::map<PageId, Lsn> dirty;
  for (const Bucket& bucket : buckets_) {
    const std::lock_guard<std::mutex> lock(bucket.mu);
    for (const Frame& frame : bucket.frames) {
      if (frame.rec_lsn != kInvalidLsn) {
        dirty.emplace(frame.page.id(), frame.rec_lsn);
      }
    }
  }
  return dirty;
}

size_t TableHeap::record_count() const {
  size_t count = 0;
  for (const Bucket& bucket : buckets_) {
    const std::lock_guard<std::mutex> lock(bucket.mu);
    count += bucket.index.size();
  }
  return count;
}

Status TableHeap::LoadBucketLocked(size_t bucket) {
  Bucket& entry = buckets_[bucket];
  if (entry.loaded) return Status::OK();
  std::call_once(chains_listed_, [this] {
    for (PageId id : disk_->StablePageIds()) {
      if (id < kHeapPageBase) continue;  // a plain fixed-cell page
      stable_chains_[(id - kHeapPageBase) % kTableBuckets].push_back(id);
    }
  });
  // Read and check the whole chain before any of it becomes visible, so a
  // failed load leaves the bucket as it was.
  const std::vector<PageId>& chain = stable_chains_[bucket];
  std::vector<Frame> frames;
  frames.reserve(chain.size());
  for (PageId id : chain) {
    ARIESRH_ASSIGN_OR_RETURN(const PageImage image, disk_->ReadPage(id));
    ARIESRH_ASSIGN_OR_RETURN(HeapPage page, HeapPage::Deserialize(*image));
    if (page.id() != id) {
      return Status::Corruption("heap page " + std::to_string(id) +
                                " holds the image of page " +
                                std::to_string(page.id()));
    }
    frames.push_back({std::move(page)});
  }
  // The keys are gathered once the frames are in place (a short payload
  // lives inside its string, so a view taken before a move would dangle)
  // and indexed in key order: each index insert is then an append, and a
  // later in-order walk visits adjacent nodes.
  size_t live = 0;
  for (const Frame& frame : frames) live += frame.page.live_records();
  std::vector<std::pair<std::string_view, RecordLocation>> located;
  located.reserve(live);
  for (uint32_t frame = 0; frame < frames.size(); ++frame) {
    const HeapPage& page = frames[frame].page;
    for (uint32_t slot = 0; slot < page.slot_count(); ++slot) {
      if (!page.SlotLive(slot)) continue;
      const std::string_view key = page.KeyAt(slot);
      if (BucketOfKey(key) != bucket) {
        return Status::Corruption(
            "heap page " + std::to_string(page.id()) + " of bucket " +
            std::to_string(bucket) + " holds a key of bucket " +
            std::to_string(BucketOfKey(key)));
      }
      located.emplace_back(key, RecordLocation{frame, slot});
    }
  }
  std::sort(located.begin(), located.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  KeyIndex index;
  for (const auto& [key, at] : located) {
    if (!index.empty() && std::prev(index.end())->first == key) {
      return Status::Corruption(
          "heap page " + std::to_string(frames[at.frame].page.id()) +
          " holds a key already stable in its chain");
    }
    index.emplace_hint(index.end(), key, at);
  }
  entry.frames = std::move(frames);
  entry.index = std::move(index);
  entry.loaded = true;
  if (stats_ != nullptr) ++stats_->table_bucket_loads;
  return Status::OK();
}

Status TableHeap::UpsertLocked(Bucket& bucket, std::string_view key,
                               std::string_view value, Lsn lsn) {
  if (auto it = bucket.index.find(key); it != bucket.index.end()) {
    Frame& frame = bucket.frames[it->second.frame];
    Status updated = frame.page.Update(it->second.slot, value);
    if (updated.ok()) {
      Stamp(frame, lsn);
      return Status::OK();
    }
    // No room on the record's page even after compaction: relocate within
    // the bucket chain.
    ARIESRH_RETURN_IF_ERROR(frame.page.Remove(it->second.slot));
    Stamp(frame, lsn);
    bucket.index.erase(it);
    if (stats_ != nullptr) ++stats_->table_relocations;
  }
  return PlaceLocked(bucket, key, value, lsn);
}

Status TableHeap::RemoveLocked(Bucket& bucket, std::string_view key, Lsn lsn) {
  const auto it = bucket.index.find(key);
  if (it == bucket.index.end()) return Status::OK();  // remove-if-present
  Frame& frame = bucket.frames[it->second.frame];
  ARIESRH_RETURN_IF_ERROR(frame.page.Remove(it->second.slot));
  Stamp(frame, lsn);
  bucket.index.erase(it);
  return Status::OK();
}

Status TableHeap::PlaceLocked(Bucket& bucket, std::string_view key,
                              std::string_view value, Lsn lsn) {
  std::vector<Frame>& frames = bucket.frames;
  size_t target = 0;
  while (target < frames.size() &&
         !frames[target].page.HasSpaceFor(key, value)) {
    ++target;
  }
  if (target == frames.size()) {
    // Extend the chain; the page id encodes the bucket so a load can find
    // the chain from stable ids.
    frames.push_back({HeapPage(
        frames.empty()
            ? kHeapPageBase + static_cast<PageId>(BucketOfKey(key))
            : frames.back().page.id() + static_cast<PageId>(kTableBuckets))});
  }
  Frame& frame = frames[target];
  ARIESRH_ASSIGN_OR_RETURN(uint32_t slot, frame.page.Insert(key, value));
  bucket.index.insert_or_assign(
      std::string(key), RecordLocation{static_cast<uint32_t>(target), slot});
  Stamp(frame, lsn);
  return Status::OK();
}

void TableHeap::Stamp(Frame& frame, Lsn lsn) {
  frame.page.set_page_lsn(std::max(frame.page.page_lsn(), lsn));
  // rec_lsn: the oldest LSN that dirtied the page since it was last clean
  // (kInvalidLsn, the largest LSN, while clean). Replay can reach a page
  // out of global LSN order (buckets replay concurrently), so keep the
  // minimum.
  frame.rec_lsn = std::min(frame.rec_lsn, lsn);
}

}  // namespace ariesrh::table
