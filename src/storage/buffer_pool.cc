#include "storage/buffer_pool.h"

#include <cassert>

namespace ariesrh {

BufferPool::BufferPool(SimulatedDisk* disk, size_t capacity,
                       WalFlushFn wal_flush, Stats* stats)
    : disk_(disk),
      capacity_(capacity),
      wal_flush_(std::move(wal_flush)),
      stats_(stats) {
  assert(capacity_ > 0);
}

Result<Page*> BufferPool::Fetch(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return FetchLocked(id);
}

Result<Page*> BufferPool::FetchLocked(PageId id) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    ++hits_;
    if (stats_ != nullptr) ++stats_->bp_hits;
    Touch(id, &it->second);
    ResolvePendingRedoLocked(id, &it->second.page);
    return &it->second.page;
  }
  ++misses_;
  if (stats_ != nullptr) ++stats_->bp_misses;
  if (frames_.size() >= capacity_) {
    ARIESRH_RETURN_IF_ERROR(EvictOne());
  }

  Frame frame;
  if (disk_->HasPage(id)) {
    ARIESRH_ASSIGN_OR_RETURN(const PageImage image, disk_->ReadPage(id));
    ARIESRH_ASSIGN_OR_RETURN(frame.page, Page::Deserialize(*image));
  } else {
    frame.page = Page(id);
  }
  lru_.push_front(id);
  frame.lru_pos = lru_.begin();
  auto [pos, inserted] = frames_.emplace(id, std::move(frame));
  assert(inserted);
  ResolvePendingRedoLocked(id, &pos->second.page);
  return &pos->second.page;
}

void BufferPool::ResolvePendingRedoLocked(PageId id, Page* page) {
  if (!redo_resolve_) return;
  const Lsn rec_lsn = redo_resolve_(id, page);
  if (rec_lsn != kInvalidLsn) MarkDirtyLocked(id, rec_lsn);
}

void BufferPool::set_redo_resolve(RedoResolveFn resolve) {
  std::lock_guard<std::mutex> lock(mu_);
  redo_resolve_ = std::move(resolve);
}

Status BufferPool::WithPage(PageId id, const std::function<Lsn(Page*)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  ARIESRH_ASSIGN_OR_RETURN(Page * page, FetchLocked(id));
  const Lsn dirtied = fn(page);
  if (dirtied != kInvalidLsn) MarkDirtyLocked(id, dirtied);
  return Status::OK();
}

void BufferPool::MarkDirty(PageId id, Lsn rec_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  MarkDirtyLocked(id, rec_lsn);
}

void BufferPool::MarkDirtyLocked(PageId id, Lsn rec_lsn) {
  auto it = frames_.find(id);
  assert(it != frames_.end() && "MarkDirty on page not in pool");
  Frame& frame = it->second;
  if (!frame.dirty) {
    frame.dirty = true;
    frame.rec_lsn = rec_lsn;
  }
}

Status BufferPool::FlushOlderThan(Lsn older_than, uint64_t* written) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, frame] : frames_) {
    if (frame.dirty && frame.rec_lsn < older_than) {
      ARIESRH_RETURN_IF_ERROR(WriteBack(id, &frame));
      if (written != nullptr) ++*written;
    }
  }
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end() || !it->second.dirty) return Status::OK();
  return WriteBack(id, &it->second);
}

std::map<PageId, Lsn> BufferPool::DirtyPageTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<PageId, Lsn> dpt;
  for (const auto& [id, frame] : frames_) {
    if (frame.dirty) dpt[id] = frame.rec_lsn;
  }
  return dpt;
}

Status BufferPool::ForEachPage(
    PageId below, const std::function<void(const Page&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, frame] : frames_) {
    if (id < below) fn(frame.page);
  }
  for (PageId id : disk_->StablePageIds()) {
    if (id >= below) break;  // the ids come sorted
    if (frames_.contains(id)) continue;
    ARIESRH_ASSIGN_OR_RETURN(const PageImage image, disk_->ReadPage(id));
    ARIESRH_ASSIGN_OR_RETURN(const Page page, Page::Deserialize(*image));
    fn(page);
  }
  return Status::OK();
}

void BufferPool::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  frames_.clear();
  lru_.clear();
}

Status BufferPool::EvictOne() {
  assert(!lru_.empty());
  // Victim: least recently used frame.
  PageId victim = lru_.back();
  auto it = frames_.find(victim);
  assert(it != frames_.end());
  if (it->second.dirty) {
    ARIESRH_RETURN_IF_ERROR(WriteBack(victim, &it->second));
  }
  lru_.pop_back();
  frames_.erase(it);
  return Status::OK();
}

Status BufferPool::WriteBack(PageId id, Frame* frame) {
  // WAL rule: the log must be durable up to the page LSN before the page
  // image (which reflects those updates) reaches stable storage.
  if (frame->page.page_lsn() != 0) {
    assert(wal_flush_ && "dirty page with no WAL flush hook");
    ARIESRH_RETURN_IF_ERROR(wal_flush_(frame->page.page_lsn()));
  }
  ARIESRH_RETURN_IF_ERROR(disk_->WritePage(id, frame->page.Serialize()));
  frame->dirty = false;
  frame->rec_lsn = kInvalidLsn;
  return Status::OK();
}

void BufferPool::Touch(PageId id, Frame* frame) {
  lru_.erase(frame->lru_pos);
  lru_.push_front(id);
  frame->lru_pos = lru_.begin();
}

}  // namespace ariesrh
