#include "recovery/ondemand.h"

#include <algorithm>

#include "obs/clock.h"
#include "obs/trace.h"
#include "wal/log_record.h"

namespace ariesrh {

// ---------------------------------------------------------------------------
// OnDemandRedo
// ---------------------------------------------------------------------------

OnDemandRedo::OnDemandRedo(RedoPlan plan, Stats* stats,
                           std::atomic<int64_t>* remaining_external)
    : stats_(stats),
      remaining_external_(remaining_external),
      pending_(std::move(plan.pages)) {
  remaining_.store(pending_.size(), std::memory_order_release);
  if (remaining_external_ != nullptr) {
    remaining_external_->fetch_add(static_cast<int64_t>(pending_.size()),
                                   std::memory_order_relaxed);
  }
}

std::vector<RedoEntry> OnDemandRedo::Take(PageId id) {
  if (remaining_.load(std::memory_order_acquire) == 0) return {};
  std::vector<RedoEntry> recs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return {};
    recs = std::move(it->second);
    pending_.erase(it);
  }
  remaining_.fetch_sub(1, std::memory_order_release);
  if (remaining_external_ != nullptr) {
    remaining_external_->fetch_sub(1, std::memory_order_relaxed);
  }
  return recs;
}

void OnDemandRedo::CountDrained(uint64_t applied) {
  records_applied_.fetch_add(applied, std::memory_order_relaxed);
  ++stats_->ondemand_redo_pages;
  stats_->ondemand_redo_records += applied;
  stats_->recovery_redos += applied;
}

Lsn OnDemandRedo::DrainPage(PageId id, Page* page) {
  const std::vector<RedoEntry> recs = Take(id);
  if (recs.empty()) return kInvalidLsn;
  // Replay the page's log suffix, exactly what PartitionedRedo would have
  // applied: page-LSN checked, in the plan's (increasing-LSN) order. The
  // caller holds the pool latch, so the application is atomic with the
  // fetch; the first applied LSN is the frame's rec_lsn for the DPT.
  Lsn rec_lsn = kInvalidLsn;
  uint64_t applied = 0;
  for (const RedoEntry& rec : recs) {
    if (!ApplyToPage(rec, page, /*check_page_lsn=*/true)) continue;
    if (rec_lsn == kInvalidLsn) rec_lsn = rec.lsn;
    ++applied;
  }
  CountDrained(applied);
  return rec_lsn;
}

std::vector<RedoEntry> OnDemandRedo::TakeBucket(PageId bucket_id) {
  std::vector<RedoEntry> recs = Take(bucket_id);
  // State-based logical replay applies every record (idempotence is per-key
  // LSN order, not a page-LSN check), so the whole bucket counts as applied.
  if (!recs.empty()) CountDrained(recs.size());
  return recs;
}

std::vector<PageId> OnDemandRedo::PendingPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PageId> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, recs] : pending_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------------------
// RecoveryGate
// ---------------------------------------------------------------------------

template <typename Pred>
void RecoveryGate::Block(std::unique_lock<std::mutex>& lock, Pred done) {
  if (done()) return;
  const uint64_t start = obs::MonotonicNanos();
  cv_.wait(lock, done);
  if (wait_ns_ != nullptr) wait_ns_->Observe(obs::MonotonicNanos() - start);
}

void RecoveryGate::Arm(const std::vector<UndoGroup>& groups,
                       obs::Histogram* wait_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  wait_ns_ = wait_ns;
  resolved_.assign(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const ScopeUndoTarget& target : groups[g].targets) {
      std::vector<size_t>& covering = by_object_[target.object];
      if (covering.empty() || covering.back() != g) covering.push_back(g);
    }
  }
  unresolved_.store(groups.size(), std::memory_order_release);
}

Status RecoveryGate::WaitForObject(ObjectId ob) {
  if (unresolved_.load(std::memory_order_acquire) == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  auto it = by_object_.find(ob);
  if (it == by_object_.end()) {
    return closed_ ? close_status_ : Status::OK();
  }
  const std::vector<size_t>& covering = it->second;
  auto lifted = [&] {
    for (size_t g : covering) {
      if (!resolved_[g]) return false;
    }
    return true;
  };
  Block(lock, [&] { return closed_ || lifted(); });
  if (lifted()) return Status::OK();
  return close_status_;
}

Status RecoveryGate::WaitForAll() {
  if (unresolved_.load(std::memory_order_acquire) == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  Block(lock, [&] {
    return closed_ || unresolved_.load(std::memory_order_acquire) == 0;
  });
  if (unresolved_.load(std::memory_order_acquire) == 0) return Status::OK();
  return close_status_;
}

void RecoveryGate::MarkResolved(size_t group) {
  std::lock_guard<std::mutex> lock(mu_);
  if (resolved_[group]) return;
  resolved_[group] = 1;
  unresolved_.fetch_sub(1, std::memory_order_release);
  cv_.notify_all();
}

void RecoveryGate::Close(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  close_status_ = std::move(status);
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// RecoveryHandle
// ---------------------------------------------------------------------------

std::shared_ptr<RecoveryHandle> RecoveryHandle::Terminal(RecoveryMode mode,
                                                         Outcome outcome) {
  auto handle = std::shared_ptr<RecoveryHandle>(new RecoveryHandle(mode, 0));
  handle->merged_ = std::move(outcome);
  handle->any_merged_ = true;
  return handle;
}

std::shared_ptr<RecoveryHandle> RecoveryHandle::Pending(RecoveryMode mode,
                                                        size_t shards) {
  return std::shared_ptr<RecoveryHandle>(new RecoveryHandle(mode, shards));
}

Result<RecoveryHandle::Outcome> RecoveryHandle::Await() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return pending_ == 0; });
  if (!status_.ok()) return status_;
  return merged_;
}

bool RecoveryHandle::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_ == 0;
}

bool RecoveryHandle::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !status_.ok();
}

size_t RecoveryHandle::shards_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

void RecoveryHandle::ShardDone(const Outcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  MergeLocked(outcome);
  if (pending_ > 0) --pending_;
  cv_.notify_all();
}

void RecoveryHandle::ShardFailed(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (status_.ok()) status_ = status;
  if (pending_ > 0) --pending_;
  cv_.notify_all();
}

void RecoveryHandle::MergeLocked(const Outcome& outcome) {
  if (!any_merged_) {
    merged_ = outcome;
    any_merged_ = true;
    return;
  }
  // Same shape as the sharded facade's historical merge: wall-clock times
  // and id-space maxima take the max (shards recover concurrently), counted
  // work sums.
  merged_.next_txn_id = std::max(merged_.next_txn_id, outcome.next_txn_id);
  merged_.winners += outcome.winners;
  merged_.losers += outcome.losers;
  merged_.checkpoint_used =
      std::max(merged_.checkpoint_used, outcome.checkpoint_used);
  merged_.threads_used = std::max(merged_.threads_used, outcome.threads_used);
  merged_.merged_forward_pass =
      merged_.merged_forward_pass || outcome.merged_forward_pass;
  merged_.analysis_ns = std::max(merged_.analysis_ns, outcome.analysis_ns);
  merged_.redo_ns = std::max(merged_.redo_ns, outcome.redo_ns);
  merged_.undo_ns = std::max(merged_.undo_ns, outcome.undo_ns);
  merged_.records_analyzed += outcome.records_analyzed;
  merged_.records_redone += outcome.records_redone;
  merged_.records_undone += outcome.records_undone;
  merged_.clusters_swept += outcome.clusters_swept;
  merged_.records_skipped += outcome.records_skipped;
  merged_.in_doubt_committed += outcome.in_doubt_committed;
  merged_.in_doubt_aborted += outcome.in_doubt_aborted;
}

// ---------------------------------------------------------------------------
// InstantRestart
// ---------------------------------------------------------------------------

InstantRestart::InstantRestart(const Options& options, SimulatedDisk* disk,
                               LogManager* log, BufferPool* pool, Stats* stats,
                               table::TableHeap* heap,
                               obs::Gauge* backlog_gauge)
    : options_(options),
      log_(log),
      pool_(pool),
      stats_(stats),
      heap_(heap),
      backlog_gauge_(backlog_gauge),
      recovery_(options_, disk, log, pool, stats, heap) {}

InstantRestart::~InstantRestart() {
  Cancel(Status::Aborted("instant restart torn down"));
}

Status InstantRestart::Start(const coord::Resolution* resolution,
                             std::shared_ptr<RecoveryHandle> handle,
                             TxnId* next_txn_id,
                             std::function<void()> on_complete) {
  handle_ = std::move(handle);
  on_complete_ = std::move(on_complete);

  // The restart plan, with redo collected but not applied: the only
  // restart work the open waits for.
  ARIESRH_ASSIGN_OR_RETURN(
      plan_, recovery_.BuildPlan(resolution,
                                 ForwardPassKind::kAnalysisCollectRedo));

  // Arm the lazy machinery before the engine opens: the redo index feeds
  // the pool's (and heap's) fetch path, the gate feeds the transaction
  // entry points.
  ondemand_ = std::make_unique<OnDemandRedo>(
      std::move(plan_.fwd.redo_plan), stats_,
      handle_ != nullptr ? handle_->redo_pages_cell() : nullptr);
  obs::MetricsRegistry* registry = stats_->registry();
  gate_.Arm(plan_.groups, registry != nullptr
                              ? registry->GetHistogram("ariesrh_gate_wait_ns")
                              : nullptr);
  if (handle_ != nullptr) {
    handle_->AddUndoBacklog(static_cast<int64_t>(plan_.groups.size()));
  }
  SetBacklogGauge();

  OnDemandRedo* ondemand = ondemand_.get();
  pool_->set_redo_resolve(
      [ondemand](PageId id, Page* page) { return ondemand->DrainPage(id, page); });
  if (heap_ != nullptr) {
    heap_->set_redo_resolve([ondemand](size_t bucket) {
      return ondemand->TakeBucket(table::kHeapPageBase +
                                  static_cast<PageId>(bucket));
    });
  }

  *next_txn_id = plan_.outcome.next_txn_id;

  // The analysis-time appends (in-doubt COMMITs, up-front ENDs) go stable
  // before the open, so a crash right after it re-resolves identically.
  ARIESRH_RETURN_IF_ERROR(log_->FlushAll());

  worker_ = std::thread([this] { BackgroundPass(); });
  return Status::OK();
}

void InstantRestart::BackgroundPass() {
  // Each completed group lifts the gate for every object it covered.
  Status status = recovery_.Undo(&plan_, [this](size_t g) -> Status {
    gate_.MarkResolved(g);
    if (handle_ != nullptr) handle_->AddUndoBacklog(-1);
    SetBacklogGauge();
    if (cancel_.load(std::memory_order_acquire)) {
      return Status::Aborted("instant restart cancelled");
    }
    return Status::OK();
  });
  if (status.ok()) status = DrainRemainingRedo();
  if (status.ok()) status = log_->FlushAll();
  Finish(std::move(status));
}

Status InstantRestart::DrainRemainingRedo() {
  const uint64_t drain_start = obs::MonotonicNanos();
  // Only what still has pending redo is touched: a heap bucket that none
  // has stays unloaded, as under kFull.
  for (PageId id : ondemand_->PendingPages()) {
    if (cancel_.load(std::memory_order_acquire)) {
      return Status::Aborted("instant restart cancelled");
    }
    if (id < table::kHeapPageBase) {
      // Fetching is enough: the pool's resolve hook drains the page and
      // marks it dirty with the drained suffix's first LSN.
      ARIESRH_RETURN_IF_ERROR(
          pool_->WithPage(id, [](Page*) { return kInvalidLsn; }));
    } else if (heap_ != nullptr) {
      ARIESRH_RETURN_IF_ERROR(heap_->Drain(id - table::kHeapPageBase));
    }
  }
  plan_.outcome.redo_ns = obs::MonotonicNanos() - drain_start;
  plan_.outcome.records_redone = ondemand_->records_applied();
  return Status::OK();
}

void InstantRestart::Finish(Status status) {
  std::function<void()> on_complete;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status_ = status;
    on_complete = std::move(on_complete_);
    done_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (!status.ok()) {
    // Wake every blocked transaction with the failure; the shard stays
    // half-recovered until SimulateCrash()+StartRecovery().
    gate_.Close(status);
    if (handle_ != nullptr) handle_->ShardFailed(status);
    return;
  }
  if (backlog_gauge_ != nullptr) backlog_gauge_->Set(0);
  if (on_complete) on_complete();
  if (handle_ != nullptr) handle_->ShardDone(plan_.outcome);
}

Status InstantRestart::WaitForObject(ObjectId ob) {
  if (done_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }
  return gate_.WaitForObject(ob);
}

Status InstantRestart::WaitForAll() {
  Status gate_status = gate_.WaitForAll();
  if (!gate_status.ok()) return gate_status;
  if (done_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }
  return Status::OK();
}

Status InstantRestart::Await() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_.load(std::memory_order_acquire); });
  return status_;
}

void InstantRestart::Cancel(const Status& reason) {
  cancel_.store(true, std::memory_order_release);
  gate_.Close(reason);
  if (worker_.joinable()) worker_.join();
}

void InstantRestart::SetBacklogGauge() {
  if (backlog_gauge_ != nullptr) {
    backlog_gauge_->Set(static_cast<int64_t>(gate_.unresolved_groups()));
  }
}

}  // namespace ariesrh
