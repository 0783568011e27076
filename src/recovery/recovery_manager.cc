#include "recovery/recovery_manager.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/undo_conventional.h"
#include "wal/log_record.h"

namespace ariesrh {

namespace {

// Observes `ns` into the named per-pass latency histogram, if a metrics
// registry is attached.
void ObservePass(Stats* stats, const char* name, uint64_t ns) {
  if (obs::MetricsRegistry* registry = stats->registry()) {
    registry->GetHistogram(name)->Observe(ns);
  }
}

}  // namespace

RecoveryManager::RecoveryManager(const Options& options, SimulatedDisk* disk,
                                 LogManager* log, BufferPool* pool,
                                 Stats* stats, table::TableHeap* heap,
                                 TestHook hook)
    : options_(options),
      disk_(disk),
      log_(log),
      pool_(pool),
      stats_(stats),
      heap_(heap),
      hook_(std::move(hook)) {}

Status RecoveryManager::TruncateTornTail(SimulatedDisk* disk) {
  std::string image;
  std::vector<uint32_t> ends;
  LogRecord rec;
  while (disk->stable_end_lsn() >= disk->first_retained_lsn()) {
    const Lsn last = disk->stable_end_lsn();
    image.clear();
    ends.clear();
    disk->ReadLogRun(last, last, &image, &ends);
    disk->CountLogRead(last, image.size());
    if (LogRecord::DecodeInto(image.data(), image.size(), &rec).ok() &&
        rec.lsn == last) {
      return Status::OK();
    }
    // Torn or misplaced record: drop it and keep probing backwards.
    ARIESRH_RETURN_IF_ERROR(disk->DropLastLogRecord());
  }
  return Status::OK();
}

std::string RecoveryManager::Outcome::ToString() const {
  std::ostringstream out;
  out << "recovery: " << winners << " winners, " << losers << " losers, "
      << threads_used << (threads_used == 1 ? " thread" : " threads");
  if (checkpoint_used != 0) {
    out << ", from checkpoint @" << checkpoint_used;
  }
  out << "\n  analysis: " << records_analyzed << " records in "
      << analysis_ns / 1000 << "us"
      << (merged_forward_pass ? " (merged with redo)" : "");
  out << "\n  redo:     " << records_redone << " applied";
  if (!merged_forward_pass) out << " in " << redo_ns / 1000 << "us";
  out << "\n  undo:     " << records_undone << " compensated in "
      << undo_ns / 1000 << "us (" << clusters_swept << " clusters, "
      << records_skipped << " records skipped)";
  if (in_doubt_committed + in_doubt_aborted > 0) {
    out << "\n  in-doubt: " << in_doubt_committed << " committed, "
        << in_doubt_aborted << " presumed-aborted (coordinator log)";
  }
  return out.str();
}

Result<Lsn> RecoveryManager::LocateCheckpoint(const Options& options,
                                              SimulatedDisk* disk,
                                              LogManager* log,
                                              CheckpointData* out) {
  // The history-rewriting baselines cannot start from a checkpoint: a
  // delegation *retroactively* edits records and chain heads that predate
  // the snapshot, so a checkpointed transaction table may be stale by the
  // time of the crash. (Yet another cost of physically rewriting history —
  // ARIES/RH has no such problem because the log is immutable.) They
  // recover from the log head instead.
  const bool can_use_checkpoint =
      options.delegation_mode == DelegationMode::kRH ||
      options.delegation_mode == DelegationMode::kDisabled;
  const Lsn ckpt_end_lsn = can_use_checkpoint ? disk->master_record() : 0;
  if (ckpt_end_lsn == 0 || ckpt_end_lsn > log->flushed_lsn()) {
    return static_cast<Lsn>(0);
  }
  ARIESRH_ASSIGN_OR_RETURN(LogRecord rec, log->Read(ckpt_end_lsn));
  if (rec.type != LogRecordType::kCkptEnd) {
    return Status::Corruption("master record does not point at CKPT_END");
  }
  ARIESRH_ASSIGN_OR_RETURN(*out,
                           CheckpointData::Deserialize(rec.ckpt_payload));
  return ckpt_end_lsn;
}

std::vector<UndoGroup> BuildUndoGroups(const ForwardPassResult& fwd,
                                       const Options& options) {
  const bool scopes = options.delegation_mode == DelegationMode::kRH;
  std::vector<ScopeUndoTarget> targets;
  std::unordered_map<TxnId, Lsn> heads;
  for (const auto& [txn, info] : fwd.txns) {
    if (!info.IsLoser()) continue;
    if (!scopes) {
      // Conventional ARIES: follow the loser's backward chain. Correct for
      // kDisabled (no delegation) and for the eager / lazy-rewrite baselines
      // (history has been physically rewritten by now, and fwd.txns carries
      // the chain heads the lazy surgery moved).
      heads[txn] = info.last_lsn;
      continue;
    }
    // Undo the *loser updates* — via loser scope clusters (Figure 8).
    for (const auto& [ob, entry] : info.ob_list) {
      for (const Scope& scope : entry.scopes) {
        targets.push_back(ScopeUndoTarget{txn, ob, scope});
        heads[txn] = info.last_lsn;
      }
    }
  }
  std::vector<UndoGroup> groups;
  if (heads.empty()) return groups;
  if (!scopes || options.undo_strategy == UndoStrategy::kFullScan) {
    // Chain undo is a single global max-LSN walk, and the full-scan
    // ablation a single sequential scan of every record: one group each.
    groups.push_back(UndoGroup{std::move(targets), std::move(heads)});
    return groups;
  }
  for (std::vector<ScopeUndoTarget>& cluster : PartitionUndoClusters(targets)) {
    UndoGroup& group = groups.emplace_back();
    for (const ScopeUndoTarget& target : cluster) {
      group.heads[target.responsible] = heads.at(target.responsible);
    }
    group.targets = std::move(cluster);
  }
  return groups;
}

Status UndoGroups(const Options& options, const ForwardPassResult& fwd,
                  std::vector<UndoGroup>* groups, LogManager* log,
                  Stats* stats, UndoSink* sink,
                  const std::function<Status(size_t)>& on_group_done,
                  uint64_t* records_skipped) {
  // A resolved group's losers are rolled back: end them, then report it.
  auto group_done = [&](size_t g) -> Status {
    for (const auto& [txn, head] : (*groups)[g].heads) sink->End(txn, head);
    return on_group_done ? on_group_done(g) : Status::OK();
  };
  const bool chains = options.delegation_mode != DelegationMode::kRH;
  if (!chains && options.undo_strategy != UndoStrategy::kFullScan) {
    return SweepLoserClusters(groups, fwd.compensated, fwd.scan_end, log,
                              stats, sink, group_done, records_skipped);
  }
  for (size_t g = 0; g < groups->size(); ++g) {
    UndoGroup& group = (*groups)[g];
    ARIESRH_RETURN_IF_ERROR(
        chains ? ChainUndo(log, stats, sink, &group.heads)
               : FullScanUndo(group.targets, fwd.compensated, fwd.scan_end,
                              log, stats, sink, &group.heads));
    ARIESRH_RETURN_IF_ERROR(group_done(g));
  }
  return Status::OK();
}

Result<RecoveryManager::Plan> RecoveryManager::BuildPlan(
    const coord::Resolution* resolution, ForwardPassKind kind) {
  Plan plan;
  Outcome& outcome = plan.outcome;
  CheckpointData ckpt;
  Lsn ckpt_end_lsn = 0;
  ARIESRH_ASSIGN_OR_RETURN(ckpt_end_lsn,
                           LocateCheckpoint(options_, disk_, log_, &ckpt));
  outcome.checkpoint_used = ckpt_end_lsn;
  outcome.threads_used =
      static_cast<uint32_t>(std::max<size_t>(1, options_.recovery_threads));
  outcome.merged_forward_pass = kind == ForwardPassKind::kMerged;

  // Forward work: rebuild the transaction table and the delegation state,
  // and repeat history (inline) or collect the redo plan.
  const uint64_t start = obs::MonotonicNanos();
  ForwardPassOptions opts;
  opts.kind = kind;
  opts.hook = &hook_;
  opts.resolution = resolution;
  opts.table = heap_;
  ARIESRH_ASSIGN_OR_RETURN(
      plan.fwd, ForwardPass(options_.delegation_mode, log_, pool_, stats_,
                            ckpt_end_lsn != 0 ? &ckpt : nullptr, ckpt_end_lsn,
                            opts));
  outcome.analysis_ns = obs::MonotonicNanos() - start;
  outcome.records_analyzed = plan.fwd.records_scanned;
  outcome.records_redone = plan.fwd.records_redone;
  outcome.next_txn_id = plan.fwd.max_txn_id + 1;
  ObservePass(stats_, "ariesrh_recovery_analysis_ns", outcome.analysis_ns);

  // Resolve in-doubt (prepared) transactions before undo; a committed one
  // gets the COMMIT record its crash interrupted.
  outcome.in_doubt_committed = ResolveInDoubt(
      &plan.fwd, resolution, [this](TxnId txn, TxnAnalysis* info) {
        info->last_lsn =
            log_->Append(LogRecord::MakeCommit(txn, info->last_lsn));
      });

  plan.groups = BuildUndoGroups(plan.fwd, options_);
  outcome.clusters_swept = plan.groups.size();

  // Every transaction analysis alone resolves gets its END record now, so a
  // crash during a later run does not reconsider it: winners, and losers
  // with nothing to undo. Grouped losers end when their group's sweep does.
  std::unordered_set<TxnId> grouped;
  for (const UndoGroup& group : plan.groups) {
    for (const auto& [txn, head] : group.heads) grouped.insert(txn);
  }
  for (const auto& [txn, info] : plan.fwd.txns) {
    if (info.committed) {
      ++outcome.winners;
      if (!info.ended) log_->Append(LogRecord::MakeEnd(txn, info.last_lsn));
    } else if (!info.ended) {
      ++outcome.losers;
      if (info.InDoubt()) ++outcome.in_doubt_aborted;  // presumed abort
      if (!grouped.contains(txn)) {
        log_->Append(LogRecord::MakeEnd(txn, info.last_lsn));
      }
    }
  }
  return plan;
}

Status RecoveryManager::Undo(
    Plan* plan, const std::function<Status(size_t)>& on_group_done) {
  ++stats_->recovery_passes;
  obs::Histogram* pass_ns = nullptr;
  if (obs::MetricsRegistry* registry = stats_->registry()) {
    pass_ns = registry->GetHistogram("ariesrh_recovery_pass_ns");
  }
  obs::ScopedLatencyTimer pass_timer(pass_ns);
  obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassBegin,
            static_cast<uint64_t>(obs::RecoveryPassKind::kUndo), kFirstLsn,
            plan->fwd.scan_end);
  const uint64_t examined_before = stats_->recovery_backward_examined;
  const uint64_t undo_start = obs::MonotonicNanos();

  LoggingUndoSink sink(log_, pool_, stats_, heap_, &hook_);
  Outcome& outcome = plan->outcome;
  const Status status =
      UndoGroups(options_, plan->fwd, &plan->groups, log_, stats_, &sink,
                 on_group_done, &outcome.records_skipped);

  outcome.undo_ns = obs::MonotonicNanos() - undo_start;
  // Counted by this pass itself: the shard's Stats cells also count its
  // foreground aborts.
  outcome.records_undone = sink.clrs_written();
  ObservePass(stats_, "ariesrh_recovery_undo_ns", outcome.undo_ns);
  obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassEnd,
            static_cast<uint64_t>(obs::RecoveryPassKind::kUndo),
            stats_->recovery_backward_examined - examined_before,
            outcome.records_undone);
  return status;
}

Result<RecoveryManager::Outcome> RecoveryManager::Recover(
    const coord::Resolution* resolution) {
  const size_t threads = std::max<size_t>(1, options_.recovery_threads);

  // One thread repeats history inside the paper's single merged sweep; more
  // threads collect the redo plan there (analysis is inherently sequential —
  // scope transfers depend on log order) and replay it page-partitioned.
  ARIESRH_ASSIGN_OR_RETURN(
      Plan plan,
      BuildPlan(resolution,
                threads > 1 ? ForwardPassKind::kAnalysisCollectRedo
                            : ForwardPassKind::kMerged));
  if (threads > 1) {
    const RedoPlan& redo_plan = plan.fwd.redo_plan;
    ++stats_->recovery_passes;
    obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassBegin,
              static_cast<uint64_t>(obs::RecoveryPassKind::kRedo),
              redo_plan.records, threads);
    const uint64_t redo_start = obs::MonotonicNanos();
    uint64_t applied = 0;
    Status redo_status = PartitionedRedo(redo_plan, threads, pool_, stats_,
                                         &hook_, &applied, heap_);
    plan.outcome.redo_ns = obs::MonotonicNanos() - redo_start;
    plan.outcome.records_redone = applied;
    ObservePass(stats_, "ariesrh_recovery_redo_ns", plan.outcome.redo_ns);
    obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassEnd,
              static_cast<uint64_t>(obs::RecoveryPassKind::kRedo),
              redo_plan.records, applied);
    ARIESRH_RETURN_IF_ERROR(redo_status);
  }

  ARIESRH_RETURN_IF_ERROR(Undo(&plan));
  ARIESRH_RETURN_IF_ERROR(log_->FlushAll());
  return plan.outcome;
}

}  // namespace ariesrh
