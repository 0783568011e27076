#include "core/options.h"

#include "table/heap_page.h"
#include "table/table_heap.h"

namespace ariesrh {

const char* DelegationModeName(DelegationMode mode) {
  switch (mode) {
    case DelegationMode::kDisabled:
      return "disabled";
    case DelegationMode::kRH:
      return "rh";
    case DelegationMode::kEager:
      return "eager";
    case DelegationMode::kLazyRewrite:
      return "lazy-rewrite";
  }
  return "unknown";
}

const char* UndoStrategyName(UndoStrategy strategy) {
  switch (strategy) {
    case UndoStrategy::kScopeClusters:
      return "scope-clusters";
    case UndoStrategy::kFullScan:
      return "full-scan";
  }
  return "unknown";
}

const char* RecoveryModeName(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kFull:
      return "full";
    case RecoveryMode::kInstant:
      return "instant";
  }
  return "unknown";
}

const char* GroupCommitPolicyName(GroupCommitPolicy policy) {
  switch (policy) {
    case GroupCommitPolicy::kFixed:
      return "fixed";
    case GroupCommitPolicy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

Status Options::Validate() const {
  if (buffer_pool_pages == 0) {
    return Status::InvalidArgument(
        "buffer_pool_pages must be at least 1");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument(
        "num_shards must be at least 1 (1 = the classic unsharded engine)");
  }
  if (num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards exceeds kMaxShards (" + std::to_string(kMaxShards) +
        "); every shard is a full engine instance");
  }
  if (num_shards > 1 && delegation_mode != DelegationMode::kRH &&
      delegation_mode != DelegationMode::kDisabled) {
    return Status::InvalidArgument(
        "num_shards > 1 requires checkpoint-based recovery (delegation_mode "
        "rh or disabled); the rewriting baselines recover from the log head "
        "and cannot participate in coordinated restart");
  }
  if (recovery_threads == 0) {
    return Status::InvalidArgument(
        "recovery_threads must be at least 1 (1 = serial recovery)");
  }
  // The scope-cluster machinery only exists under kRH: the rewriting
  // baselines resolve delegation by editing chains and then run
  // conventional chain undo, so an explicit full-scan/cluster choice is
  // meaningless there and almost certainly a configuration mistake.
  if (group_commit && !force_commits) {
    return Status::InvalidArgument(
        "group_commit makes every commit durable before it returns; "
        "force_commits=false defers durability — pick one");
  }
  if (group_commit_window_us > 0 && !group_commit) {
    return Status::InvalidArgument(
        "group_commit_window_us only applies with group_commit enabled");
  }
  if (group_commit_policy == GroupCommitPolicy::kAdaptive) {
    if (!group_commit) {
      return Status::InvalidArgument(
          "group_commit_policy adaptive only applies with group_commit "
          "enabled");
    }
    if (group_commit_window_us > 0) {
      return Status::InvalidArgument(
          "group_commit_window_us is the fixed-window knob; the adaptive "
          "policy forces as soon as the device is free");
    }
  }
  if (early_lock_release && !force_commits) {
    return Status::InvalidArgument(
        "early_lock_release shortens the wait for the commit force; with "
        "force_commits=false there is no durability wait to release early "
        "into");
  }
  if ((delegation_mode == DelegationMode::kEager ||
       delegation_mode == DelegationMode::kLazyRewrite) &&
      undo_strategy == UndoStrategy::kFullScan) {
    return Status::InvalidArgument(
        "undo_strategy full-scan only applies to delegation_mode rh; the "
        "rewriting baselines always use conventional chain undo");
  }
  if (recovery_mode == RecoveryMode::kInstant &&
      delegation_mode != DelegationMode::kRH) {
    return Status::InvalidArgument(
        "recovery_mode instant requires delegation_mode rh: the scope index "
        "is what tells an open engine which objects a pending loser cluster "
        "still covers");
  }
  if (recovery_mode == RecoveryMode::kInstant &&
      undo_strategy != UndoStrategy::kScopeClusters) {
    return Status::InvalidArgument(
        "recovery_mode instant requires undo_strategy scope-clusters; the "
        "full-scan ablation has no per-cluster resolution to unblock "
        "transactions incrementally");
  }
  const bool checkpoint_daemon =
      checkpoint_interval_records > 0 || checkpoint_interval_ms > 0;
  if (checkpoint_daemon && delegation_mode != DelegationMode::kRH &&
      delegation_mode != DelegationMode::kDisabled) {
    return Status::InvalidArgument(
        "the checkpoint daemon requires checkpoint-based recovery "
        "(delegation_mode rh or disabled); the rewriting baselines recover "
        "from the log head");
  }
  if (auto_archive && !checkpoint_daemon) {
    return Status::InvalidArgument(
        "auto_archive rides on the checkpoint daemon; set "
        "checkpoint_interval_records or checkpoint_interval_ms");
  }
  if (table_max_value_bytes == 0) {
    return Status::InvalidArgument(
        "table_max_value_bytes must be at least 1");
  }
  if (table_max_value_bytes >
      table::HeapPage::kPayloadCapacity - table::kMaxKeyBytes) {
    return Status::InvalidArgument(
        "table_max_value_bytes exceeds what a heap page can hold alongside "
        "a maximum-length key (" +
        std::to_string(table::HeapPage::kPayloadCapacity -
                       table::kMaxKeyBytes) +
        " bytes)");
  }
  return Status::OK();
}

}  // namespace ariesrh
