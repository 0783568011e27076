#include "reenact/ownership.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "recovery/checkpoint.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "wal/log_record.h"

namespace ariesrh::reenact {

bool TransferHop::Mentions(ObjectId ob) const {
  return std::find(objects.begin(), objects.end(), ob) != objects.end();
}

std::string TransferHop::ToString() const {
  std::ostringstream os;
  os << "shard" << shard << " lsn=" << lsn << " txn " << from << " -> " << to
     << " (" << objects.size() << (objects.size() == 1 ? " object" : " objects")
     << ")";
  if (!ranges.empty()) os << " [op-granularity]";
  if (csn != 0) os << " csn=" << csn;
  if (voided) {
    os << " VOIDED (round never committed)";
  } else if (!applied) {
    os << " (reflected in checkpoint snapshot)";
  }
  return os.str();
}

std::string OwnedSpan::ToString() const {
  std::ostringstream os;
  os << "object " << object << " " << scope.ToString() << " -> txn " << owner
     << (owner_committed ? " (committed)"
                         : owner_terminated ? " (rolled back)" : " (open)");
  if (resolved_at != kInvalidLsn) os << " at lsn " << resolved_at;
  return os.str();
}

const OwnedSpan* OwnershipIndex::Resolve(ObjectId ob, TxnId invoker,
                                         Lsn lsn) const {
  // Scope coverage is disjoint across Ob_Lists (paper Section 3.5), so the
  // first match is the only match.
  for (const OwnedSpan& span : spans) {
    if (span.object == ob && span.scope.Covers(invoker, lsn)) return &span;
  }
  return nullptr;
}

void OwnershipCollector::OnRecord(const LogRecord& rec, bool delegate_applied,
                                  bool delegate_voided) {
  if (rec.type != LogRecordType::kDelegate) return;
  TransferHop hop;
  hop.lsn = rec.lsn;
  hop.from = rec.tor;
  hop.to = rec.tee;
  hop.csn = rec.csn;
  hop.applied = delegate_applied;
  hop.voided = delegate_voided;
  hop.objects = rec.objects;
  hop.ranges = rec.ranges;
  hops_.push_back(std::move(hop));
}

void OwnershipCollector::OnResolve(const LogRecord& rec,
                                   const TxnAnalysis& info) {
  // The terminating record is the last instant the Ob_List is observable:
  // freeze every scope the transaction answered for.
  const bool committed =
      rec.type == LogRecordType::kCommit || info.committed;
  for (const auto& [ob, entry] : info.ob_list) {
    for (const Scope& scope : entry.scopes) {
      spans_.push_back({ob, scope, rec.txn_id, committed,
                        /*owner_terminated=*/true, rec.lsn});
    }
  }
}

OwnershipIndex OwnershipCollector::Finish(ForwardPassResult* fwd,
                                          const coord::Resolution* resolution,
                                          Lsn cut) {
  OwnershipIndex idx;
  idx.mode = mode_;
  idx.cut = cut;
  idx.spans = std::move(spans_);
  idx.hops = std::move(hops_);

  // In-doubt resolution, exactly as restart does it: a committed one's
  // spans freeze as committed before its Ob_List drops, so a subsequent undo
  // step never targets it.
  ResolveInDoubt(fwd, resolution, [&idx](TxnId txn, TxnAnalysis* info) {
    for (const auto& [ob, entry] : info->ob_list) {
      for (const Scope& scope : entry.scopes) {
        idx.spans.push_back({ob, scope, txn, /*owner_committed=*/true,
                             /*owner_terminated=*/true, kInvalidLsn});
      }
    }
  });

  // Transactions still open at the cut: snapshot their live Ob_Lists. Were
  // the cut a crash point, these are exactly the loser scopes undo sweeps.
  for (const auto& [txn, info] : fwd->txns) {
    for (const auto& [ob, entry] : info.ob_list) {
      for (const Scope& scope : entry.scopes) {
        idx.spans.push_back({ob, scope, txn, info.committed,
                             /*owner_terminated=*/false, kInvalidLsn});
      }
    }
  }

  idx.compensated = fwd->compensated;
  idx.txns = fwd->txns;
  idx.max_txn_id = fwd->max_txn_id;
  return idx;
}

Result<OwnershipIndex> BuildOwnershipIndex(
    DelegationMode mode, const LogManager& log, Lsn cut,
    const coord::Resolution* resolution) {
  if (mode != DelegationMode::kRH && mode != DelegationMode::kDisabled) {
    return Status::NotSupported(
        "ownership reconstruction needs an append-only log (kRH or "
        "kDisabled); the rewriting baselines carry post-rewrite attribution "
        "in the records themselves");
  }
  // The analysis-only fold never mutates the log under these modes (only
  // the kLazyRewrite baseline rewrites during analysis, and it is rejected
  // above); the cast merely satisfies ForwardPass's general signature.
  LogManager* mlog = const_cast<LogManager*>(&log);
  const Lsn hi = std::min(cut, log.flushed_lsn());
  const Lsn lo = log.first_retained_lsn();

  // When the log head has been archived, anchor at the most recent
  // completed checkpoint at or below the cut — what restart itself would
  // use. Archive retention guarantees the master checkpoint's window is
  // fully retained, so scanning the retained range finds it.
  CheckpointData ckpt;
  Lsn ckpt_end = 0;
  if (lo > kFirstLsn) {
    LogCursor cursor(log, lo, hi);
    while (cursor.Next()) {
      if (cursor.record().type != LogRecordType::kCkptEnd) continue;
      ARIESRH_ASSIGN_OR_RETURN(
          CheckpointData data,
          CheckpointData::Deserialize(cursor.record().ckpt_payload));
      ckpt = std::move(data);
      ckpt_end = cursor.lsn();
    }
    ARIESRH_RETURN_IF_ERROR(cursor.status());
    if (ckpt_end == 0) {
      return Status::OutOfRange(
          "log prefix before LSN " + std::to_string(lo) +
          " is archived and no completed checkpoint lies at or below LSN " +
          std::to_string(hi) + "; earliest resolvable cut requires one");
    }
  }

  Stats stats;
  SimulatedDisk scratch_disk(&stats);
  const auto no_wal = [](Lsn) { return Status::OK(); };
  BufferPool scratch_pool(&scratch_disk, /*capacity=*/8, no_wal, &stats);
  table::TableHeap scratch_heap(&scratch_disk, &stats, no_wal);

  OwnershipCollector collector(mode);
  AnalysisHooks hooks;
  hooks.on_record = [&collector](const LogRecord& rec, bool applied,
                                 bool voided) {
    collector.OnRecord(rec, applied, voided);
  };
  hooks.on_resolve = [&collector](const LogRecord& rec,
                                  const TxnAnalysis& info) {
    collector.OnResolve(rec, info);
  };

  ForwardPassOptions opts;
  opts.kind = ForwardPassKind::kAnalysisOnly;
  opts.resolution = resolution;
  opts.heap = &scratch_heap;
  opts.scan_cut = hi;
  opts.hooks = &hooks;
  ARIESRH_ASSIGN_OR_RETURN(
      ForwardPassResult fwd,
      ForwardPass(mode, mlog, &scratch_pool, &stats,
                  ckpt_end != 0 ? &ckpt : nullptr, ckpt_end, opts));
  return collector.Finish(&fwd, resolution, hi);
}

}  // namespace ariesrh::reenact
