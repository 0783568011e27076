#include "recovery/undo_rh.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "obs/trace.h"

namespace ariesrh {

namespace {

// LsrScopes ordering: largest right end first (the sweep consumes scopes in
// reverse log order). Ties are broken arbitrarily but deterministically.
struct ByRightEndDesc {
  bool operator()(const ScopeUndoTarget& a, const ScopeUndoTarget& b) const {
    if (a.scope.last != b.scope.last) return a.scope.last < b.scope.last;
    if (a.scope.first != b.scope.first) return a.scope.first < b.scope.first;
    if (a.object != b.object) return a.object < b.object;
    return a.responsible < b.responsible;
  }
};

}  // namespace

uint64_t CreditClusterSkips(const std::vector<ScopeUndoTarget>& targets,
                            Lsn sweep_from, Stats* stats) {
  // Clusters are the maximal runs of overlapping scopes; walk them newest
  // first, exactly as the sweep meets them.
  std::vector<std::pair<Lsn, Lsn>> scopes;  // (last, first)
  scopes.reserve(targets.size());
  for (const ScopeUndoTarget& target : targets) {
    scopes.emplace_back(target.scope.last, target.scope.first);
  }
  std::sort(scopes.rbegin(), scopes.rend());
  uint64_t skipped = 0;
  Lsn above = sweep_from;   // newest record not yet accounted for
  Lsn floor = kInvalidLsn;  // oldest record of the cluster above (none yet)
  for (const auto& [last, first] : scopes) {
    if (last >= floor) {  // overlaps the cluster above: the same cluster
      floor = std::min(floor, first);
      continue;
    }
    // A new cluster starts at `last`; everything above it stays unread.
    if (floor != kInvalidLsn) above = floor - 1;
    if (above > last) {
      skipped += above - last;
      obs::Emit(stats->trace(), obs::TraceEventType::kUndoClusterSkip, above,
                last, above - last);
    }
    floor = first;
  }
  stats->recovery_backward_skipped += skipped;
  return skipped;
}

Status SweepLoserClusters(const std::vector<ScopeUndoTarget>& targets,
                          const std::unordered_set<Lsn>& compensated,
                          LogManager* log, Stats* stats, UndoSink* sink,
                          std::unordered_map<TxnId, Lsn>* heads) {
  if (targets.empty()) return Status::OK();

  // LsrScopes: constructed once, depleted in reverse scope order — a
  // priority queue sorted by scope right end, largest first (Section 3.6.2).
  std::priority_queue<ScopeUndoTarget, std::vector<ScopeUndoTarget>,
                      ByRightEndDesc>
      lsr_scopes(targets.begin(), targets.end());

  // Cluster: the maximal set of overlapping scopes currently being swept,
  // searched by invoking transaction on each update record. The cursor
  // moves towards smaller LSNs, so the scope whose left end is hit *first*
  // is the one with the LARGEST `first` — a max-heap on scope left ends
  // drives retirement.
  std::unordered_multimap<TxnId, ScopeUndoTarget> cluster;
  auto left_end_before = [](const ScopeUndoTarget& a,
                            const ScopeUndoTarget& b) {
    return a.scope.first < b.scope.first;
  };
  std::priority_queue<ScopeUndoTarget, std::vector<ScopeUndoTarget>,
                      decltype(left_end_before)>
      cluster_starts(left_end_before);

  Lsn k = lsr_scopes.top().scope.last;
  while (true) {
    // (alpha-1) Admit every loser scope whose right end is the current
    // record into the cluster.
    while (!lsr_scopes.empty() && lsr_scopes.top().scope.last == k) {
      ScopeUndoTarget target = lsr_scopes.top();
      lsr_scopes.pop();
      cluster.emplace(target.scope.invoker, target);
      cluster_starts.push(target);
    }
    assert(!cluster.empty());

    // (alpha-2) Examine the record; undo it if it is a loser update that has
    // not already been compensated.
    ++stats->recovery_backward_examined;
    ARIESRH_ASSIGN_OR_RETURN(LogRecord rec, log->Read(k));
    if ((rec.type == LogRecordType::kUpdate || IsTableWrite(rec.type)) &&
        !compensated.contains(rec.lsn)) {
      auto [begin, end] = cluster.equal_range(rec.txn_id);
      for (auto it = begin; it != end; ++it) {
        const ScopeUndoTarget& target = it->second;
        if (target.object == rec.object &&
            target.scope.Covers(rec.txn_id, rec.lsn)) {
          ARIESRH_RETURN_IF_ERROR(
              sink->Undo(rec, target.responsible, heads));
          break;  // an update is covered by at most one scope
        }
      }
    }

    // (alpha-3) Retire scopes that begin at this record: fully processed.
    while (!cluster_starts.empty() &&
           cluster_starts.top().scope.first == k) {
      const ScopeUndoTarget retired = cluster_starts.top();
      cluster_starts.pop();
      auto [begin, end] = cluster.equal_range(retired.scope.invoker);
      for (auto it = begin; it != end; ++it) {
        if (it->second.object == retired.object &&
            it->second.scope == retired.scope) {
          cluster.erase(it);
          break;
        }
      }
    }

    // (alpha-4 / beta) Step left, or jump to the next cluster when the
    // current one is exhausted.
    if (cluster.empty()) {
      if (lsr_scopes.empty()) break;
      const Lsn next = lsr_scopes.top().scope.last;
      assert(next < k && "sweep must be monotonically decreasing");
      k = next;
    } else {
      assert(k > 0);
      --k;
    }
  }
  return Status::OK();
}

Status ScopeSweepUndo(const std::vector<ScopeUndoTarget>& targets,
                      const std::unordered_set<Lsn>& compensated,
                      Lsn sweep_from, LogManager* log, Stats* stats,
                      UndoSink* sink, std::unordered_map<TxnId, Lsn>* heads) {
  CreditClusterSkips(targets, sweep_from, stats);
  return SweepLoserClusters(targets, compensated, log, stats, sink, heads);
}

Status FullScanUndo(const std::vector<ScopeUndoTarget>& targets,
                    const std::unordered_set<Lsn>& compensated,
                    Lsn sweep_from, LogManager* log, Stats* stats,
                    UndoSink* sink, std::unordered_map<TxnId, Lsn>* heads) {
  if (targets.empty()) return Status::OK();

  std::unordered_multimap<TxnId, const ScopeUndoTarget*> by_invoker;
  Lsn stop = kInvalidLsn;
  for (const ScopeUndoTarget& target : targets) {
    by_invoker.emplace(target.scope.invoker, &target);
    stop = std::min(stop, target.scope.first);
  }

  // The rejected alternative: march over EVERY record, newest first.
  for (Lsn k = sweep_from; k >= stop; --k) {
    ++stats->recovery_backward_examined;
    ARIESRH_ASSIGN_OR_RETURN(LogRecord rec, log->Read(k));
    if ((rec.type != LogRecordType::kUpdate && !IsTableWrite(rec.type)) ||
        compensated.contains(rec.lsn)) {
      continue;
    }
    auto [begin, end] = by_invoker.equal_range(rec.txn_id);
    for (auto it = begin; it != end; ++it) {
      const ScopeUndoTarget& target = *it->second;
      if (target.object == rec.object &&
          target.scope.Covers(rec.txn_id, rec.lsn)) {
        ARIESRH_RETURN_IF_ERROR(sink->Undo(rec, target.responsible, heads));
        break;
      }
    }
  }
  return Status::OK();
}

std::vector<std::vector<ScopeUndoTarget>> PartitionUndoClusters(
    const std::vector<ScopeUndoTarget>& targets) {
  std::vector<std::vector<ScopeUndoTarget>> groups;
  if (targets.empty()) return groups;

  const size_t n = targets.size();
  // Union-find over target indices.
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };

  // (1) LSN-interval overlap: sort indices by scope start and merge runs
  // whose intervals chain into one covering cluster.
  std::vector<size_t> by_start(n);
  for (size_t i = 0; i < n; ++i) by_start[i] = i;
  std::sort(by_start.begin(), by_start.end(), [&](size_t a, size_t b) {
    if (targets[a].scope.first != targets[b].scope.first) {
      return targets[a].scope.first < targets[b].scope.first;
    }
    return targets[a].scope.last < targets[b].scope.last;
  });
  size_t run_head = by_start[0];
  Lsn run_end = targets[run_head].scope.last;
  for (size_t j = 1; j < n; ++j) {
    const size_t i = by_start[j];
    if (targets[i].scope.first <= run_end) {
      unite(run_head, i);
      run_end = std::max(run_end, targets[i].scope.last);
    } else {
      run_head = i;
      run_end = targets[i].scope.last;
    }
  }

  // (2) Shared responsible transaction; (3) shared object.
  std::unordered_map<TxnId, size_t> by_responsible;
  std::unordered_map<ObjectId, size_t> by_object;
  for (size_t i = 0; i < n; ++i) {
    auto [rit, rnew] = by_responsible.try_emplace(targets[i].responsible, i);
    if (!rnew) unite(rit->second, i);
    auto [oit, onew] = by_object.try_emplace(targets[i].object, i);
    if (!onew) unite(oit->second, i);
  }

  // Materialize groups. Within a group, keep targets in the serial-sweep
  // admission order (largest scope end first) so each group's sweep is
  // byte-for-byte the serial algorithm restricted to its scopes; order
  // groups by their largest scope end, descending, for determinism.
  std::unordered_map<size_t, size_t> root_to_group;
  for (size_t j = 0; j < n; ++j) {
    const size_t i = by_start[n - 1 - j];  // descending scope start
    const size_t root = find(i);
    auto [it, fresh] = root_to_group.try_emplace(root, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(targets[i]);
  }
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<ScopeUndoTarget>& a,
               const std::vector<ScopeUndoTarget>& b) {
              return a.front().scope.last > b.front().scope.last;
            });
  return groups;
}

}  // namespace ariesrh
