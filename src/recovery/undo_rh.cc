#include "recovery/undo_rh.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "obs/trace.h"

namespace ariesrh {

namespace {

// One loser scope of the stream, with the group it belongs to.
struct StreamScope {
  const ScopeUndoTarget* target;
  size_t group;
};

// LsrScopes ordering: largest right end first (the sweep consumes scopes in
// reverse log order). Ties are broken arbitrarily but deterministically.
bool AdmittedBefore(const StreamScope& a, const StreamScope& b) {
  const ScopeUndoTarget& x = *a.target;
  const ScopeUndoTarget& y = *b.target;
  if (x.scope.last != y.scope.last) return x.scope.last > y.scope.last;
  if (x.scope.first != y.scope.first) return x.scope.first > y.scope.first;
  if (x.object != y.object) return x.object > y.object;
  return x.responsible > y.responsible;
}

}  // namespace

Status SweepLoserClusters(std::vector<UndoGroup>* groups,
                          const std::unordered_set<Lsn>& compensated,
                          Lsn sweep_from, LogManager* log, Stats* stats,
                          UndoSink* sink,
                          const std::function<Status(size_t)>& on_group_done,
                          uint64_t* records_skipped) {
  // LsrScopes: every group's scopes, constructed once and depleted in
  // reverse scope order (Section 3.6.2). `open[g]` counts group g's scopes
  // not yet retired.
  std::vector<StreamScope> lsr_scopes;
  std::vector<size_t> open(groups->size(), 0);
  Lsn oldest = kInvalidLsn;
  for (size_t g = 0; g < groups->size(); ++g) {
    for (const ScopeUndoTarget& target : (*groups)[g].targets) {
      lsr_scopes.push_back(StreamScope{&target, g});
      ++open[g];
      oldest = std::min(oldest, target.scope.first);
    }
  }
  if (lsr_scopes.empty()) return Status::OK();
  std::sort(lsr_scopes.begin(), lsr_scopes.end(), AdmittedBefore);

  // Cluster: the maximal set of overlapping scopes currently being swept,
  // searched by invoking transaction on each update record. The cursor
  // moves towards smaller LSNs, so the scope whose left end is hit *first*
  // is the one with the LARGEST `first` — a max-heap on scope left ends
  // drives retirement.
  std::unordered_multimap<TxnId, StreamScope> cluster;
  auto left_end_before = [](const StreamScope& a, const StreamScope& b) {
    return a.target->scope.first < b.target->scope.first;
  };
  std::priority_queue<StreamScope, std::vector<StreamScope>,
                      decltype(left_end_before)>
      cluster_starts(left_end_before);

  Lsn k = lsr_scopes.front().target->scope.last;
  const Lsn top = std::max(sweep_from, k);
  LogCursor cursor(*log, oldest, top, LogCursor::Direction::kBackward);
  uint64_t skipped = 0;
  // (beta) Moves the cursor from `above`, the newest record not yet passed,
  // down to the next cluster's first record `next`: the records between are
  // read through when that is cheaper than a seek, sought over otherwise.
  auto pass_gap = [&](Lsn above, Lsn next) -> Status {
    if (above <= next) return Status::OK();
    const uint64_t read_through = cursor.SkipTo(next);
    if (!cursor.status().ok()) return cursor.status();
    if (read_through > 0) {
      stats->recovery_backward_read_through += read_through;
      return Status::OK();
    }
    skipped += above - next;
    stats->recovery_backward_skipped += above - next;
    obs::Emit(stats->trace(), obs::TraceEventType::kUndoClusterSkip, above,
              next, above - next);
    return Status::OK();
  };

  Status status = pass_gap(top, k);
  size_t admitted = 0;
  while (status.ok()) {
    // (alpha-1) Admit every loser scope whose right end is the current
    // record into the cluster.
    while (admitted < lsr_scopes.size() &&
           lsr_scopes[admitted].target->scope.last == k) {
      const StreamScope& scope = lsr_scopes[admitted++];
      cluster.emplace(scope.target->scope.invoker, scope);
      cluster_starts.push(scope);
    }
    assert(!cluster.empty());

    // (alpha-2) Examine the record; undo it if it is a loser update that has
    // not already been compensated.
    if (!cursor.Next()) {
      status = cursor.status();
      break;
    }
    assert(cursor.lsn() == k && "the sweep visits each record once, in order");
    ++stats->recovery_backward_examined;
    const LogRecord& rec = cursor.record();
    if ((rec.type == LogRecordType::kUpdate || IsTableWrite(rec.type)) &&
        !compensated.contains(rec.lsn)) {
      auto [begin, end] = cluster.equal_range(rec.txn_id);
      for (auto it = begin; it != end; ++it) {
        const ScopeUndoTarget& target = *it->second.target;
        if (target.object == rec.object &&
            target.scope.Covers(rec.txn_id, rec.lsn)) {
          status = sink->Undo(rec, target.responsible,
                              &(*groups)[it->second.group].heads);
          break;  // an update is covered by at most one scope
        }
      }
      if (!status.ok()) break;
    }

    // (alpha-3) Retire scopes that begin at this record: fully processed. A
    // group whose last scope retires is resolved.
    while (status.ok() && !cluster_starts.empty() &&
           cluster_starts.top().target->scope.first == k) {
      const StreamScope retired = cluster_starts.top();
      cluster_starts.pop();
      auto [begin, end] = cluster.equal_range(retired.target->scope.invoker);
      for (auto it = begin; it != end; ++it) {
        if (it->second.target == retired.target) {
          cluster.erase(it);
          break;
        }
      }
      if (--open[retired.group] == 0 && on_group_done) {
        status = on_group_done(retired.group);
      }
    }

    // (alpha-4 / beta) Step left, or move on to the next cluster when the
    // current one is exhausted.
    if (!status.ok()) break;
    if (cluster.empty()) {
      if (admitted == lsr_scopes.size()) break;
      const Lsn next = lsr_scopes[admitted].target->scope.last;
      assert(next < k && "sweep must be monotonically decreasing");
      status = pass_gap(k - 1, next);
      k = next;
    } else {
      assert(k > 0);
      --k;
    }
  }
  if (records_skipped != nullptr) *records_skipped = skipped;
  return status;
}

Status ScopeSweepUndo(std::vector<ScopeUndoTarget> targets,
                      const std::unordered_set<Lsn>& compensated,
                      Lsn sweep_from, LogManager* log, Stats* stats,
                      UndoSink* sink, std::unordered_map<TxnId, Lsn>* heads) {
  std::vector<UndoGroup> group(1);
  group[0].targets = std::move(targets);
  group[0].heads = std::move(*heads);
  const Status status = SweepLoserClusters(&group, compensated, sweep_from,
                                           log, stats, sink);
  *heads = std::move(group[0].heads);
  return status;
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
  LogCursor cursor(*log, stop, sweep_from, LogCursor::Direction::kBackward);
  while (cursor.Next()) {
    ++stats->recovery_backward_examined;
    const LogRecord& rec = cursor.record();
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
  return cursor.status();
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
