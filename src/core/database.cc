#include "core/database.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <thread>
#include <utility>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wal/log_record.h"

namespace ariesrh {

std::string Database::ShardImagePath(const std::string& path, size_t shard) {
  return shard == 0 ? path : path + ".shard" + std::to_string(shard);
}

Database::Database(Options options) : options_(options) {
  stats_.AttachObservability(&obs_);
  init_status_ = options_.Validate();
  // An invalid configuration leaves the database inert: no shards are
  // built and every operation reports init_status_.
  if (!init_status_.ok()) return;
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<EngineShard>(options_, &obs_, i,
                                                    options_.num_shards));
  }
  if (shards_.size() > 1) {
    coord_ = std::make_unique<coord::CoordinatorLog>(&obs_.registry,
                                                     options_.sim_log_force_ns);
    twopc_prepare_ns_ = obs_.registry.GetHistogram("ariesrh_2pc_prepare_ns");
    twopc_coord_force_ns_ =
        obs_.registry.GetHistogram("ariesrh_2pc_coord_force_ns");
    twopc_finish_ns_ = obs_.registry.GetHistogram("ariesrh_2pc_finish_ns");
    commit_latency_ns_ =
        obs_.registry.GetHistogram("ariesrh_commit_latency_ns");
  }
}

Database::~Database() = default;

size_t Database::ShardOf(ObjectId ob) const {
  return ShardIndexOf(ob, shards_.size());
}

Status Database::EnsureUsable() const {
  ARIESRH_RETURN_IF_ERROR(init_status_);
  if (crashed_) {
    return Status::IllegalState(
        "database crashed; call StartRecovery() first");
  }
  if (active_recovery_ != nullptr && active_recovery_->failed()) {
    // The background half of an instant restart died: the shards are
    // half-recovered (some loser clusters never rolled back), which is the
    // same kind of torn volatile state a stopped cross-shard protocol
    // leaves. Poison until the next StartRecovery().
    return Status::IllegalState(
        "instant restart failed in the background; call StartRecovery()");
  }
  if (poisoned_) {
    return Status::IllegalState(
        "cross-shard protocol stopped mid-flight; call SimulateCrash() and "
        "StartRecovery()");
  }
  return Status::OK();
}

std::shared_ptr<Database::TxnRoute> Database::LookupRoute(TxnId txn) const {
  const RouteStripe& stripe = StripeOf(txn);
  std::shared_lock lock(stripe.mu);
  auto route = stripe.routes.find(txn);
  return route != stripe.routes.end() ? route->second : nullptr;
}

Result<std::shared_ptr<Database::TxnRoute>> Database::FindRoute(
    TxnId txn) const {
  if (std::shared_ptr<TxnRoute> route = LookupRoute(txn)) return route;
  // Commit erased the route: the id reads as committed, like a reaped one
  // in TxnManager.
  if (HandedOut(txn)) {
    return Status::IllegalState("transaction " + std::to_string(txn) +
                                " is " + TxnStateName(TxnState::kCommitted));
  }
  return Status::NotFound("transaction " + std::to_string(txn) +
                          " does not exist");
}

std::optional<TxnState> Database::RouteOutcomeOf(TxnId txn) const {
  if (std::shared_ptr<TxnRoute> route = LookupRoute(txn)) {
    return route->outcome.load(std::memory_order_relaxed);
  }
  if (HandedOut(txn)) return TxnState::kCommitted;
  return std::nullopt;
}

Status Database::CheckRouteActive(const TxnRoute& route, TxnId txn) {
  const TxnState outcome = route.outcome.load(std::memory_order_relaxed);
  if (outcome != TxnState::kActive) {
    return Status::IllegalState("transaction " + std::to_string(txn) +
                                " is " + TxnStateName(outcome));
  }
  return Status::OK();
}

Status Database::EnlistLocked(TxnRoute* route, TxnId txn, size_t shard) {
  if (route->EnlistedOn(shard)) return Status::OK();
  ARIESRH_RETURN_IF_ERROR(
      shards_[shard]->txn_manager()->BeginWithId(txn).status());
  route->shards |= uint64_t{1} << shard;
  return Status::OK();
}

Status Database::PoisonOnError(Status status) {
  if (!status.ok()) poisoned_ = true;
  return status;
}

Result<TxnId> Database::Begin() {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  // The facade owns the id space; shards learn about the transaction when
  // it first touches them (EnlistLocked). One shard enlists at once, so its
  // BEGIN record lands at Begin, as in the unsharded engine. The route is
  // not published yet, so nothing else can hold its mutex.
  const TxnId txn = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  auto route = std::make_shared<TxnRoute>();
  if (shards_.size() == 1) {
    ARIESRH_RETURN_IF_ERROR(EnlistLocked(route.get(), txn, 0));
  }
  RouteStripe& stripe = StripeOf(txn);
  std::unique_lock lock(stripe.mu);
  stripe.routes[txn] = std::move(route);
  return txn;
}

template <typename Op>
std::invoke_result_t<Op&, TxnManager*> Database::Routed(TxnId txn,
                                                        ObjectId ob, Op op) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> route, FindRoute(txn));
  std::lock_guard lock(route->mu);
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*route, txn));
  const size_t s = ShardOf(ob);
  ARIESRH_RETURN_IF_ERROR(EnlistLocked(route.get(), txn, s));
  ARIESRH_RETURN_IF_ERROR(shards_[s]->WaitForObjectRecovery(ob));
  return op(shards_[s]->txn_manager());
}

Result<int64_t> Database::Read(TxnId txn, ObjectId ob) {
  return Routed(txn, ob, [&](TxnManager* tm) { return tm->Read(txn, ob); });
}

Status Database::Set(TxnId txn, ObjectId ob, int64_t value) {
  return Routed(txn, ob,
                [&](TxnManager* tm) { return tm->Set(txn, ob, value); });
}

Status Database::Add(TxnId txn, ObjectId ob, int64_t delta) {
  return Routed(txn, ob,
                [&](TxnManager* tm) { return tm->Add(txn, ob, delta); });
}

Result<std::optional<std::string>> Database::TableGet(TxnId txn,
                                                      const std::string& key,
                                                      bool for_update) {
  return Routed(txn, table::TableRid(key), [&](TxnManager* tm) {
    return tm->TableGet(txn, key, for_update);
  });
}

Status Database::TablePut(TxnId txn, const std::string& key,
                          const std::string& value) {
  return Routed(txn, table::TableRid(key), [&](TxnManager* tm) {
    return tm->TablePut(txn, key, value);
  });
}

Status Database::TableDelete(TxnId txn, const std::string& key) {
  return Routed(txn, table::TableRid(key), [&](TxnManager* tm) {
    return tm->TableDelete(txn, key);
  });
}

Result<std::vector<std::pair<std::string, std::string>>> Database::TableScan(
    TxnId txn, const std::string& start_key, size_t limit) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> route, FindRoute(txn));
  std::lock_guard lock(route->mu);
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*route, txn));
  // Keys hash across shards, so every shard may hold part of any key range:
  // fan out, then merge the per-shard (already sorted) results.
  std::vector<std::pair<std::string, std::string>> merged;
  for (size_t s = 0; s < shards_.size(); ++s) {
    ARIESRH_RETURN_IF_ERROR(EnlistLocked(route.get(), txn, s));
    // A scan's footprint is unbounded, so it waits for the shard's entire
    // background undo backlog, not one object's gate.
    ARIESRH_RETURN_IF_ERROR(shards_[s]->WaitForAllRecovery());
    ARIESRH_ASSIGN_OR_RETURN(
        auto part, shards_[s]->txn_manager()->TableScan(txn, start_key, limit));
    if (merged.empty()) {
      merged = std::move(part);
    } else {
      std::vector<std::pair<std::string, std::string>> out;
      out.reserve(merged.size() + part.size());
      std::merge(merged.begin(), merged.end(), part.begin(), part.end(),
                 std::back_inserter(out));
      merged = std::move(out);
    }
    if (limit != 0 && merged.size() > limit) merged.resize(limit);
  }
  return merged;
}

Status Database::TableReadModifyWrite(
    TxnId txn, const std::string& key,
    const std::function<std::string(const std::optional<std::string>&)>&
        mutate) {
  // The exclusive lock is taken by the read and held to the write — no
  // shared->exclusive upgrade exists to deadlock on.
  ARIESRH_ASSIGN_OR_RETURN(std::optional<std::string> current,
                           TableGet(txn, key, /*for_update=*/true));
  return TablePut(txn, key, mutate(current));
}

Result<std::optional<std::string>> Database::TableGetCommitted(
    const std::string& key) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  // Routed through the shard so the read is gated during instant restart —
  // a committed read must not observe an un-undone loser value.
  return shards_[ShardOf(table::TableRid(key))]->TableGetCommitted(key);
}

Status Database::Delegate(TxnId from, TxnId to, const DelegationSpec& spec) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  if (from == to) {
    return Status::InvalidArgument("cannot delegate to self");
  }
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> from_route,
                           FindRoute(from));
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> to_route, FindRoute(to));
  // Both parties' facade operations stay blocked for the whole transfer —
  // neither may commit or abort while legs are mid-flight.
  std::scoped_lock lock(from_route->mu, to_route->mu);
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*from_route, from));
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*to_route, to));

  // The shards the transfer touches, each with what it moves there: an
  // object list splits by shard, all objects become each shard's object
  // list, and a range names one object, so it stays whole on its shard.
  struct Leg {
    DelegationSpec spec;
    TxnManager::DelegationGuard guard;
  };
  std::map<size_t, Leg> legs;
  switch (spec.granularity) {
    case DelegationSpec::Granularity::kOperationRange:
      legs[ShardOf(spec.object)].spec = spec;
      break;
    case DelegationSpec::Granularity::kAllObjects:
      for (size_t s : from_route->Shards()) {
        std::vector<ObjectId> objects =
            shards_[s]->txn_manager()->ObjectsOf(from);
        if (!objects.empty()) {
          legs[s].spec = DelegationSpec::Objects(std::move(objects));
        }
      }
      // Nothing to transfer delegates vacuously.
      if (legs.empty()) return Status::OK();
      break;
    case DelegationSpec::Granularity::kObjectList:
      if (spec.objects.empty()) {
        return Status::InvalidArgument("empty delegation object list");
      }
      for (ObjectId ob : spec.objects) {
        DelegationSpec& leg = legs[ShardOf(ob)].spec;
        leg.granularity = DelegationSpec::Granularity::kObjectList;
        leg.objects.push_back(ob);
      }
      break;
  }
  for (const auto& [s, leg] : legs) {
    if (!from_route->EnlistedOn(s)) {
      return Status::InvalidArgument(
          "delegator is not responsible for object " +
          std::to_string(leg.spec.objects.empty() ? leg.spec.object
                                                  : leg.spec.objects.front()));
    }
  }
  // The delegatee must exist on every involved shard to receive scopes.
  for (const auto& [s, leg] : legs) {
    ARIESRH_RETURN_IF_ERROR(EnlistLocked(to_route.get(), to, s));
  }

  // Guard every shard (checkpoint fence + both parties' latches, held to
  // the end) and check every leg before applying anywhere: a refusal on one
  // shard must not strand a leg applied on another.
  for (auto& [s, leg] : legs) {
    ARIESRH_RETURN_IF_ERROR(
        shards_[s]->txn_manager()->GuardDelegation(from, to, &leg.guard));
  }
  for (auto& [s, leg] : legs) {
    ARIESRH_RETURN_IF_ERROR(
        shards_[s]->txn_manager()->CheckDelegation(leg.guard, leg.spec));
  }

  if (legs.size() == 1) {
    // Shard-local: one plain (csn = 0) DELEGATE record, no coordinator — at
    // N = 1 the unsharded engine's log, byte for byte.
    auto& [s, leg] = *legs.begin();
    return shards_[s]
        ->txn_manager()
        ->ApplyDelegation(leg.guard, leg.spec, /*csn=*/0)
        .status();
  }

  // Cross-shard: the coordinator decides the transfer (docs/SHARDING.md).
  const uint64_t csn = coord_->NextCsn();
  coord::CoordRecord open;
  open.csn = csn;
  open.type = coord::CoordRecordType::kPrepare;
  open.kind = coord::CoordRoundKind::kDelegate;
  open.txn = from;
  open.txn2 = to;
  for (const auto& [s, leg] : legs) {
    open.shards.push_back(static_cast<uint32_t>(s));
  }

  // Nothing is mutated yet, so a stop here is a clean refusal.
  ARIESRH_RETURN_IF_ERROR(
      RunTestPoint(&test_hook_, "xdel:before-coord-prepare"));
  coord_->Append(open);

  // Apply the legs, then force them in one concurrent round: every
  // csn-stamped DELEGATE must be durable before the coordinator may reach
  // its commit point, or a committed csn could reference a lost leg. From
  // the first application on, any stop leaves volatile state
  // half-transferred — poison until SimulateCrash()+StartRecovery() (recovery
  // voids the undecided csn on every shard, restoring atomicity).
  std::vector<std::pair<size_t, Lsn>> applied;
  applied.reserve(legs.size());
  for (auto& [s, leg] : legs) {
    ARIESRH_RETURN_IF_ERROR(PoisonOnError(
        RunTestPoint(&test_hook_, "xdel:before-apply", s)));
    Result<Lsn> lsn =
        shards_[s]->txn_manager()->ApplyDelegation(leg.guard, leg.spec, csn);
    ARIESRH_RETURN_IF_ERROR(PoisonOnError(lsn.status()));
    applied.emplace_back(s, *lsn);
  }
  ARIESRH_RETURN_IF_ERROR(
      PoisonOnError(RunTestPoint(&test_hook_, "xdel:legs-appended")));
  ARIESRH_RETURN_IF_ERROR(PoisonOnError(ForceShardLogs(applied)));

  ARIESRH_RETURN_IF_ERROR(
      PoisonOnError(RunTestPoint(&test_hook_, "xdel:before-decision")));
  coord::CoordRecord decision = open;
  decision.type = coord::CoordRecordType::kCommit;
  coord_->Append(decision);
  // The forced coordinator COMMIT is the transfer's commit point: before
  // it, recovery voids every leg (presumed abort); after it, recovery
  // applies them all.
  ARIESRH_RETURN_IF_ERROR(PoisonOnError(coord_->Force()));
  ARIESRH_RETURN_IF_ERROR(
      PoisonOnError(RunTestPoint(&test_hook_, "xdel:after-decision")));
  return Status::OK();
}

Status Database::Permit(TxnId owner, TxnId grantee, ObjectId ob) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> owner_route,
                           FindRoute(owner));
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> grantee_route,
                           FindRoute(grantee));
  std::unique_lock owner_lock(owner_route->mu, std::defer_lock);
  std::unique_lock grantee_lock(grantee_route->mu, std::defer_lock);
  if (owner == grantee) {
    owner_lock.lock();
  } else {
    std::lock(owner_lock, grantee_lock);
  }
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*owner_route, owner));
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*grantee_route, grantee));
  const size_t s = ShardOf(ob);
  ARIESRH_RETURN_IF_ERROR(EnlistLocked(owner_route.get(), owner, s));
  ARIESRH_RETURN_IF_ERROR(EnlistLocked(grantee_route.get(), grantee, s));
  return shards_[s]->txn_manager()->Permit(owner, grantee, ob);
}

Status Database::FormDependency(DependencyType type, TxnId dependent,
                                TxnId on) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  // Dependencies may span shards, so the facade keeps the one graph. A
  // dependency on a terminated transaction resolves at once.
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> route,
                           FindRoute(dependent));
  {
    std::lock_guard lock(route->mu);
    ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*route, dependent));
    const std::optional<TxnState> target = RouteOutcomeOf(on);
    if (!target.has_value()) {
      return Status::NotFound("dependency target does not exist");
    }
    const TxnState on_state = *target;
    if (on_state == TxnState::kCommitted) return Status::OK();
    if (on_state != TxnState::kAborted) {
      std::lock_guard deps_lock(deps_mu_);
      return deps_.Add(type, dependent, on);
    }
    if (type == DependencyType::kCommit) return Status::OK();
  }
  // Forming a strong-commit/abort dependency on an already-aborted target
  // resolves immediately: the dependent aborts (outside route->mu — Abort
  // re-locks it).
  return Abort(dependent);
}

Result<Lsn> Database::Savepoint(TxnId txn) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> route, FindRoute(txn));
  std::lock_guard lock(route->mu);
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*route, txn));
  if (route->ShardCount() != 1) {
    return Status::NotSupported(
        "savepoints require a transaction confined to one shard");
  }
  return shards_[std::countr_zero(route->shards)]->txn_manager()->Savepoint(
      txn);
}

Status Database::RollbackTo(TxnId txn, Lsn savepoint) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> route, FindRoute(txn));
  std::lock_guard lock(route->mu);
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*route, txn));
  if (route->ShardCount() != 1) {
    return Status::NotSupported(
        "savepoints require a transaction confined to one shard");
  }
  return shards_[std::countr_zero(route->shards)]->txn_manager()->RollbackTo(
      txn, savepoint);
}

Status Database::Commit(TxnId txn) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> route, FindRoute(txn));
  std::unique_lock lock(route->mu);
  ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*route, txn));

  // The dependency gate. kCommitDurable edges never reach this graph — they
  // are shard-local (the lock manager generates them), and the shard-level
  // commit/prepare paths both force past the dependency's COMMIT record in
  // the same shard log.
  std::vector<DependencyGraph::Prerequisite> prerequisites;
  {
    std::lock_guard deps_lock(deps_mu_);
    prerequisites = deps_.CommitPrerequisites(txn);
  }
  for (const DependencyGraph::Prerequisite& p : prerequisites) {
    const TxnState on_state =
        RouteOutcomeOf(p.on).value_or(TxnState::kCommitted);
    if (on_state == TxnState::kActive) {
      return Status::Busy("commit dependency on active transaction " +
                          std::to_string(p.on));
    }
    if (on_state == TxnState::kAborted &&
        p.type == DependencyType::kStrongCommit) {
      lock.unlock();
      ARIESRH_RETURN_IF_ERROR(Abort(txn));
      return Status::Aborted("strong-commit prerequisite " +
                             std::to_string(p.on) + " aborted");
    }
  }

  if (route->ShardCount() == 1) {
    // Single-shard: the shard's ordinary commit is the commit point.
    TxnManager* shard =
        shards_[std::countr_zero(route->shards)]->txn_manager();
    const Status committed = shard->Commit(txn);
    if (!committed.ok()) {
      // A failed commit whose shard aborted the transaction (an early lock
      // release prerequisite, or its own commit record, was lost) aborts
      // here too, with the cascade.
      if (shard->IsActive(txn)) return committed;
      route->outcome.store(TxnState::kAborted, std::memory_order_relaxed);
      lock.unlock();
      ARIESRH_RETURN_IF_ERROR(CascadeAbort(txn));
      return committed;
    }
  } else if (route->ShardCount() > 1) {
    ARIESRH_RETURN_IF_ERROR(TwoPhaseCommit(txn, route->Shards()));
  }
  // A transaction that touched nothing commits vacuously, with no log
  // traffic anywhere. The committed route goes: its id now reads as
  // committed through HandedOut.
  route->outcome.store(TxnState::kCommitted, std::memory_order_relaxed);
  {
    std::lock_guard deps_lock(deps_mu_);
    deps_.RemoveTxn(txn);
  }
  {
    RouteStripe& stripe = StripeOf(txn);
    std::unique_lock stripe_lock(stripe.mu);
    stripe.routes.erase(txn);
  }
  ObserveFirstCommit();
  return Status::OK();
}

void Database::ObserveFirstCommit() {
  bool armed = true;
  if (!ttfc_armed_.compare_exchange_strong(armed, false,
                                           std::memory_order_acq_rel)) {
    return;
  }
  obs_.registry.GetHistogram("ariesrh_time_to_first_commit_ns")
      ->Observe(obs::MonotonicNanos() -
                restart_epoch_ns_.load(std::memory_order_relaxed));
}

Status Database::ForceShardLogs(
    const std::vector<std::pair<size_t, Lsn>>& legs) {
  // Request every force before awaiting any: each shard's flusher starts
  // its force at once, so the round costs about one device force, not one
  // per shard. Without group commit each await is a direct force in turn.
  std::vector<LogManager::FlushTicket> tickets;
  tickets.reserve(legs.size());
  for (const auto& [s, lsn] : legs) {
    tickets.push_back(shards_[s]->log_manager()->RequestFlush(lsn));
  }
  for (size_t i = 0; i < legs.size(); ++i) {
    ARIESRH_RETURN_IF_ERROR(
        shards_[legs[i].first]->log_manager()->AwaitFlush(tickets[i]));
  }
  return Status::OK();
}

Status Database::TwoPhaseCommit(TxnId txn, const std::vector<size_t>& parts) {
  const uint64_t commit_requested = obs::MonotonicNanos();
  const uint64_t csn = coord_->NextCsn();
  coord::CoordRecord open;
  open.csn = csn;
  open.type = coord::CoordRecordType::kPrepare;
  open.kind = coord::CoordRoundKind::kCommitTxn;
  open.txn = txn;
  for (size_t s : parts) open.shards.push_back(static_cast<uint32_t>(s));
  // Unforced bookkeeping: losing this record costs nothing (presumed
  // abort); only the COMMIT's force below decides anything.
  coord_->Append(open);

  // Phase 1: every shard appends its csn-stamped PREPARE vote, then one
  // concurrent round forces them all. From the first vote on, a stop leaves
  // the transaction prepared somewhere — poison; restart resolves it from
  // the coordinator log (here: no durable COMMIT, so presumed abort).
  std::vector<std::pair<size_t, Lsn>> votes;
  votes.reserve(parts.size());
  for (size_t s : parts) {
    ARIESRH_RETURN_IF_ERROR(PoisonOnError(
        RunTestPoint(&test_hook_, "2pc:before-prepare", s)));
    Result<Lsn> vote = shards_[s]->txn_manager()->Prepare(txn, csn);
    ARIESRH_RETURN_IF_ERROR(PoisonOnError(vote.status()));
    votes.emplace_back(s, *vote);
  }
  ARIESRH_RETURN_IF_ERROR(
      PoisonOnError(RunTestPoint(&test_hook_, "2pc:votes-appended")));
  ARIESRH_RETURN_IF_ERROR(PoisonOnError(ForceShardLogs(votes)));
  const uint64_t votes_durable = obs::MonotonicNanos();
  twopc_prepare_ns_->Observe(votes_durable - commit_requested);

  ARIESRH_RETURN_IF_ERROR(
      PoisonOnError(RunTestPoint(&test_hook_, "2pc:before-decision")));
  coord::CoordRecord decision = open;
  decision.type = coord::CoordRecordType::kCommit;
  coord_->Append(decision);
  // The commit point: once this force returns, the transaction is durably
  // committed even if every shard's own COMMIT record is still volatile.
  ARIESRH_RETURN_IF_ERROR(PoisonOnError(coord_->Force()));
  // Durable ack: the user-visible commit latency ends here, not after the
  // lazy phase 2 below. The two phase histograms split it exactly.
  const uint64_t acked = obs::MonotonicNanos();
  twopc_coord_force_ns_->Observe(acked - votes_durable);
  commit_latency_ns_->Observe(acked - commit_requested);
  ARIESRH_RETURN_IF_ERROR(
      PoisonOnError(RunTestPoint(&test_hook_, "2pc:after-decision")));

  // Phase 2: deliberately lazy — the shard COMMIT/END records ride out with
  // future forces; a crash first is resolved in-doubt-committed at restart.
  for (size_t s : parts) {
    ARIESRH_RETURN_IF_ERROR(PoisonOnError(
        RunTestPoint(&test_hook_, "2pc:before-finish", s)));
    ARIESRH_RETURN_IF_ERROR(
        PoisonOnError(shards_[s]->txn_manager()->FinishCommit(txn)));
  }
  twopc_finish_ns_->Observe(obs::MonotonicNanos() - acked);
  return Status::OK();
}

Status Database::Abort(TxnId txn) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<TxnRoute> route, FindRoute(txn));
  {
    std::lock_guard lock(route->mu);
    ARIESRH_RETURN_IF_ERROR(CheckRouteActive(*route, txn));
    for (size_t s : route->Shards()) {
      ARIESRH_RETURN_IF_ERROR(shards_[s]->txn_manager()->Abort(txn));
    }
    route->outcome.store(TxnState::kAborted, std::memory_order_relaxed);
  }
  return CascadeAbort(txn);
}

Status Database::CascadeAbort(TxnId txn) {
  // Capture who must abort with us before the graph forgets this txn.
  std::vector<TxnId> dependents;
  {
    std::lock_guard deps_lock(deps_mu_);
    dependents = deps_.AbortDependents(txn);
    deps_.RemoveTxn(txn);
  }
  for (TxnId dependent : dependents) {
    if (RouteOutcomeOf(dependent) != TxnState::kActive) continue;
    const Status status = Abort(dependent);
    // A cascade target that a concurrent session is already terminating is
    // not our problem to finish.
    if (!status.ok() && status.code() != StatusCode::kIllegalState &&
        status.code() != StatusCode::kNotFound) {
      return status;
    }
  }
  return Status::OK();
}

bool Database::IsActive(TxnId txn) {
  if (!init_status_.ok() || crashed_ || shards_.empty()) return false;
  return RouteOutcomeOf(txn) == TxnState::kActive;
}

Status Database::Sync() {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  for (auto& shard : shards_) {
    ARIESRH_RETURN_IF_ERROR(shard->Sync());
  }
  if (coord_ != nullptr) {
    ARIESRH_RETURN_IF_ERROR(coord_->Force());
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  for (auto& shard : shards_) {
    ARIESRH_RETURN_IF_ERROR(shard->Checkpoint());
  }
  return Status::OK();
}

Status Database::SaveTo(const std::string& path) {
  ARIESRH_RETURN_IF_ERROR(init_status_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    ARIESRH_RETURN_IF_ERROR(shards_[i]->SaveTo(ShardImagePath(path, i)));
  }
  if (coord_ != nullptr) {
    // The coordinator's durable decisions ride in a sidecar: without them a
    // reopened engine would presume-abort rounds it had committed.
    ARIESRH_RETURN_IF_ERROR(coord_->SaveSidecar(path + ".coord"));
  }
  return Status::OK();
}

Result<Database::OpenResult> Database::Open(Options options) {
  ARIESRH_RETURN_IF_ERROR(options.Validate());
  auto db = std::make_unique<Database>(options);
  ARIESRH_RETURN_IF_ERROR(db->init_status_);
  OpenResult out;
  // Nothing to recover: the handle is born terminal with an empty Outcome.
  out.recovery =
      RecoveryHandle::Terminal(options.recovery_mode, RecoveryManager::Outcome{});
  db->active_recovery_ = out.recovery;
  out.db = std::move(db);
  return out;
}

Result<Database::OpenResult> Database::Open(Options options,
                                            const std::string& path) {
  ARIESRH_RETURN_IF_ERROR(options.Validate());
  auto db = std::make_unique<Database>(options);
  ARIESRH_RETURN_IF_ERROR(db->init_status_);
  // The shard images load one after another on this thread. Loaded on one
  // thread each, every image's decoded pages would sit in that thread's
  // allocator arena, where later allocations on this thread cannot reuse
  // them (EXPERIMENTS.md E10, "Open on first touch").
  for (size_t i = 0; i < db->shards_.size(); ++i) {
    ARIESRH_RETURN_IF_ERROR(
        db->shards_[i]->LoadDiskFrom(ShardImagePath(path, i)));
  }
  // Opening a stable image is indistinguishable from restarting after a
  // crash: volatile state must be rebuilt by restart recovery.
  db->SimulateCrash();
  if (db->coord_ != nullptr) {
    ARIESRH_RETURN_IF_ERROR(db->coord_->LoadSidecar(path + ".coord"));
  }
  OpenResult out;
  ARIESRH_ASSIGN_OR_RETURN(out.recovery, db->StartRecovery());
  out.db = std::move(db);
  return out;
}

Result<Database::OpenResult> Database::OpenFromBackup(
    Options options, const BackupImage& backup) {
  ARIESRH_RETURN_IF_ERROR(options.Validate());
  if (options.num_shards > 1) {
    return Status::NotSupported(
        "backup/restore covers single-shard engines only");
  }
  if (backup.log_window.empty() || backup.window_start == 0) {
    return Status::InvalidArgument(
        "backup image lacks the checkpoint's log window");
  }
  auto db = std::make_unique<Database>(options);
  ARIESRH_RETURN_IF_ERROR(db->init_status_);
  // The fresh engine "fails" immediately: restore applies to the crashed
  // state, exactly like the SimulateMediaFailure + RestoreFromBackup +
  // StartRecovery sequence.
  db->SimulateCrash();
  ARIESRH_RETURN_IF_ERROR(db->shards_[0]->RestoreFromBackup(backup));
  // The fresh log starts mid-stream, holding the backup checkpoint's replay
  // window at its original LSNs (same install a standby seed performs).
  ARIESRH_RETURN_IF_ERROR(
      db->shards_[0]->disk()->SetLogBase(backup.window_start - 1));
  db->shards_[0]->disk()->AppendLogRecords(backup.log_window);
  OpenResult out;
  ARIESRH_ASSIGN_OR_RETURN(out.recovery, db->StartRecovery());
  out.db = std::move(db);
  return out;
}

Result<Database::BackupImage> Database::Backup() {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  if (shards_.size() > 1) {
    return Status::NotSupported(
        "backup/restore covers single-shard engines only");
  }
  return shards_[0]->Backup();
}

void Database::SimulateMediaFailure() {
  for (auto& shard : shards_) shard->disk()->ClearPages();
  SimulateCrash();
}

Status Database::RestoreFromBackup(const BackupImage& backup) {
  ARIESRH_RETURN_IF_ERROR(init_status_);
  if (shards_.size() > 1) {
    return Status::NotSupported(
        "backup/restore covers single-shard engines only");
  }
  return shards_[0]->RestoreFromBackup(backup);
}

Result<uint64_t> Database::ArchiveLog(Lsn retain_from) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  uint64_t archived = 0;
  for (auto& shard : shards_) {
    ARIESRH_ASSIGN_OR_RETURN(uint64_t n, shard->ArchiveLog(retain_from));
    archived += n;
  }
  return archived;
}

void Database::SimulateCrash() {
  for (auto& shard : shards_) shard->SimulateCrash();
  if (coord_ != nullptr) coord_->SimulateCrash();
  for (RouteStripe& stripe : routes_) {
    std::unique_lock lock(stripe.mu);
    stripe.routes.clear();
  }
  {
    std::lock_guard deps_lock(deps_mu_);
    deps_.Reset();
  }
  poisoned_ = false;  // the poisoned volatile state just died with the rest
  active_recovery_.reset();
  ttfc_armed_.store(false, std::memory_order_relaxed);
  crashed_ = true;
}

Result<std::shared_ptr<RecoveryHandle>> Database::StartRecovery() {
  ARIESRH_RETURN_IF_ERROR(init_status_);
  if (!NeedsRecovery()) {
    return Status::IllegalState("StartRecovery() without a preceding crash");
  }
  // An instant restart whose background pass failed left its shards
  // half-recovered: crash them again and restart from stable storage.
  if (!crashed_) SimulateCrash();
  // The restart clock starts here: the first successful Commit after the
  // open observes its distance from this point (the instant-restart figure
  // of merit).
  restart_epoch_ns_.store(obs::MonotonicNanos(), std::memory_order_relaxed);

  // The coordinator's durable verdicts, kept up to date as its records
  // became stable; every shard's restart consults the same resolution
  // (in-doubt commit/abort, csn-stamped DELEGATE voiding). Only the
  // synchronous front half reads it, so stack lifetime is fine even under
  // kInstant.
  coord::Resolution resolution;
  if (coord_ != nullptr) resolution = coord_->resolution();
  const coord::Resolution* resolution_ptr =
      coord_ != nullptr ? &resolution : nullptr;

  std::shared_ptr<RecoveryHandle> handle =
      RecoveryHandle::Pending(options().recovery_mode, shards_.size());
  // Every shard restarts in parallel; the facade opens once all of them
  // succeeded. The coordinator's in-doubt verdicts are applied inside each
  // shard's synchronous part, so by the time this returns no transaction
  // anywhere is in doubt — under kInstant only loser undo is outstanding,
  // and the per-shard gates fence it.
  std::vector<Status> statuses(shards_.size(), Status::OK());
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    workers.emplace_back([this, i, resolution_ptr, handle, &statuses] {
      statuses[i] = shards_[i]->Restart(resolution_ptr, handle);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const auto failed = std::find_if(statuses.begin(), statuses.end(),
                                   [](const Status& s) { return !s.ok(); });
  if (failed != statuses.end()) {
    // All-or-nothing open: crash the shards that restarted (an instant one's
    // Cancel reports the abort to the handle), so every shard is crashed
    // again and a plain StartRecovery() retries. A shard whose restart
    // failed never reached the handle; report it here.
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (statuses[i].ok()) {
        shards_[i]->SimulateCrash();
      } else {
        handle->ShardFailed(statuses[i]);
      }
    }
    return *failed;
  }
  // Seed the facade's id space from the shards' restarts.
  TxnId seed = 1;
  for (auto& shard : shards_) {
    seed = std::max(seed, shard->txn_manager()->next_txn_id());
  }
  next_txn_id_.store(seed, std::memory_order_relaxed);
  // Ids below the seed are from before this restart: unknown from now on.
  first_txn_id_ = next_txn_id_.load(std::memory_order_relaxed);
  // Restarted engines must never reuse a csn the durable log names.
  if (coord_ != nullptr) coord_->SeedCsn(resolution.max_csn + 1);

  poisoned_ = false;
  crashed_ = false;
  active_recovery_ = handle;
  ttfc_armed_.store(true, std::memory_order_release);
  return handle;
}

Result<int64_t> Database::ReadCommitted(ObjectId ob) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  return shards_[ShardOf(ob)]->ReadCommitted(ob);
}

// --- reenactment facade (docs/REENACTMENT.md) ---
//
// Each call opens a fresh Reenactor over the live engine's retained logs.
// These are diagnostic queries, not hot paths: the open re-derives per-shard
// retention bounds so the answer always reflects the durable log of the
// moment, and nothing is cached across calls.

Result<reenact::StateImage> Database::ReenactStateAt(Lsn cut) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(reenact::Reenactor r,
                           reenact::Reenactor::OpenLive(this));
  return r.StateAt(cut);
}

Result<reenact::ResponsibilityAnswer> Database::ReenactWhodunit(ObjectId ob,
                                                               Lsn cut) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(reenact::Reenactor r,
                           reenact::Reenactor::OpenLive(this));
  return r.ResponsibleFor(ob, cut);
}

Result<reenact::ResponsibilityAnswer> Database::ReenactWhodunitKey(
    const std::string& key, Lsn cut) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(reenact::Reenactor r,
                           reenact::Reenactor::OpenLive(this));
  return r.ResponsibleForKey(key, cut);
}

Result<reenact::ReplayResult> Database::ReenactReplayTxn(TxnId txn, Lsn cut) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(reenact::Reenactor r,
                           reenact::Reenactor::OpenLive(this));
  return r.ReplayTxn(txn, cut);
}

Result<std::vector<reenact::TransferHop>> Database::ReenactTransferChain(
    ObjectId ob) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(reenact::Reenactor r,
                           reenact::Reenactor::OpenLive(this));
  return r.TransferChain(ob);
}

Result<std::vector<reenact::TransferHop>> Database::ReenactTransferChainKey(
    const std::string& key) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_ASSIGN_OR_RETURN(reenact::Reenactor r,
                           reenact::Reenactor::OpenLive(this));
  return r.TransferChainKey(key);
}

void Database::set_test_hook(TestHook hook) {
  // Each shard names its points with its own index.
  for (size_t s = 0; s < shards_.size(); ++s) {
    TestHook shard_hook;
    if (hook) {
      shard_hook = [hook, s](std::string_view point) {
        return RunTestPoint(&hook, point, s);
      };
    }
    shards_[s]->set_test_hook(std::move(shard_hook));
  }
  test_hook_ = std::move(hook);
}

}  // namespace ariesrh
