// Delegation semantics during normal processing (paper Sections 2.1 and
// 3.5): preconditions, responsibility transfer, commit/abort fates,
// delegation chains, and Example 2.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"

namespace ariesrh {
namespace {

class DelegationTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(DelegationTest, PreconditionRequiresResponsibility) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  // t1 never updated object 5, so it is not the responsible transaction.
  EXPECT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).IsInvalidArgument());
}

TEST_F(DelegationTest, SelfDelegationRejected) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 1).ok());
  EXPECT_TRUE(db_.Delegate(t1, t1, DelegationSpec::Objects({5})).IsInvalidArgument());
}

TEST_F(DelegationTest, EmptyDelegationRejected) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  EXPECT_TRUE(
      db_.Delegate(t1, t2, DelegationSpec::Objects({})).IsInvalidArgument());
}

// Run at one shard and at two: the facade's routes answer for terminated
// transactions at every shard count.
class TerminatedDelegationTest : public ::testing::TestWithParam<size_t> {
 protected:
  static Options WithShards(size_t shards) {
    Options options;
    options.num_shards = shards;
    return options;
  }
  Database db_{WithShards(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(Shards, TerminatedDelegationTest, ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

// kDisabled refuses delegation at every shard count, cross-shard transfers
// included: no DELEGATE record, no coordinator round.
class DisabledDelegationTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, DisabledDelegationTest,
                         ::testing::Values(1u, 2u), [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(DisabledDelegationTest, EveryTransferRefused) {
  Options options;
  options.num_shards = GetParam();
  options.delegation_mode = DelegationMode::kDisabled;
  Database db(options);
  // One object on the first shard, one on the last.
  const ObjectId a = 1;
  ObjectId b = a + 1;
  while (db.num_shards() > 1 && db.ShardOf(b) == db.ShardOf(a)) ++b;
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, a, 1).ok());
  ASSERT_TRUE(db.Set(t1, b, 2).ok());
  EXPECT_EQ(db.Delegate(t1, t2, DelegationSpec::Objects({a, b})).code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(db.Delegate(t1, t2, DelegationSpec::All()).code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(db.stats().delegations, 0u);
  if (coord::CoordinatorLog* coord = db.coordinator_log()) {
    ASSERT_TRUE(coord->Force().ok());
    EXPECT_EQ(coord->stable_size(), 0u);
  }
  ASSERT_TRUE(db.Commit(t1).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 1);
  EXPECT_EQ(*db.ReadCommitted(b), 2);
}

TEST_P(TerminatedDelegationTest, DelegationToTerminatedTxnRejected) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).IsIllegalState());
}

TEST_F(DelegationTest, ResponsibilityMovesToDelegatee) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 42).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());

  const Transaction* tor = db_.shard(0)->txn_manager()->Find(t1);
  const Transaction* tee = db_.shard(0)->txn_manager()->Find(t2);
  EXPECT_FALSE(tor->IsResponsibleFor(5));
  ASSERT_TRUE(tee->IsResponsibleFor(5));
  EXPECT_EQ(tee->ob_list.at(5).delegated_from, t1);
  // The scope still names the invoking transaction.
  EXPECT_EQ(tee->ob_list.at(5).scopes[0].invoker, t1);
}

TEST_F(DelegationTest, DelegateeCommitMakesDelegatorsUpdateDurable) {
  // The core delegation fate rule: t0 updates, delegates, aborts; the
  // update survives because the delegatee commits (Section 2.1.2).
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t0).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 42);  // abort did not touch it
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 42);
}

TEST_F(DelegationTest, DelegateeAbortUndoesDelegatorsUpdate) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
  // t0 can still commit; it is no longer responsible for the update.
  ASSERT_TRUE(db_.Commit(t0).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(DelegationTest, PaperExample2SplitFates) {
  // ... update[t,ob], delegate(t,t1,ob), update[t,ob], delegate(t,t2,ob),
  // abort(t2), commit(t1): the first update persists, the second dies —
  // regardless of t's own fate. Increments are used so the second update
  // does not conflict with the delegated first one.
  TxnId t = *db_.Begin();
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 5, 100).ok());
  ASSERT_TRUE(db_.Delegate(t, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Add(t, 5, 23).ok());
  ASSERT_TRUE(db_.Delegate(t, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t2).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 100);
  ASSERT_TRUE(db_.Abort(t).ok());  // t's fate is irrelevant
  EXPECT_EQ(*db_.ReadCommitted(5), 100);
}

TEST_F(DelegationTest, DelegationChainFollowsLastDelegatee) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 7).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t0).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 7);  // only t2's fate matters now
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 7);
}

TEST_F(DelegationTest, DelegateBackAndForth) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 3).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Delegate(t1, t0, DelegationSpec::Objects({5})).ok());  // comes back
  ASSERT_TRUE(db_.Commit(t1).ok());             // t1 holds nothing
  // Responsibility is back with t0; its fate decides the update's.
  ASSERT_TRUE(db_.Abort(t0).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(DelegationTest, DelegateBackAndForthCommitPath) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 3).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Delegate(t1, t0, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());  // t1 is responsible for nothing
  ASSERT_TRUE(db_.Commit(t0).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 3);
}

TEST_F(DelegationTest, OnlyNamedObjectsAreDelegated) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 50).ok());
  ASSERT_TRUE(db_.Set(t1, 6, 60).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());  // kills only ob6
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 50);
  EXPECT_EQ(*db_.ReadCommitted(6), 0);
}

TEST_F(DelegationTest, MultiObjectDelegationIsAtomic) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 50).ok());
  ASSERT_TRUE(db_.Set(t1, 6, 60).ok());
  const uint64_t delegations_before = db_.stats().delegations;
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5, 6})).ok());
  EXPECT_EQ(db_.stats().delegations - delegations_before, 1u);
  ASSERT_TRUE(db_.Commit(t2).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 50);
  EXPECT_EQ(*db_.ReadCommitted(6), 60);
}

TEST_F(DelegationTest, DelegateAllTransfersEverything) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 50).ok());
  ASSERT_TRUE(db_.Add(t1, 6, 60).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::All()).ok());
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(t1)->ob_list.empty());
  ASSERT_TRUE(db_.Abort(t1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 50);
  EXPECT_EQ(*db_.ReadCommitted(6), 60);
}

TEST_F(DelegationTest, ConcurrentIncrementsDelegateIndependently) {
  // Two transactions increment the same object; each delegates only its
  // own operation (paper: "only that transaction's operations on the
  // object are delegated").
  TxnId a = *db_.Begin();
  TxnId b = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Add(a, 5, 10).ok());
  ASSERT_TRUE(db_.Add(b, 5, 200).ok());
  ASSERT_TRUE(db_.Delegate(a, heir, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(b).ok());   // b's increment dies
  ASSERT_TRUE(db_.Abort(a).ok());   // a's delegated increment unaffected
  ASSERT_TRUE(db_.Commit(heir).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 10);
}

TEST_F(DelegationTest, UpdateAfterDelegationOpensNewScope) {
  TxnId t = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 5, 1).ok());
  ASSERT_TRUE(db_.Delegate(t, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Add(t, 5, 2).ok());
  const Transaction* tx = db_.shard(0)->txn_manager()->Find(t);
  ASSERT_TRUE(tx->IsResponsibleFor(5));
  ASSERT_EQ(tx->ob_list.at(5).scopes.size(), 1u);
  EXPECT_TRUE(tx->ob_list.at(5).scopes[0].open);
  // t1 still holds the first scope.
  EXPECT_EQ(
      db_.shard(0)->txn_manager()->Find(t1)->ob_list.at(5).scopes.size(), 1u);
}

TEST_F(DelegationTest, LockTransferBroadensVisibility) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 1).ok());
  EXPECT_TRUE(db_.Read(t2, 5).status().IsBusy());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  EXPECT_EQ(*db_.Read(t2, 5), 1);  // the delegatee now holds the lock
  // The delegator conflicts with its own delegated update (paper 2.1).
  EXPECT_TRUE(db_.Set(t1, 5, 2).IsBusy());
  ASSERT_TRUE(db_.Commit(t2).ok());
}

TEST_F(DelegationTest, ResponsibleTxnIntrospection) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 1).ok());
  TxnManager* txns = db_.shard(0)->txn_manager();
  const Lsn update_lsn = txns->Find(t1)->last_lsn;
  EXPECT_EQ(*txns->ResponsibleTxn(t1, 5, update_lsn), t1);
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  EXPECT_EQ(*txns->ResponsibleTxn(t1, 5, update_lsn), t2);
}

TEST_F(DelegationTest, DelegationDisabledModeRejects) {
  Options options;
  options.delegation_mode = DelegationMode::kDisabled;
  Database db(options);
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 5, 1).ok());
  EXPECT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({5})).code() == StatusCode::kNotSupported);
}

TEST_F(DelegationTest, DelegateRecordLinksBothChains) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 1).ok());
  const Lsn t1_head = db_.shard(0)->txn_manager()->Find(t1)->last_lsn;
  const Lsn t2_head = db_.shard(0)->txn_manager()->Find(t2)->last_lsn;
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  const Lsn d = db_.shard(0)->txn_manager()->Find(t1)->last_lsn;
  EXPECT_EQ(d, db_.shard(0)->txn_manager()->Find(t2)->last_lsn);
  LogRecord rec = *db_.shard(0)->log_manager()->Read(d);
  EXPECT_EQ(rec.type, LogRecordType::kDelegate);
  EXPECT_EQ(rec.tor_bc, t1_head);
  EXPECT_EQ(rec.tee_bc, t2_head);
}

}  // namespace
}  // namespace ariesrh
