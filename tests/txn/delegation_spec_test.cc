// DelegationSpec: the consolidated Delegate(from, to, spec) entry point
// must behave exactly like the three legacy TxnManager signatures it
// subsumes (the Database wrappers for those signatures are gone).

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

TEST(DelegationSpecTest, FactoriesAndToString) {
  EXPECT_EQ(DelegationSpec::All().granularity,
            DelegationSpec::Granularity::kAllObjects);
  EXPECT_EQ(DelegationSpec::All().ToString(), "all-objects");

  const DelegationSpec objects = DelegationSpec::Objects({3, 7});
  EXPECT_EQ(objects.granularity, DelegationSpec::Granularity::kObjectList);
  EXPECT_EQ(objects.ToString(), "objects[3,7]");

  const DelegationSpec ops = DelegationSpec::Operations(5, 10, 20);
  EXPECT_EQ(ops.granularity, DelegationSpec::Granularity::kOperationRange);
  EXPECT_EQ(ops.ToString(), "operations{ob=5, lsn=[10,20]}");
}

TEST(DelegationSpecTest, ObjectListMatchesLegacyDelegate) {
  // Same scenario through both APIs must leave the same committed state.
  auto run = [](bool use_spec) {
    Database db;
    TxnId t1 = *db.Begin();
    TxnId t2 = *db.Begin();
    EXPECT_TRUE(db.Add(t1, 5, 10).ok());
    EXPECT_TRUE(db.Add(t1, 6, 20).ok());
    EXPECT_TRUE(db.Add(t1, 7, 40).ok());
    Status status =
        use_spec ? db.Delegate(t1, t2, DelegationSpec::Objects({5, 6}))
                 : db.shard(0)->txn_manager()->Delegate(t1, t2,
                                              std::vector<ObjectId>{5, 6});
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(db.Commit(t2).ok());  // 10 and 20 survive
    EXPECT_TRUE(db.Abort(t1).ok());   // 40 dies
    return std::tuple(*db.ReadCommitted(5), *db.ReadCommitted(6),
                      *db.ReadCommitted(7));
  };
  EXPECT_EQ(run(true), run(false));
  EXPECT_EQ(run(true), (std::tuple<int64_t, int64_t, int64_t>(10, 20, 0)));
}

TEST(DelegationSpecTest, AllObjectsMatchesLegacyDelegateAll) {
  auto run = [](bool use_spec) {
    Database db;
    TxnId t1 = *db.Begin();
    TxnId t2 = *db.Begin();
    EXPECT_TRUE(db.Add(t1, 5, 10).ok());
    EXPECT_TRUE(db.Add(t1, 6, 20).ok());
    Status status = use_spec
                        ? db.Delegate(t1, t2, DelegationSpec::All())
                        : db.shard(0)->txn_manager()->DelegateAll(t1, t2);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(db.Abort(t1).ok());   // nothing left to undo
    EXPECT_TRUE(db.Commit(t2).ok());  // everything survives
    return std::tuple(*db.ReadCommitted(5), *db.ReadCommitted(6));
  };
  EXPECT_EQ(run(true), run(false));
  EXPECT_EQ(run(true), (std::tuple<int64_t, int64_t>(10, 20)));
}

TEST(DelegationSpecTest, OperationRangeMatchesLegacyDelegateOperations) {
  auto run = [](bool use_spec) {
    Database db;
    TxnId t1 = *db.Begin();
    TxnId t2 = *db.Begin();
    EXPECT_TRUE(db.Add(t1, 5, 10).ok());
    const Lsn mid = db.shard(0)->txn_manager()->Find(t1)->last_lsn;
    EXPECT_TRUE(db.Add(t1, 5, 100).ok());
    Status status =
        use_spec
            ? db.Delegate(t1, t2, DelegationSpec::Operations(5, mid, mid))
            : db.shard(0)->txn_manager()->DelegateOperations(t1, t2, 5, mid,
                                                             mid);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(db.Commit(t2).ok());  // the 10 survives
    EXPECT_TRUE(db.Abort(t1).ok());   // the 100 dies
    return *db.ReadCommitted(5);
  };
  EXPECT_EQ(run(true), run(false));
  EXPECT_EQ(run(true), 10);
}

TEST(DelegationSpecTest, SpecSurvivesCrashRecovery) {
  Database db;
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Add(t1, 5, 10).ok());
  ASSERT_TRUE(db.Add(t1, 6, 20).ok());
  ASSERT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  // t1 is a loser at the crash: its remaining update (6) must die, the
  // delegated one (5) must survive.
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(5), 10);
  EXPECT_EQ(*db.ReadCommitted(6), 0);
}

}  // namespace
}  // namespace ariesrh
