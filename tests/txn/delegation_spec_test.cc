// DelegationSpec: the three things Database::Delegate can transfer — all
// objects, an object list, one object's operation range — each run at one
// shard and at two, where the objects live on shard 1.

#include <gtest/gtest.h>

#include <tuple>

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

class DelegationSpecShardsTest : public ::testing::TestWithParam<size_t> {
 protected:
  static Options WithShards(size_t shards) {
    Options options;
    options.num_shards = shards;
    return options;
  }

  /// The `i`-th object (from 0) that routes to the last shard.
  ObjectId Ob(int i) const {
    for (ObjectId ob = 1;; ++ob) {
      if (db_.ShardOf(ob) == db_.num_shards() - 1 && i-- == 0) return ob;
    }
  }

  /// The chain head of `txn` on the last shard.
  Lsn HeadOf(TxnId txn) {
    return db_.shard(db_.num_shards() - 1)->txn_manager()->Find(txn)->last_lsn;
  }

  Database db_{WithShards(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(Shards, DelegationSpecShardsTest,
                         ::testing::Values(1u, 2u), [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(DelegationSpecShardsTest, ObjectListTransfersListedObjects) {
  const ObjectId a = Ob(0), b = Ob(1), c = Ob(2);
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, a, 10).ok());
  ASSERT_TRUE(db_.Add(t1, b, 20).ok());
  ASSERT_TRUE(db_.Add(t1, c, 40).ok());
  const Status status = db_.Delegate(t1, t2, DelegationSpec::Objects({a, b}));
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(db_.Commit(t2).ok());  // 10 and 20 survive
  ASSERT_TRUE(db_.Abort(t1).ok());   // 40 dies
  EXPECT_EQ(std::tuple(*db_.ReadCommitted(a), *db_.ReadCommitted(b),
                       *db_.ReadCommitted(c)),
            (std::tuple<int64_t, int64_t, int64_t>(10, 20, 0)));
}

TEST_P(DelegationSpecShardsTest, AllObjectsTransfersEverything) {
  const ObjectId a = Ob(0), b = Ob(1);
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, a, 10).ok());
  ASSERT_TRUE(db_.Add(t1, b, 20).ok());
  const Status status = db_.Delegate(t1, t2, DelegationSpec::All());
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(db_.Abort(t1).ok());   // nothing left to undo
  ASSERT_TRUE(db_.Commit(t2).ok());  // everything survives
  EXPECT_EQ(std::tuple(*db_.ReadCommitted(a), *db_.ReadCommitted(b)),
            (std::tuple<int64_t, int64_t>(10, 20)));
}

TEST_P(DelegationSpecShardsTest, OperationRangeTransfersTheRange) {
  const ObjectId a = Ob(0);
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, a, 10).ok());
  const Lsn mid = HeadOf(t1);
  ASSERT_TRUE(db_.Add(t1, a, 100).ok());
  const Status status =
      db_.Delegate(t1, t2, DelegationSpec::Operations(a, mid, mid));
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(db_.Commit(t2).ok());  // the 10 survives
  ASSERT_TRUE(db_.Abort(t1).ok());   // the 100 dies
  EXPECT_EQ(*db_.ReadCommitted(a), 10);
}

TEST_P(DelegationSpecShardsTest, SpecSurvivesCrashRecovery) {
  const ObjectId a = Ob(0), b = Ob(1);
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, a, 10).ok());
  ASSERT_TRUE(db_.Add(t1, b, 20).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({a})).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  // t1 is a loser at the crash: its remaining update (b) must die, the
  // delegated one (a) must survive.
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(a), 10);
  EXPECT_EQ(*db_.ReadCommitted(b), 0);
}

}  // namespace
}  // namespace ariesrh
