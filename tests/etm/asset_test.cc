// The Asset facade: the paper's code-snippet idioms, in C++.

#include "etm/asset.h"

#include <gtest/gtest.h>

namespace ariesrh::etm {
namespace {

class AssetTest : public ::testing::Test {
 protected:
  Database db_;
  Asset asset_{&db_};
};

TEST_F(AssetTest, RunExecutesBodyAndLeavesTxnActive) {
  TxnId t = *asset_.Initiate();
  Result<bool> ok = asset_.Run(t, [](TxnId) { return Status::OK(); });
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t)->state, TxnState::kActive);
  ASSERT_TRUE(asset_.Commit(t).ok());
}

TEST_F(AssetTest, FailedRunAbortsLikeWait) {
  TxnId t = *asset_.Initiate();
  ASSERT_TRUE(db_.Set(t, 1, 10).ok());
  Result<bool> ok = asset_.Run(
      t, [](TxnId) { return Status::Aborted("reservation failed"); });
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);  // the analogue of `if (!wait(t1))`
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t)->state, TxnState::kAborted);
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

TEST_F(AssetTest, PaperTripFunctionShape) {
  // The trip() function from Section 2.2.2, written with the facade.
  TxnId trip = *asset_.Initiate();

  TxnId t1 = *asset_.Initiate();
  ASSERT_TRUE(asset_.Permit(trip, t1, 100).ok());
  Result<bool> airline = asset_.Run(t1, [this](TxnId me) {
    return db_.Set(me, 100, 1);  // airline_res()
  });
  ASSERT_TRUE(airline.ok() && *airline);
  ASSERT_TRUE(asset_.DelegateAll(t1, trip).ok());
  ASSERT_TRUE(asset_.Commit(t1).ok());

  TxnId t2 = *asset_.Initiate();
  Result<bool> hotel = asset_.Run(t2, [this](TxnId me) {
    return db_.Set(me, 200, 1);  // hotel_res()
  });
  ASSERT_TRUE(hotel.ok() && *hotel);
  ASSERT_TRUE(asset_.DelegateAll(t2, trip).ok());
  ASSERT_TRUE(asset_.Commit(t2).ok());

  ASSERT_TRUE(asset_.Commit(trip).ok());
  EXPECT_EQ(*db_.ReadCommitted(100), 1);
  EXPECT_EQ(*db_.ReadCommitted(200), 1);
}

TEST_F(AssetTest, PaperTripFailurePath) {
  TxnId trip = *asset_.Initiate();
  TxnId t1 = *asset_.Initiate();
  Result<bool> airline =
      asset_.Run(t1, [this](TxnId me) { return db_.Set(me, 100, 1); });
  ASSERT_TRUE(airline.ok() && *airline);
  ASSERT_TRUE(asset_.DelegateAll(t1, trip).ok());
  ASSERT_TRUE(asset_.Commit(t1).ok());

  TxnId t2 = *asset_.Initiate();
  Result<bool> hotel = asset_.Run(
      t2, [](TxnId) { return Status::Aborted("no rooms"); });
  ASSERT_TRUE(hotel.ok());
  EXPECT_FALSE(*hotel);
  // `if (!wait(t2)) abort(self())`:
  ASSERT_TRUE(asset_.Abort(trip).ok());
  EXPECT_EQ(*db_.ReadCommitted(100), 0);  // airline leg unwound with trip
}

TEST_F(AssetTest, FormDependencyPassesThrough) {
  TxnId a = *asset_.Initiate();
  TxnId b = *asset_.Initiate();
  ASSERT_TRUE(asset_.FormDependency(DependencyType::kCommit, b, a).ok());
  EXPECT_TRUE(asset_.Commit(b).IsBusy());
  ASSERT_TRUE(asset_.Commit(a).ok());
  EXPECT_TRUE(asset_.Commit(b).ok());
}

TEST_F(AssetTest, DelegatePassesThrough) {
  TxnId a = *asset_.Initiate();
  TxnId b = *asset_.Initiate();
  ASSERT_TRUE(db_.Set(a, 5, 9).ok());
  ASSERT_TRUE(asset_.Delegate(a, b, {5}).ok());
  ASSERT_TRUE(asset_.Abort(a).ok());
  ASSERT_TRUE(asset_.Commit(b).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 9);
}

}  // namespace
}  // namespace ariesrh::etm
