// Co-transactions synthesized from delegation (paper Section 2.2).

#include "etm/cotransaction.h"

#include <gtest/gtest.h>

#include "restart_util.h"

namespace ariesrh::etm {
namespace {

class CoTransactionTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(CoTransactionTest, ControlAlternatesOnYield) {
  Result<CoTransactionPair> pair = CoTransactionPair::Create(&db_);
  ASSERT_TRUE(pair.ok());
  const TxnId first = pair->active();
  const TxnId second = pair->passive();
  ASSERT_TRUE(pair->Yield().ok());
  EXPECT_EQ(pair->active(), second);
  ASSERT_TRUE(pair->Yield().ok());
  EXPECT_EQ(pair->active(), first);
}

TEST_F(CoTransactionTest, ResponsibilityFollowsControl) {
  CoTransactionPair pair = *CoTransactionPair::Create(&db_);
  ASSERT_TRUE(db_.Set(pair.active(), 1, 10).ok());
  const TxnId worker = pair.active();
  ASSERT_TRUE(pair.Yield().ok());
  EXPECT_FALSE(db_.shard(0)->txn_manager()->Find(worker)->IsResponsibleFor(1));
  EXPECT_TRUE(
      db_.shard(0)->txn_manager()->Find(pair.active())->IsResponsibleFor(1));
}

TEST_F(CoTransactionTest, PartnersAccumulateSharedWork) {
  CoTransactionPair pair = *CoTransactionPair::Create(&db_);
  ASSERT_TRUE(db_.Set(pair.active(), 1, 10).ok());
  ASSERT_TRUE(pair.Yield().ok());
  ASSERT_TRUE(db_.Set(pair.active(), 2, 20).ok());
  ASSERT_TRUE(pair.Yield().ok());
  ASSERT_TRUE(db_.Set(pair.active(), 3, 30).ok());
  ASSERT_TRUE(pair.Finish(/*commit=*/true).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 20);
  EXPECT_EQ(*db_.ReadCommitted(3), 30);
}

TEST_F(CoTransactionTest, FinishAbortDiscardsEverything) {
  CoTransactionPair pair = *CoTransactionPair::Create(&db_);
  ASSERT_TRUE(db_.Set(pair.active(), 1, 10).ok());
  ASSERT_TRUE(pair.Yield().ok());
  ASSERT_TRUE(db_.Set(pair.active(), 2, 20).ok());
  ASSERT_TRUE(pair.Finish(/*commit=*/false).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

TEST_F(CoTransactionTest, ActivePartnerSeesPriorWork) {
  CoTransactionPair pair = *CoTransactionPair::Create(&db_);
  ASSERT_TRUE(db_.Set(pair.active(), 1, 10).ok());
  ASSERT_TRUE(pair.Yield().ok());
  // Lock transferred with the delegation: the new active side reads and
  // even overwrites the partner's tentative value.
  EXPECT_EQ(*db_.Read(pair.active(), 1), 10);
  ASSERT_TRUE(db_.Set(pair.active(), 1, 11).ok());
  ASSERT_TRUE(pair.Finish(true).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 11);
}

TEST_F(CoTransactionTest, CrashDuringPingPongLosesUncommittedWork) {
  CoTransactionPair pair = *CoTransactionPair::Create(&db_);
  ASSERT_TRUE(db_.Set(pair.active(), 1, 10).ok());
  ASSERT_TRUE(pair.Yield().ok());
  ASSERT_TRUE(db_.Set(pair.active(), 2, 20).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

}  // namespace
}  // namespace ariesrh::etm
