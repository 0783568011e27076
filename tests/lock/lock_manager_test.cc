#include "lock/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/stats.h"

namespace ariesrh {
namespace {

TEST(LockModeTest, CompatibilityMatrix) {
  using enum LockMode;
  EXPECT_TRUE(LockModesCompatible(kShared, kShared));
  EXPECT_TRUE(LockModesCompatible(kIncrement, kIncrement));
  EXPECT_FALSE(LockModesCompatible(kShared, kIncrement));
  EXPECT_FALSE(LockModesCompatible(kIncrement, kShared));
  EXPECT_FALSE(LockModesCompatible(kExclusive, kShared));
  EXPECT_FALSE(LockModesCompatible(kShared, kExclusive));
  EXPECT_FALSE(LockModesCompatible(kExclusive, kExclusive));
  EXPECT_FALSE(LockModesCompatible(kExclusive, kIncrement));
}

class LockManagerTest : public ::testing::Test {
 protected:
  LockManager locks_;
};

TEST_F(LockManagerTest, SharedLocksCoexist) {
  EXPECT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Holds(1, 10, LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(2, 10, LockMode::kShared));
}

TEST_F(LockManagerTest, IncrementLocksCoexist) {
  EXPECT_TRUE(locks_.Acquire(1, 10, LockMode::kIncrement).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kIncrement).ok());
}

TEST_F(LockManagerTest, ExclusiveConflicts) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).IsBusy());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive).IsBusy());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kIncrement).IsBusy());
  // Different object is free.
  EXPECT_TRUE(locks_.Acquire(2, 11, LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, ReacquireIsNoOp) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());  // weaker
  EXPECT_TRUE(locks_.Holds(1, 10, LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeSoleHolder) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Holds(1, 10, LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeBlockedByOtherHolder) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).IsBusy());
}

TEST_F(LockManagerTest, ReleaseAllFreesEverything) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Acquire(1, 11, LockMode::kShared).ok());
  locks_.ReleaseAll(1);
  EXPECT_FALSE(locks_.Holds(1, 10, LockMode::kShared));
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.HeldLocks(1).empty());
}

TEST_F(LockManagerTest, ReleaseSingleObject) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Acquire(1, 11, LockMode::kExclusive).ok());
  locks_.Release(1, 10);
  EXPECT_FALSE(locks_.Holds(1, 10, LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(1, 11, LockMode::kExclusive));
}

TEST_F(LockManagerTest, TransferMovesLockToDelegatee) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Transfer(1, 2, 10);
  EXPECT_FALSE(locks_.Holds(1, 10, LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(2, 10, LockMode::kExclusive));
  // Delegator now conflicts with its own former lock.
  EXPECT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).IsBusy());
}

TEST_F(LockManagerTest, TransferMergesWithStrongerExistingLock) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  locks_.Transfer(1, 2, 10);
  EXPECT_TRUE(locks_.Holds(2, 10, LockMode::kShared));
  EXPECT_FALSE(locks_.Holds(1, 10, LockMode::kShared));
}

TEST_F(LockManagerTest, TransferOfUnheldLockIsNoOp) {
  locks_.Transfer(1, 2, 10);
  EXPECT_TRUE(locks_.HeldLocks(2).empty());
}

TEST_F(LockManagerTest, PermitBypassesConflict) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).IsBusy());
  locks_.Permit(1, 2, 10);
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  // The permit is directional: txn 3 still conflicts.
  EXPECT_TRUE(locks_.Acquire(3, 10, LockMode::kShared).IsBusy());
}

TEST_F(LockManagerTest, PermitsDieWithOwner) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Permit(1, 2, 10);
  locks_.ReleaseAll(1);
  ASSERT_TRUE(locks_.Acquire(3, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).IsBusy());
}

TEST_F(LockManagerTest, HeldLocksSnapshot) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Acquire(1, 11, LockMode::kIncrement).ok());
  auto held = locks_.HeldLocks(1);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[10], LockMode::kExclusive);
  EXPECT_EQ(held[11], LockMode::kIncrement);
}

TEST_F(LockManagerTest, ResetClearsState) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Reset();
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, IncrementAndSharedConflict) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kIncrement).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).IsBusy());
  ASSERT_TRUE(locks_.Acquire(3, 11, LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Acquire(4, 11, LockMode::kIncrement).IsBusy());
}

TEST_F(LockManagerTest, ObjectZeroIsLockable) {
  ASSERT_TRUE(locks_.Acquire(1, 0, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Holds(1, 0, LockMode::kExclusive));
  EXPECT_TRUE(locks_.Acquire(2, 0, LockMode::kShared).IsBusy());
  locks_.ReleaseAll(1);
  EXPECT_TRUE(locks_.Acquire(2, 0, LockMode::kShared).ok());
}

TEST_F(LockManagerTest, ReleaseOfUnheldObjectIsNoOp) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Release(2, 10);  // txn 2 holds nothing on 10
  locks_.Release(1, 11);  // nobody holds 11
  EXPECT_TRUE(locks_.Holds(1, 10, LockMode::kExclusive));
  EXPECT_TRUE(locks_.HeldLocks(2).empty());
}

TEST_F(LockManagerTest, ReleaseAllOfUnknownTxnIsNoOp) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  locks_.ReleaseAll(7);
  EXPECT_TRUE(locks_.Holds(1, 10, LockMode::kShared));
  EXPECT_EQ(locks_.HeldLocks(1).size(), 1u);
}

TEST_F(LockManagerTest, ReleaseAllKeepsCoHolders) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  ASSERT_TRUE(locks_.Acquire(3, 10, LockMode::kShared).ok());
  locks_.ReleaseAll(2);  // the middle holder
  EXPECT_TRUE(locks_.Holds(1, 10, LockMode::kShared));
  EXPECT_FALSE(locks_.Holds(2, 10, LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(3, 10, LockMode::kShared));
  EXPECT_TRUE(locks_.Acquire(4, 10, LockMode::kExclusive).IsBusy());
}

TEST_F(LockManagerTest, ReleaseKeepsCoHolders) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kIncrement).ok());
  ASSERT_TRUE(locks_.Acquire(2, 10, LockMode::kIncrement).ok());
  locks_.Release(1, 10);
  EXPECT_FALSE(locks_.Holds(1, 10, LockMode::kIncrement));
  EXPECT_TRUE(locks_.Holds(2, 10, LockMode::kIncrement));
  EXPECT_TRUE(locks_.Acquire(3, 10, LockMode::kShared).IsBusy());
}

TEST_F(LockManagerTest, ReleaseThenReacquireHoldsOnce) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Release(1, 10);
  EXPECT_TRUE(locks_.HeldLocks(1).empty());
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  auto held = locks_.HeldLocks(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[10], LockMode::kShared);
  locks_.ReleaseAll(1);
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, UpgradeKeepsOneHeldEntry) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  auto held = locks_.HeldLocks(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[10], LockMode::kExclusive);
  locks_.Release(1, 10);
  EXPECT_TRUE(locks_.HeldLocks(1).empty());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, ManyObjectsAcrossShards) {
  // Enough objects that every shard's table and held index grow well past
  // their first allocation.
  constexpr ObjectId kObjects = 5000;
  for (ObjectId ob = 0; ob < kObjects; ++ob) {
    ASSERT_TRUE(locks_.Acquire(1, ob * 7, LockMode::kExclusive).ok());
  }
  auto held = locks_.HeldLocks(1);
  ASSERT_EQ(held.size(), kObjects);
  EXPECT_EQ(held.begin()->first, 0u);
  EXPECT_EQ(held.rbegin()->first, (kObjects - 1) * 7);
  for (ObjectId ob = 0; ob < kObjects; ob += 97) {
    EXPECT_TRUE(locks_.Acquire(2, ob * 7, LockMode::kShared).IsBusy());
    EXPECT_TRUE(locks_.Acquire(2, ob * 7 + 1, LockMode::kShared).ok());
  }
  locks_.ReleaseAll(1);
  EXPECT_TRUE(locks_.HeldLocks(1).empty());
  for (ObjectId ob = 0; ob < kObjects; ++ob) {
    ASSERT_TRUE(locks_.Acquire(3, ob * 7, LockMode::kExclusive).ok());
  }
}

TEST_F(LockManagerTest, RepeatedAcquireReleaseAllRounds) {
  for (int round = 0; round < 50; ++round) {
    const TxnId txn = 100 + round;
    for (ObjectId ob = 0; ob < 16; ++ob) {
      ASSERT_TRUE(locks_.Acquire(txn, ob, LockMode::kExclusive).ok());
    }
    ASSERT_EQ(locks_.HeldLocks(txn).size(), 16u);
    locks_.ReleaseAll(txn);
    ASSERT_TRUE(locks_.HeldLocks(txn).empty());
  }
  for (ObjectId ob = 0; ob < 16; ++ob) {
    EXPECT_TRUE(locks_.Acquire(1, ob, LockMode::kExclusive).ok());
  }
}

TEST_F(LockManagerTest, PermitGrantedBeforeOwnerLocks) {
  locks_.Permit(1, 2, 10);
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Acquire(3, 10, LockMode::kShared).IsBusy());
}

TEST_F(LockManagerTest, PermitOutlivesSingleObjectRelease) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Permit(1, 2, 10);
  locks_.Release(1, 10);  // not termination: the permit stays
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
}

TEST_F(LockManagerTest, PermitIsPerObject) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Acquire(1, 11, LockMode::kExclusive).ok());
  locks_.Permit(1, 2, 10);
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Acquire(2, 11, LockMode::kShared).IsBusy());
}

TEST_F(LockManagerTest, TransferUpgradesDelegateesWeakerLock) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Permit(1, 2, 10);
  ASSERT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).ok());
  locks_.Transfer(1, 2, 10);
  EXPECT_TRUE(locks_.Holds(2, 10, LockMode::kExclusive));
  auto held = locks_.HeldLocks(2);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[10], LockMode::kExclusive);
  EXPECT_TRUE(locks_.HeldLocks(1).empty());
}

TEST_F(LockManagerTest, TransferMovesOnlyTheNamedObject) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Acquire(1, 11, LockMode::kIncrement).ok());
  locks_.Transfer(1, 2, 10);
  auto from = locks_.HeldLocks(1);
  ASSERT_EQ(from.size(), 1u);
  EXPECT_EQ(from[11], LockMode::kIncrement);
  auto to = locks_.HeldLocks(2);
  ASSERT_EQ(to.size(), 1u);
  EXPECT_EQ(to[10], LockMode::kExclusive);
}

TEST_F(LockManagerTest, TransferredLockEndsWithDelegatee) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Transfer(1, 2, 10);
  locks_.ReleaseAll(1);
  EXPECT_TRUE(locks_.Holds(2, 10, LockMode::kExclusive));
  EXPECT_TRUE(locks_.Acquire(3, 10, LockMode::kShared).IsBusy());
  locks_.ReleaseAll(2);
  EXPECT_TRUE(locks_.Acquire(3, 10, LockMode::kShared).ok());
}

TEST_F(LockManagerTest, DelegateBackAndForth) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.Transfer(1, 2, 10);
  locks_.Transfer(2, 1, 10);
  EXPECT_TRUE(locks_.Holds(1, 10, LockMode::kExclusive));
  EXPECT_TRUE(locks_.HeldLocks(2).empty());
  ASSERT_EQ(locks_.HeldLocks(1).size(), 1u);
  locks_.ReleaseAll(1);
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, EarlyReleasedHolderBlocksWithoutElr) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.MarkEarlyReleased(1, /*commit_lsn=*/42);
  EXPECT_FALSE(locks_.Holds(1, 10, LockMode::kShared));
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kShared).IsBusy());
}

TEST_F(LockManagerTest, EarlyReleasedHolderYieldsACommitDependency) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Acquire(1, 11, LockMode::kExclusive).ok());
  locks_.MarkEarlyReleased(1, /*commit_lsn=*/42);
  LockManager::CommitDependencyList deps;
  ASSERT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive, &deps).ok());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].on, 1u);
  EXPECT_EQ(deps[0].commit_lsn, 42u);
  EXPECT_TRUE(locks_.Holds(2, 10, LockMode::kExclusive));
  // Both marks came from one call.
  ASSERT_TRUE(locks_.Acquire(2, 11, LockMode::kShared, &deps).ok());
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_EQ(deps[1].on, 1u);
  EXPECT_EQ(deps[1].commit_lsn, 42u);
}

TEST_F(LockManagerTest, BusyAcquireLeavesDependenciesUntouched) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(locks_.Acquire(3, 10, LockMode::kShared).ok());
  locks_.MarkEarlyReleased(1, /*commit_lsn=*/42);
  LockManager::CommitDependencyList deps = {{/*on=*/9, /*commit_lsn=*/7}};
  // Txn 3 still blocks: the request fails and adds nothing for txn 1.
  EXPECT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive, &deps).IsBusy());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].on, 9u);
}

TEST_F(LockManagerTest, EarlyReleaseMarksOnlyThatTransaction) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(locks_.Acquire(3, 11, LockMode::kShared).ok());
  locks_.MarkEarlyReleased(1, /*commit_lsn=*/42);
  LockManager::CommitDependencyList deps;
  EXPECT_TRUE(locks_.Acquire(2, 11, LockMode::kExclusive, &deps).IsBusy());
  EXPECT_TRUE(deps.empty());
  EXPECT_TRUE(locks_.Holds(3, 11, LockMode::kShared));
}

TEST_F(LockManagerTest, ReleaseAllRemovesEarlyReleasedEntries) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  locks_.MarkEarlyReleased(1, /*commit_lsn=*/42);
  EXPECT_EQ(locks_.HeldLocks(1).size(), 1u);  // still in the table
  locks_.ReleaseAll(1);
  EXPECT_TRUE(locks_.HeldLocks(1).empty());
  LockManager::CommitDependencyList deps;
  ASSERT_TRUE(locks_.Acquire(2, 10, LockMode::kExclusive, &deps).ok());
  EXPECT_TRUE(deps.empty());
}

TEST_F(LockManagerTest, ResetForgetsHeldIndex) {
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Acquire(1, 11, LockMode::kShared).ok());
  locks_.Reset();
  EXPECT_TRUE(locks_.HeldLocks(1).empty());
  EXPECT_FALSE(locks_.Holds(1, 11, LockMode::kShared));
  locks_.ReleaseAll(1);  // nothing left to release
  ASSERT_TRUE(locks_.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_EQ(locks_.HeldLocks(1).size(), 1u);
}

TEST(LockManagerStatsTest, CountsAcquiresConflictsTransfersPermits) {
  Stats stats;
  LockManager locks(&stats);
  ASSERT_TRUE(locks.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks.Acquire(1, 10, LockMode::kShared).ok());  // no-op
  EXPECT_TRUE(locks.Acquire(2, 10, LockMode::kShared).IsBusy());
  locks.Permit(1, 2, 10);
  ASSERT_TRUE(locks.Acquire(2, 10, LockMode::kShared).ok());
  locks.Transfer(1, 3, 10);
  locks.Transfer(1, 3, 10);  // nothing left to move
  EXPECT_EQ(stats.lock_acquires.value(), 2u);
  EXPECT_EQ(stats.lock_conflicts.value(), 1u);
  EXPECT_EQ(stats.lock_permits.value(), 1u);
  EXPECT_EQ(stats.lock_transfers.value(), 1u);
}

TEST(LockManagerConcurrencyTest, DistinctObjectsNeverConflict) {
  LockManager locks;
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&locks, &failures, t] {
      const TxnId txn = 1 + t;
      for (int round = 0; round < 200; ++round) {
        for (ObjectId ob = 0; ob < 8; ++ob) {
          const ObjectId mine = ob * kThreads + t;
          if (!locks.Acquire(txn, mine, LockMode::kExclusive).ok()) {
            ++failures;
          }
        }
        locks.ReleaseAll(txn);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (TxnId txn = 1; txn <= kThreads; ++txn) {
    EXPECT_TRUE(locks.HeldLocks(txn).empty());
  }
}

TEST(LockManagerConcurrencyTest, OneExclusiveWinnerPerObject) {
  LockManager locks;
  constexpr int kThreads = 4;
  constexpr ObjectId kObjects = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&locks, t] {
      for (ObjectId ob = 0; ob < kObjects; ++ob) {
        (void)locks.Acquire(1 + t, ob, LockMode::kExclusive);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  size_t granted = 0;
  for (TxnId txn = 1; txn <= kThreads; ++txn) {
    granted += locks.HeldLocks(txn).size();
  }
  EXPECT_EQ(granted, kObjects);
}

}  // namespace
}  // namespace ariesrh
