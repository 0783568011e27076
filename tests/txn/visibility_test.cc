// Visibility matrix: how reads, locks, permits, and delegation compose —
// the paper's "broadening the visibility of the delegatee" (§1, §2.1) in
// every direction.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"

namespace ariesrh {
namespace {

class VisibilityTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(VisibilityTest, UncommittedSetInvisibleToOthers) {
  TxnId writer = *db_.Begin();
  TxnId reader = *db_.Begin();
  ASSERT_TRUE(db_.Set(writer, 5, 42).ok());
  EXPECT_TRUE(db_.Read(reader, 5).status().IsBusy());
  ASSERT_TRUE(db_.Commit(writer).ok());
  EXPECT_EQ(*db_.Read(reader, 5), 42);
}

TEST_F(VisibilityTest, ReadersBlockWriters) {
  TxnId reader = *db_.Begin();
  TxnId writer = *db_.Begin();
  ASSERT_EQ(*db_.Read(reader, 5), 0);
  EXPECT_TRUE(db_.Set(writer, 5, 1).IsBusy());
  EXPECT_TRUE(db_.Add(writer, 5, 1).IsBusy());
  ASSERT_TRUE(db_.Commit(reader).ok());
  EXPECT_TRUE(db_.Set(writer, 5, 1).ok());
}

TEST_F(VisibilityTest, ReadersDoNotBlockReaders) {
  TxnId r1 = *db_.Begin();
  TxnId r2 = *db_.Begin();
  EXPECT_TRUE(db_.Read(r1, 5).ok());
  EXPECT_TRUE(db_.Read(r2, 5).ok());
}

TEST_F(VisibilityTest, IncrementersBlockReaders) {
  TxnId adder = *db_.Begin();
  TxnId reader = *db_.Begin();
  ASSERT_TRUE(db_.Add(adder, 5, 1).ok());
  EXPECT_TRUE(db_.Read(reader, 5).status().IsBusy());
}

TEST_F(VisibilityTest, PermitExposesTentativeState) {
  TxnId writer = *db_.Begin();
  TxnId peer = *db_.Begin();
  ASSERT_TRUE(db_.Set(writer, 5, 42).ok());
  ASSERT_TRUE(db_.Permit(writer, peer, 5).ok());
  // The peer sees the uncommitted value — data sharing without forming a
  // dependency (ASSET's permit).
  EXPECT_EQ(*db_.Read(peer, 5), 42);
  // And, unlike delegation, the writer still owns the update's fate.
  ASSERT_TRUE(db_.Abort(writer).ok());
  ASSERT_TRUE(db_.Commit(peer).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(VisibilityTest, PermitIsPerObject) {
  TxnId writer = *db_.Begin();
  TxnId peer = *db_.Begin();
  ASSERT_TRUE(db_.Set(writer, 5, 1).ok());
  ASSERT_TRUE(db_.Set(writer, 6, 2).ok());
  ASSERT_TRUE(db_.Permit(writer, peer, 5).ok());
  EXPECT_TRUE(db_.Read(peer, 5).ok());
  EXPECT_TRUE(db_.Read(peer, 6).status().IsBusy());
}

// Run at one shard and at two: permits go through the facade's routes at
// every shard count.
class PermitAtShardsTest : public ::testing::TestWithParam<size_t> {
 protected:
  static Options WithShards(size_t shards) {
    Options options;
    options.num_shards = shards;
    return options;
  }
  Database db_{WithShards(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(Shards, PermitAtShardsTest, ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(PermitAtShardsTest, PermitRequiresLiveParties) {
  TxnId writer = *db_.Begin();
  TxnId peer = *db_.Begin();
  ASSERT_TRUE(db_.Commit(writer).ok());
  EXPECT_TRUE(db_.Permit(writer, peer, 5).IsIllegalState());
  EXPECT_TRUE(db_.Permit(peer, writer, 5).IsIllegalState());
  EXPECT_TRUE(db_.Permit(999, peer, 5).IsNotFound());
}

// A transaction may permit itself (a no-op grant); the facade must not lock
// the one route twice.
TEST_P(PermitAtShardsTest, SelfPermitIsHarmless) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 1).ok());
  EXPECT_TRUE(db_.Permit(t, t, 5).ok());
  EXPECT_TRUE(db_.Commit(t).ok());
}

TEST_F(VisibilityTest, DelegationTransfersVisibilityPermitDoesNot) {
  // Permit grants *access*; delegation grants *ownership*. After permit,
  // the grantee cannot write (the owner's X lock still conflicts for
  // writes unless permitted, and the grantee gets no responsibility).
  TxnId owner = *db_.Begin();
  TxnId grantee = *db_.Begin();
  ASSERT_TRUE(db_.Set(owner, 5, 1).ok());
  ASSERT_TRUE(db_.Permit(owner, grantee, 5).ok());
  EXPECT_TRUE(db_.Read(grantee, 5).ok());
  EXPECT_FALSE(db_.shard(0)->txn_manager()->Find(grantee)->IsResponsibleFor(5));

  ASSERT_TRUE(db_.Delegate(owner, grantee, DelegationSpec::Objects({5})).ok());
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(grantee)->IsResponsibleFor(5));
  // Ownership (the lock) moved with the delegation.
  EXPECT_TRUE(
      db_.shard(0)->lock_manager()->Holds(grantee, 5, LockMode::kExclusive));
}

TEST_F(VisibilityTest, PermittedWriterCanActuallyWrite) {
  TxnId owner = *db_.Begin();
  TxnId peer = *db_.Begin();
  ASSERT_TRUE(db_.Set(owner, 5, 1).ok());
  ASSERT_TRUE(db_.Permit(owner, peer, 5).ok());
  // The permit also clears the way for updates (cooperative editing).
  EXPECT_TRUE(db_.Set(peer, 5, 2).ok());
  ASSERT_TRUE(db_.Commit(owner).ok());
  ASSERT_TRUE(db_.Commit(peer).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 2);
}

TEST_F(VisibilityTest, LockReleaseMakesCommittedStateVisible) {
  TxnId writer = *db_.Begin();
  ASSERT_TRUE(db_.Add(writer, 5, 3).ok());
  ASSERT_TRUE(db_.Abort(writer).ok());
  TxnId reader = *db_.Begin();
  EXPECT_EQ(*db_.Read(reader, 5), 0);  // rollback visible, lock released
}

TEST_F(VisibilityTest, DelegateeOfLockTransferBlocksFormerOwner) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, 5, 1).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  // t1 lost its increment lock to t2: a read now conflicts with t2's
  // increment lock (S-I incompatible)...
  EXPECT_TRUE(db_.Read(t1, 5).status().IsBusy());
  // ...but a fresh increment still commutes (I-I compatible), after which
  // t1 holds its own I lock again and may read through it.
  EXPECT_TRUE(db_.Add(t1, 5, 1).ok());
  EXPECT_TRUE(db_.Read(t1, 5).ok());
}

}  // namespace
}  // namespace ariesrh
