// Log-level reproduction of the paper's running examples: Example 1 /
// Figure 2 (the rewritten-history view of the log) and the operational
// semantics of Figure 1, realized through scopes instead of log mutation.

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class PaperExamplesTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(PaperExamplesTest, Example1RewritesResponsibilityNotTheLog) {
  // Figure 2's log:
  //   100: update[t1, a]   101: update[t2, x]   102: update[t2, a]
  //   103: update[t1, b]   104: update[t1, a]   105: update[t2, y]
  //   106: delegate(t1, a, t2)
  // Objects a,b,x,y are increments so t1 and t2 can interleave on `a`.
  constexpr ObjectId a = 1, b = 2, x = 3, y = 4;
  TxnId t1 = *db_.Begin();  // BEGIN records occupy two LSNs first
  TxnId t2 = *db_.Begin();

  ASSERT_TRUE(db_.Add(t1, a, 1).ok());
  const Lsn lsn_100 = db_.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db_.Add(t2, x, 1).ok());
  ASSERT_TRUE(db_.Add(t2, a, 1).ok());
  const Lsn lsn_102 = db_.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db_.Add(t1, b, 1).ok());
  const Lsn lsn_103 = db_.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db_.Add(t1, a, 1).ok());
  const Lsn lsn_104 = db_.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db_.Add(t2, y, 1).ok());

  // Before the delegation, t1 is responsible for its updates to a.
  EXPECT_EQ(*db_.shard(0)->txn_manager()->ResponsibleTxn(t1, a, lsn_100), t1);
  EXPECT_EQ(*db_.shard(0)->txn_manager()->ResponsibleTxn(t1, a, lsn_104), t1);

  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({a})).ok());
  const Lsn delegate_lsn = db_.shard(0)->log_manager()->end_lsn();

  // "After rewriting": t1's updates to `a` now appear to be t2's...
  EXPECT_EQ(*db_.shard(0)->txn_manager()->ResponsibleTxn(t1, a, lsn_100), t2);
  EXPECT_EQ(*db_.shard(0)->txn_manager()->ResponsibleTxn(t1, a, lsn_104), t2);
  // ...t2's own update to `a` is unaffected in ownership...
  EXPECT_EQ(*db_.shard(0)->txn_manager()->ResponsibleTxn(t2, a, lsn_102), t2);
  // ...and update[t1, b] still belongs to t1 (Figure 2 leaves 103 alone).
  EXPECT_EQ(*db_.shard(0)->txn_manager()->ResponsibleTxn(t1, b, lsn_103), t1);

  // RH's whole point: the log records themselves are untouched.
  LogRecord rec100 = *db_.shard(0)->log_manager()->Read(lsn_100);
  LogRecord rec104 = *db_.shard(0)->log_manager()->Read(lsn_104);
  EXPECT_EQ(rec100.txn_id, t1);
  EXPECT_EQ(rec104.txn_id, t1);
  // The delegate record carries both backward-chain pointers (Figure 6).
  LogRecord drec = *db_.shard(0)->log_manager()->Read(delegate_lsn);
  EXPECT_EQ(drec.type, LogRecordType::kDelegate);
  EXPECT_EQ(drec.tor, t1);
  EXPECT_EQ(drec.tee, t2);
  EXPECT_EQ(drec.tor_bc, lsn_104);  // t1's previous record
  EXPECT_EQ(drec.objects, std::vector<ObjectId>{a});
}

TEST_F(PaperExamplesTest, Example1EagerModePhysicallyRewrites) {
  // The same history under the eager baseline really does edit the log,
  // exactly as Figure 2's "after rewriting" picture shows.
  Options options;
  options.delegation_mode = DelegationMode::kEager;
  Database db(options);
  constexpr ObjectId a = 1, b = 2, x = 3, y = 4;
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Add(t1, a, 1).ok());
  const Lsn lsn_100 = db.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db.Add(t2, x, 1).ok());
  ASSERT_TRUE(db.Add(t2, a, 1).ok());
  ASSERT_TRUE(db.Add(t1, b, 1).ok());
  const Lsn lsn_103 = db.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db.Add(t1, a, 1).ok());
  const Lsn lsn_104 = db.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db.Add(t2, y, 1).ok());

  ASSERT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({a})).ok());

  LogManager* log = db.shard(0)->log_manager();
  EXPECT_EQ(log->Read(lsn_100)->txn_id, t2);  // rewritten
  EXPECT_EQ(log->Read(lsn_104)->txn_id, t2);  // rewritten
  EXPECT_EQ(log->Read(lsn_103)->txn_id, t1);  // update[t1,b]
}

TEST_F(PaperExamplesTest, BothViewsAgreeOnRecoveryOutcome) {
  // Whether history is interpreted (RH) or physically rewritten (eager),
  // Example 1 followed by "t2 commits, t1 stays active, crash" must keep
  // all of a's increments (all delegated to or invoked by t2) and drop b's.
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kEager}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    constexpr ObjectId a = 1, b = 2;
    TxnId t1 = *db.Begin();
    TxnId t2 = *db.Begin();
    ASSERT_TRUE(db.Add(t1, a, 1).ok());
    ASSERT_TRUE(db.Add(t2, a, 10).ok());
    ASSERT_TRUE(db.Add(t1, b, 5).ok());
    ASSERT_TRUE(db.Add(t1, a, 1).ok());
    ASSERT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({a})).ok());
    ASSERT_TRUE(db.Commit(t2).ok());
    db.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(db).ok());
    EXPECT_EQ(*db.ReadCommitted(a), 12) << DelegationModeName(mode);
    EXPECT_EQ(*db.ReadCommitted(b), 0) << DelegationModeName(mode);
  }
}

TEST_F(PaperExamplesTest, BackwardChainsMergeAtDelegateRecord) {
  // Section 3.3: applying delegate(t1,t2,ob) amounts to moving the ob
  // subchain of BC(t1) into BC(t2). Verify the DELEGATE record becomes the
  // head of both chains and that chain walks reach both sides' records.
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, 1, 1).ok());
  ASSERT_TRUE(db_.Add(t2, 2, 1).ok());
  const Lsn t2_update = db_.shard(0)->log_manager()->end_lsn();
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({1})).ok());
  const Lsn d = db_.shard(0)->log_manager()->end_lsn();

  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t1)->last_lsn, d);
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t2)->last_lsn, d);
  LogRecord drec = *db_.shard(0)->log_manager()->Read(d);
  EXPECT_EQ(drec.tee_bc, t2_update);
  // A later update of t2 chains onto the delegate record.
  ASSERT_TRUE(db_.Add(t2, 2, 1).ok());
  LogManager* log = db_.shard(0)->log_manager();
  LogRecord next = *log->Read(log->end_lsn());
  EXPECT_EQ(next.prev_lsn, d);
}

}  // namespace
}  // namespace ariesrh
