// The cross-shard crash matrix: stop the engine at every named point inside
// the two cross-shard protocols (two-phase commit, cross-shard delegation),
// crash, recover, and compare the surviving state against the serial ground
// truth the protocol's commit point dictates. Atomicity means there is never
// a third possibility: each round is either entirely absent or entirely
// applied, on every shard, at every crash point.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

/// Every matrix runs under both ways a shard forces its votes and legs:
/// direct forces one shard after another (the default options), and the
/// device-paced group-commit flusher, where one round overlaps the forces.
std::vector<Options> MatrixOptions(size_t shards, RecoveryMode mode) {
  Options direct;
  direct.num_shards = shards;
  direct.recovery_mode = mode;
  Options flusher = direct;
  flusher.group_commit = true;
  flusher.group_commit_policy = GroupCommitPolicy::kAdaptive;
  return {direct, flusher};
}

std::string Describe(const Options& options) {
  return std::string("shards=") + std::to_string(options.num_shards) +
         (options.group_commit ? " flusher" : " direct");
}

ObjectId ObOnShard(const Database& db, size_t shard, ObjectId from = 1) {
  for (ObjectId ob = from;; ++ob) {
    if (db.ShardOf(ob) == shard) return ob;
  }
}

/// One object per shard, so every cross-shard round touches all of them.
std::vector<ObjectId> OnePerShard(const Database& db) {
  std::vector<ObjectId> obs;
  ObjectId next = 1;
  for (size_t s = 0; s < db.num_shards(); ++s) {
    obs.push_back(ObOnShard(db, s, next));
    next = obs.back() + 1;
  }
  return obs;
}

/// Installs a hook that fails at `point`, runs `protocol` (which must be
/// stopped there), then crashes and recovers. Returns the merged recovery
/// outcome.
RecoveryManager::Outcome RunToCrashPoint(
    Database* db, const std::string& point,
    const std::function<Status()>& protocol) {
  bool fired = false;
  db->set_test_hook([&](std::string_view at) {
    if (at == point) {
      fired = true;
      return Status::IOError("injected crash at " + point);
    }
    return Status::OK();
  });
  const Status status = protocol();
  db->set_test_hook(nullptr);
  EXPECT_TRUE(fired) << "hook point " << point << " never reached";
  EXPECT_FALSE(status.ok()) << "protocol ignored the stop at " << point;
  db->SimulateCrash();
  const Result<RecoveryManager::Outcome> outcome = RestartAndAwait(*db);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? *outcome : RecoveryManager::Outcome{};
}

// The whole matrix runs under both recovery modes. Under kInstant the
// RestartAndAwait inside RunToCrashPoint starts the instant restart and
// Await()s it, so every ground-truth assertion doubles as an observational
// equivalence check against what kFull produces at the same crash point.
class ShardedCrashMatrixTest
    : public ::testing::TestWithParam<std::tuple<size_t, RecoveryMode>> {
 protected:
  size_t shard_count() const { return std::get<0>(GetParam()); }
  RecoveryMode mode() const { return std::get<1>(GetParam()); }
  std::vector<Options> option_sets() const {
    return MatrixOptions(shard_count(), mode());
  }
};

// --- two-phase commit ---

/// The 2PC points and whether a crash there loses the transaction (before
/// the coordinator's forced COMMIT) or preserves it (after).
struct TwoPcPoint {
  std::string point;
  bool committed;
};

std::vector<TwoPcPoint> TwoPcMatrix(size_t shards) {
  std::vector<TwoPcPoint> points;
  for (size_t s = 0; s < shards; ++s) {
    points.push_back({"2pc:before-prepare:" + std::to_string(s), false});
  }
  points.push_back({"2pc:votes-appended", false});
  points.push_back({"2pc:before-decision", false});
  points.push_back({"2pc:after-decision", true});
  for (size_t s = 0; s < shards; ++s) {
    points.push_back({"2pc:before-finish:" + std::to_string(s), true});
  }
  return points;
}

TEST_P(ShardedCrashMatrixTest, TwoPhaseCommitIsAtomicAtEveryCrashPoint) {
  for (const Options& options : option_sets()) {
    for (const TwoPcPoint& pt : TwoPcMatrix(options.num_shards)) {
      Database db(options);
      const std::vector<ObjectId> obs = OnePerShard(db);
      // A committed backdrop value distinguishes "undone" from "never ran".
      TxnId setup = *db.Begin();
      for (ObjectId ob : obs) ASSERT_TRUE(db.Set(setup, ob, 100).ok());
      ASSERT_TRUE(db.Commit(setup).ok());
      ASSERT_TRUE(db.Sync().ok());

      TxnId t = *db.Begin();
      for (ObjectId ob : obs) ASSERT_TRUE(db.Set(t, ob, 7).ok());
      RunToCrashPoint(&db, pt.point, [&] { return db.Commit(t); });

      const int64_t expected = pt.committed ? 7 : 100;
      for (ObjectId ob : obs) {
        EXPECT_EQ(*db.ReadCommitted(ob), expected)
            << Describe(options) << " point=" << pt.point << " ob=" << ob;
      }
    }
  }
}

TEST_P(ShardedCrashMatrixTest, InDoubtCountsMatchTheDecisionPoint) {
  const size_t shards = shard_count();
  for (const Options& options : option_sets()) {
    SCOPED_TRACE(Describe(options));
    // Crash after the decision, before any second-phase record: every shard
    // is in doubt and every one must resolve committed.
    Database db(options);
    const std::vector<ObjectId> obs = OnePerShard(db);
    TxnId t = *db.Begin();
    for (ObjectId ob : obs) ASSERT_TRUE(db.Set(t, ob, 7).ok());
    bool fired = false;
    db.set_test_hook([&](std::string_view at) {
      if (at == "2pc:after-decision") {
        fired = true;
        return Status::IOError("crash");
      }
      return Status::OK();
    });
    EXPECT_FALSE(db.Commit(t).ok());
    db.set_test_hook(nullptr);
    ASSERT_TRUE(fired);
    db.SimulateCrash();
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->in_doubt_committed, shards);
    EXPECT_EQ(outcome->in_doubt_aborted, 0u);

    // And the mirror image: crash before the decision leaves every prepared
    // shard to presumed abort.
    Database db2(options);
    const std::vector<ObjectId> obs2 = OnePerShard(db2);
    TxnId t2 = *db2.Begin();
    for (ObjectId ob : obs2) ASSERT_TRUE(db2.Set(t2, ob, 7).ok());
    const RecoveryManager::Outcome aborted = RunToCrashPoint(
        &db2, "2pc:before-decision", [&] { return db2.Commit(t2); });
    EXPECT_EQ(aborted.in_doubt_committed, 0u);
    EXPECT_EQ(aborted.in_doubt_aborted, shards);
    for (ObjectId ob : obs2) EXPECT_EQ(*db2.ReadCommitted(ob), 0);
  }
}

// --- cross-shard delegation ---

/// Every crash point inside the delegation transfer leaves both parties
/// active — so after crash + recovery both are losers and every update is
/// undone, whether the transfer's legs were voided (before the decision) or
/// applied (after). The matrix asserts that totality: no half-transferred
/// scope may rescue or strand an update on any shard.
TEST_P(ShardedCrashMatrixTest, DelegationCrashLeavesNoHalfTransfer) {
  std::vector<std::string> points = {"xdel:before-coord-prepare",
                                     "xdel:legs-appended",
                                     "xdel:before-decision",
                                     "xdel:after-decision"};
  for (size_t s = 0; s < shard_count(); ++s) {
    points.push_back("xdel:before-apply:" + std::to_string(s));
  }
  for (const Options& options : option_sets()) {
    for (const std::string& point : points) {
      Database db(options);
      const std::vector<ObjectId> obs = OnePerShard(db);
      TxnId setup = *db.Begin();
      for (ObjectId ob : obs) ASSERT_TRUE(db.Set(setup, ob, 100).ok());
      ASSERT_TRUE(db.Commit(setup).ok());
      ASSERT_TRUE(db.Sync().ok());

      TxnId tor = *db.Begin();
      TxnId tee = *db.Begin();
      for (ObjectId ob : obs) ASSERT_TRUE(db.Add(tor, ob, 1).ok());
      RunToCrashPoint(&db, point, [&] {
        return db.Delegate(tor, tee, DelegationSpec::All());
      });
      for (ObjectId ob : obs) {
        EXPECT_EQ(*db.ReadCommitted(ob), 100)
            << Describe(options) << " point=" << point << " ob=" << ob;
      }
    }
  }
}

/// The decision point is what makes the difference once the delegatee
/// commits: legs applied before a crash survive iff the coordinator's
/// COMMIT became durable. (The tee's commit is a separate 2PC round; the
/// delegation round's verdict decides whose transaction the scopes died
/// or lived with.)
TEST_P(ShardedCrashMatrixTest, DelegationDecisionGatesTheHandover) {
  for (const Options& options : option_sets()) {
    SCOPED_TRACE(Describe(options));
    // Committed handover: transfer completes, tee commits, crash. All the
    // delegated updates belong to the committed tee and must survive.
    Database db(options);
    const std::vector<ObjectId> obs = OnePerShard(db);
    TxnId tor = *db.Begin();
    TxnId tee = *db.Begin();
    for (ObjectId ob : obs) ASSERT_TRUE(db.Set(tor, ob, 9).ok());
    ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::All()).ok());
    ASSERT_TRUE(db.Commit(tee).ok());
    db.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(db).ok());
    for (ObjectId ob : obs) EXPECT_EQ(*db.ReadCommitted(ob), 9);

    // Voided handover: the coordinator COMMIT never became durable, so even
    // a tee that then "commits" (it holds nothing yet — the legs are applied
    // only in volatile state on some shards) cannot keep the updates.
    Database db2(options);
    const std::vector<ObjectId> obs2 = OnePerShard(db2);
    TxnId tor2 = *db2.Begin();
    TxnId tee2 = *db2.Begin();
    for (ObjectId ob : obs2) ASSERT_TRUE(db2.Set(tor2, ob, 9).ok());
    RunToCrashPoint(&db2, "xdel:before-decision", [&] {
      return db2.Delegate(tor2, tee2, DelegationSpec::All());
    });
    for (ObjectId ob : obs2) EXPECT_EQ(*db2.ReadCommitted(ob), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, ShardedCrashMatrixTest,
    ::testing::Combine(::testing::Values<size_t>(2, 4),
                       ::testing::Values(RecoveryMode::kFull,
                                         RecoveryMode::kInstant)),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_" +
             RecoveryModeName(std::get<1>(info.param));
    });

/// At one shard no protocol point is ever reached: the hook must stay
/// silent and the classic paths carry the same workloads unchanged.
TEST(ShardedCrashMatrixTest1Shard, ProtocolPointsNeverFireUnsharded) {
  Database db;
  std::vector<std::string> seen;
  db.set_test_hook([&](std::string_view at) {
    // Only the protocols' points: restart's fire at every shard count.
    if (!at.starts_with("2pc:") && !at.starts_with("xdel:")) {
      return Status::OK();
    }
    seen.emplace_back(at);
    return Status::IOError("should never fire");
  });
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 1).ok());
  ASSERT_TRUE(db.Set(t1, 2, 2).ok());
  ASSERT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({2})).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 1);
  EXPECT_EQ(*db.ReadCommitted(2), 2);
  EXPECT_TRUE(seen.empty());
}

}  // namespace
}  // namespace ariesrh
