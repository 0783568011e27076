// Log archiving, and how delegation pins the log tail: a live scope keeps
// the records it covers (and everything recovery needs around them) from
// being archived, no matter how old they are.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/oracle.h"
#include "util/random.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class ArchiveTest : public ::testing::Test {
 protected:
  Database db_;

  // Some committed noise to give the archiver something to drop.
  void CommittedNoise(int txns) {
    for (int i = 0; i < txns; ++i) {
      TxnId t = *db_.Begin();
      ASSERT_TRUE(db_.Add(t, 7, 1).ok());
      ASSERT_TRUE(db_.Commit(t).ok());
    }
  }
};

TEST_F(ArchiveTest, RequiresCheckpoint) {
  CommittedNoise(5);
  EXPECT_TRUE(db_.ArchiveLog().status().IsIllegalState());
}

TEST_F(ArchiveTest, ArchivesCommittedPrefixAfterCheckpoint) {
  CommittedNoise(20);
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());  // empty the DPT
  ASSERT_TRUE(db_.Checkpoint().ok());
  Result<uint64_t> archived = db_.ArchiveLog();
  ASSERT_TRUE(archived.ok()) << archived.status().ToString();
  EXPECT_GT(*archived, 50u);  // 20 txns x (BEGIN, UPDATE, COMMIT, END)
  // Recovery still works from the shortened log.
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(7), 20);
}

TEST_F(ArchiveTest, ActiveTransactionPinsItsBegin) {
  TxnId old_txn = *db_.Begin();
  ASSERT_TRUE(db_.Add(old_txn, 1, 5).ok());
  const Lsn old_begin = db_.shard(0)->txn_manager()->Find(old_txn)->first_lsn;
  CommittedNoise(20);
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.ArchiveLog().ok());
  // Nothing at or after the old transaction's BEGIN may be gone.
  EXPECT_LE(db_.shard(0)->disk()->first_retained_lsn(), old_begin);
  ASSERT_TRUE(db_.Abort(old_txn).ok());  // undo still finds its records
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(7), 20);
}

TEST_F(ArchiveTest, DelegatedScopePinsOldHistory) {
  // The delegator commits and disappears, but the delegatee holds a scope
  // over the old updates: they must survive archiving so the delegatee can
  // still abort.
  TxnId tor = *db_.Begin();
  TxnId tee = *db_.Begin();
  ASSERT_TRUE(db_.Add(tor, 1, 42).ok());
  const Lsn update_lsn = db_.shard(0)->txn_manager()->Find(tor)->last_lsn;
  ASSERT_TRUE(db_.Delegate(tor, tee, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.Commit(tor).ok());

  CommittedNoise(30);
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  Result<uint64_t> archived = db_.ArchiveLog();
  ASSERT_TRUE(archived.ok());
  EXPECT_LE(db_.shard(0)->disk()->first_retained_lsn(), update_lsn);

  // The delegatee can still abort — the pinned record is read and undone.
  ASSERT_TRUE(db_.Abort(tee).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

TEST_F(ArchiveTest, ArchiveThenCrashRecoverWithDelegation) {
  TxnId tor = *db_.Begin();
  TxnId tee = *db_.Begin();
  ASSERT_TRUE(db_.Add(tor, 1, 42).ok());
  ASSERT_TRUE(db_.Delegate(tor, tee, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.Commit(tor).ok());
  CommittedNoise(10);
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.ArchiveLog().ok());

  db_.SimulateCrash();  // tee is a loser; its scope's record was pinned
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(7), 10);
}

TEST_F(ArchiveTest, ResolvingTheScopeUnpinsHistory) {
  TxnId tor = *db_.Begin();
  TxnId tee = *db_.Begin();
  ASSERT_TRUE(db_.Add(tor, 1, 42).ok());
  const Lsn update_lsn = db_.shard(0)->txn_manager()->Find(tor)->last_lsn;
  ASSERT_TRUE(db_.Delegate(tor, tee, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.Commit(tor).ok());
  CommittedNoise(10);

  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.ArchiveLog().ok());
  EXPECT_LE(db_.shard(0)->disk()->first_retained_lsn(), update_lsn);  // pinned

  ASSERT_TRUE(db_.Commit(tee).ok());  // scope resolved
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.ArchiveLog().ok());
  EXPECT_GT(db_.shard(0)->disk()->first_retained_lsn(),
            update_lsn);  // released
}

TEST_F(ArchiveTest, RewritingBaselinesCannotArchive) {
  for (DelegationMode mode :
       {DelegationMode::kEager, DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_TRUE(db.ArchiveLog().status().code() ==
                StatusCode::kNotSupported)
        << DelegationModeName(mode);
  }
}

TEST_F(ArchiveTest, ArchiveIsIdempotent) {
  CommittedNoise(10);
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  Result<uint64_t> first = db_.ArchiveLog();
  ASSERT_TRUE(first.ok());
  Result<uint64_t> second = db_.ArchiveLog();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0u);
}

TEST_F(ArchiveTest, DelegationRacingArchiveNeverDropsTheScope) {
  // The race this PR fixes: ArchiveLog walks the transaction snapshot to
  // find the oldest LSN any live scope covers. A delegation is a two-party
  // transfer; without the checkpoint fence the snapshot could catch the
  // scope after it left the delegator but before it reached the delegatee —
  // in neither Ob_List — and the archiver would reclaim records the
  // delegatee still needs for undo. Here one thread ping-pongs a scope
  // between two transactions while the main thread checkpoints and
  // archives continuously; the pinned update must never be reclaimed.
  TxnId a = *db_.Begin();
  TxnId b = *db_.Begin();
  ASSERT_TRUE(db_.Add(a, 1, 42).ok());
  const Lsn update_lsn = db_.shard(0)->txn_manager()->Find(a)->last_lsn;
  CommittedNoise(10);
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread mover([this, a, b, &stop, &failures] {
    TxnId from = a, to = b;
    while (!stop.load()) {
      if (!db_.Delegate(from, to, DelegationSpec::Objects({1})).ok()) {
        ++failures;
        return;
      }
      std::swap(from, to);
    }
  });
  for (int round = 0; round < 25; ++round) {
    ASSERT_TRUE(db_.Checkpoint().ok());
    Result<uint64_t> archived = db_.ArchiveLog();
    ASSERT_TRUE(archived.ok()) << archived.status().ToString();
    ASSERT_LE(db_.shard(0)->disk()->first_retained_lsn(), update_lsn)
        << "round " << round << ": archive dropped a live scope's records";
  }
  stop.store(true);
  mover.join();
  ASSERT_EQ(failures.load(), 0);

  // Both parties die in the crash; whoever holds the scope is a loser and
  // undo must still find the pinned record.
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(7), 10);
}

TEST_F(ArchiveTest, RetainFromPinsTheSuffix) {
  CommittedNoise(10);
  const Lsn pin = db_.shard(0)->log_manager()->end_lsn();
  CommittedNoise(10);
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());

  ASSERT_TRUE(db_.ArchiveLog(pin).ok());
  EXPECT_EQ(db_.shard(0)->disk()->first_retained_lsn(), pin);
  // Dropping the pin lets the next run reclaim up to the checkpoint.
  Result<uint64_t> more = db_.ArchiveLog();
  ASSERT_TRUE(more.ok());
  EXPECT_GT(*more, 0u);
  EXPECT_GT(db_.shard(0)->disk()->first_retained_lsn(), pin);
}

TEST_F(ArchiveTest, WorkAndArchivingInterleave) {
  for (int round = 0; round < 5; ++round) {
    CommittedNoise(10);
    ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
    ASSERT_TRUE(db_.Checkpoint().ok());
    ASSERT_TRUE(db_.ArchiveLog().ok());
  }
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(7), 50);
}

// Archiving beside live commits: the prefix drop edits the same stable log
// group-commit forces append to, so it must exclude them. Otherwise the
// stable log can end up holding a torn record and an acknowledged commit
// is lost (or the image no longer opens) after a crash.
TEST(ArchiveRaceTest, ArchivingBesideGroupCommitKeepsEveryAckedCommit) {
  Options options;
  options.group_commit = true;
  options.early_lock_release = true;
  Database db(options);
  constexpr int kCommitters = 3;
  constexpr int kTxnsEach = 150;
  std::atomic<int> running{kCommitters};
  std::vector<int64_t> acked(kCommitters, 0);
  std::vector<std::thread> committers;
  for (int c = 0; c < kCommitters; ++c) {
    committers.emplace_back([&, c] {
      for (int i = 0; i < kTxnsEach; ++i) {
        Result<TxnId> txn = db.Begin();
        if (!txn.ok()) break;
        if (db.Add(*txn, 100 + c, 1).ok() && db.Commit(*txn).ok()) {
          ++acked[c];
        }
      }
      running.fetch_sub(1);
    });
  }
  uint64_t archived = 0;
  do {
    EXPECT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
    EXPECT_TRUE(db.Checkpoint().ok());
    Result<uint64_t> dropped = db.ArchiveLog();
    EXPECT_TRUE(dropped.ok()) << dropped.status().ToString();
    if (dropped.ok()) archived += *dropped;
  } while (running.load() > 0);
  for (std::thread& committer : committers) committer.join();
  EXPECT_GT(archived, 0u);

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> recovered = RestartAndAwait(db);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (int c = 0; c < kCommitters; ++c) {
    EXPECT_EQ(acked[c], kTxnsEach) << "committer " << c;
    EXPECT_EQ(*db.ReadCommitted(100 + c), acked[c]) << "committer " << c;
  }
}

// --- bounded history: checkpoints move the redo point past table writes ---
//
// A seeded table-and-counter history with delegations and aborts, then two
// checkpoints. The second writes back every page dirty since before the
// first (the penultimate-checkpoint rule), so ArchiveLog drops records past
// the first table write, the transaction table keeps only live
// transactions, both restart modes of the archived image match the oracle,
// and time travel below the new floor fails loudly.
class BoundedHistoryTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// Committed table state plus the puts each live transaction answers for
  /// (a Delegate(All) hands them to the delegatee with everything else).
  struct TableModel {
    std::map<std::string, std::string> committed;
    std::map<TxnId, std::vector<std::pair<std::string, std::string>>> pending;

    void Delegate(TxnId from, TxnId to) {
      auto& dst = pending[to];
      for (auto& put : pending[from]) dst.push_back(std::move(put));
      pending.erase(from);
    }
    void Commit(TxnId txn) {
      for (auto& [key, value] : pending[txn]) committed[key] = value;
      pending.erase(txn);
    }
    void Abort(TxnId txn) { pending.erase(txn); }
  };

  static std::string Key(uint64_t i) { return "key" + std::to_string(i); }

  /// One transaction: two puts and an Add; every third hands its work to a
  /// partner (Delegate(All)) and aborts while the partner commits; every
  /// seventh aborts outright.
  void RunTxn(Database* db, Random* rng, int i) {
    const TxnId t = *db->Begin();
    oracle_.Begin(t);
    for (int k = 0; k < 2; ++k) {
      const std::string key = Key(rng->Uniform(200));
      const std::string value(
          static_cast<size_t>(rng->UniformRange(40, 240)),
          static_cast<char>('a' + i % 26));
      ASSERT_TRUE(db->TablePut(t, key, value).ok());
      table_.pending[t].emplace_back(key, value);
      const size_t shard = db->ShardOf(table::TableRid(key));
      if (first_table_lsn_[shard] == kInvalidLsn) {
        first_table_lsn_[shard] = db->shard(shard)->log_manager()->end_lsn();
      }
    }
    const ObjectId ob = rng->Uniform(512);
    ASSERT_TRUE(db->Add(t, ob, 1).ok());
    oracle_.Update(t, ob, UpdateKind::kAdd, 1);
    if (i % 3 == 2) {
      const TxnId partner = *db->Begin();
      oracle_.Begin(partner);
      ASSERT_TRUE(db->Delegate(t, partner, DelegationSpec::All()).ok());
      oracle_.Delegate(t, partner, {ob});
      table_.Delegate(t, partner);
      ASSERT_TRUE(db->Abort(t).ok());
      oracle_.Abort(t);
      table_.Abort(t);
      ASSERT_TRUE(db->Commit(partner).ok());
      oracle_.Commit(partner);
      table_.Commit(partner);
    } else if (i % 7 == 6) {
      ASSERT_TRUE(db->Abort(t).ok());
      oracle_.Abort(t);
      table_.Abort(t);
    } else {
      ASSERT_TRUE(db->Commit(t).ok());
      oracle_.Commit(t);
      table_.Commit(t);
    }
  }

  void ExpectOracleState(Database* db, const std::string& label) {
    for (const auto& [ob, value] : oracle_.ExpectedValues()) {
      EXPECT_EQ(*db->ReadCommitted(ob), value) << label << " ob " << ob;
    }
    for (uint64_t i = 0; i < 200; ++i) {
      const auto it = table_.committed.find(Key(i));
      const std::optional<std::string> want =
          it == table_.committed.end() ? std::nullopt
                                       : std::optional<std::string>(it->second);
      EXPECT_EQ(*db->TableGetCommitted(Key(i)), want) << label << " " << Key(i);
    }
  }

  HistoryOracle oracle_;
  TableModel table_;
  std::vector<Lsn> first_table_lsn_;
};

INSTANTIATE_TEST_SUITE_P(Shards, BoundedHistoryTest, ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(BoundedHistoryTest, TwoCheckpointsBoundTheTableHistory) {
  const std::string path = ::testing::TempDir() + "/bounded_history_" +
                           std::to_string(GetParam()) + ".ariesrh";
  Options options;
  options.num_shards = GetParam();
  first_table_lsn_.assign(GetParam(), kInvalidLsn);
  Random rng(20261017);
  Lsn floor_cut = kInvalidLsn;
  {
    Database db(options);
    for (int i = 0; i < 60; ++i) {
      RunTxn(&db, &rng, i);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "txn " << i;
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    for (int i = 60; i < 120; ++i) {
      RunTxn(&db, &rng, i);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "txn " << i;
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_GT(db.stats().checkpoint_pages_written.value(), 0u);
    EXPECT_GT(db.stats().txns_reaped.value(), 0u);
    // A loser left active at the crash: its records and scopes stay pinned.
    const TxnId loser = *db.Begin();
    ASSERT_TRUE(db.TablePut(loser, Key(3), "lost").ok());
    ASSERT_TRUE(db.Add(loser, 5, 100).ok());

    Result<uint64_t> archived = db.ArchiveLog();
    ASSERT_TRUE(archived.ok()) << archived.status().ToString();
    for (size_t s = 0; s < db.num_shards(); ++s) {
      ASSERT_NE(first_table_lsn_[s], kInvalidLsn) << "shard " << s;
      EXPECT_GT(db.shard(s)->disk()->first_retained_lsn(), first_table_lsn_[s])
          << "shard " << s << " kept its first table write";
      for (const auto& [id, tx] :
           db.shard(s)->txn_manager()->SnapshotTransactions()) {
        EXPECT_TRUE(tx.state == TxnState::kActive ||
                    tx.state == TxnState::kPrepared)
            << "shard " << s << " kept terminated txn " << id;
      }
      floor_cut = std::min(floor_cut, first_table_lsn_[s]);
    }
    ASSERT_TRUE(db.Sync().ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
    Result<reenact::StateImage> early = db.ReenactStateAt(floor_cut);
    ASSERT_FALSE(early.ok());
    EXPECT_TRUE(early.status().IsOutOfRange()) << early.status().ToString();
  }
  oracle_.Crash();
  for (RecoveryMode mode : {RecoveryMode::kFull, RecoveryMode::kInstant}) {
    Options open = options;
    open.recovery_mode = mode;
    Result<Database::OpenResult> opened = Database::Open(open, path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_TRUE(opened->recovery->Await().ok());
    ExpectOracleState(opened->db.get(), RecoveryModeName(mode));
    Result<reenact::StateImage> early =
        opened->db->ReenactStateAt(floor_cut);
    ASSERT_FALSE(early.ok());
    EXPECT_TRUE(early.status().IsOutOfRange()) << early.status().ToString();
  }
  for (size_t s = 0; s < GetParam(); ++s) {
    std::remove(Database::ShardImagePath(path, s).c_str());
  }
  std::remove((path + ".coord").c_str());
}

}  // namespace
}  // namespace ariesrh
