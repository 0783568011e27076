// Randomized crash-recovery torture: generate random histories of updates,
// delegations, commits and aborts; crash at a random point; recover; compare
// every object against the HistoryOracle. Failures print the seed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/oracle.h"
#include "recovery/checkpoint.h"
#include "table/table_heap.h"
#include "util/random.h"
#include "wal/log_record.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

constexpr ObjectId kObjects = 24;

// Drives one random history against both the engine and the oracle.
class TortureDriver {
 public:
  TortureDriver(Database* db, uint64_t seed) : db_(db), rng_(seed) {}

  void Step() {
    const uint64_t dice = rng_.Uniform(100);
    if (active_.empty() || dice < 20) {
      BeginTxn();
    } else if (dice < 60) {
      RandomUpdate();
    } else if (dice < 75) {
      RandomDelegate();
    } else if (dice < 88) {
      Resolve(/*commit=*/true);
    } else {
      Resolve(/*commit=*/false);
    }
  }

  void CrashAndCheck() {
    db_->SimulateCrash();
    oracle_.Crash();
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(*db_);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (const auto& [ob, expected] : oracle_.ExpectedValues()) {
      Result<int64_t> got = db_->ReadCommitted(ob);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expected) << "object " << ob;
    }
    active_.clear();
  }

  HistoryOracle* oracle() { return &oracle_; }

 private:
  void BeginTxn() {
    Result<TxnId> txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    oracle_.Begin(*txn);
    active_.push_back(*txn);
  }

  TxnId PickActive() { return active_[rng_.Uniform(active_.size())]; }

  void RandomUpdate() {
    const TxnId txn = PickActive();
    const ObjectId ob = rng_.Uniform(kObjects);
    // Increments dominate so concurrent responsibility arises; sets are
    // rarer and often conflict (kBusy is fine — just skip).
    if (rng_.Percent(70)) {
      const int64_t delta = rng_.UniformRange(-50, 50);
      if (db_->Add(txn, ob, delta).ok()) {
        oracle_.Update(txn, ob, UpdateKind::kAdd, delta);
      }
    } else {
      const int64_t value = rng_.UniformRange(-1000, 1000);
      if (db_->Set(txn, ob, value).ok()) {
        oracle_.Update(txn, ob, UpdateKind::kSet, value);
      }
    }
  }

  void RandomDelegate() {
    if (active_.size() < 2) return;
    const TxnId from = PickActive();
    TxnId to = PickActive();
    if (from == to) return;
    const Transaction* tx = db_->shard(0)->txn_manager()->Find(from);
    if (tx == nullptr || tx->ob_list.empty()) return;
    // Pick a random subset of the delegator's objects.
    std::vector<ObjectId> objects;
    for (const auto& [ob, entry] : tx->ob_list) {
      if (rng_.Percent(60)) objects.push_back(ob);
    }
    if (objects.empty()) objects.push_back(tx->ob_list.begin()->first);
    if (db_->Delegate(from, to, DelegationSpec::Objects(objects)).ok()) {
      oracle_.Delegate(from, to, objects);
    }
  }

  void Resolve(bool commit) {
    const size_t index = rng_.Uniform(active_.size());
    const TxnId txn = active_[index];
    if (commit) {
      if (db_->Commit(txn).ok()) {
        oracle_.Commit(txn);
        active_.erase(active_.begin() + index);
      }
    } else {
      if (db_->Abort(txn).ok()) {
        oracle_.Abort(txn);
        active_.erase(active_.begin() + index);
      }
    }
  }

  Database* db_;
  Random rng_;
  HistoryOracle oracle_;
  std::vector<TxnId> active_;
};

class RecoveryTortureTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryTortureTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST_P(RecoveryTortureTest, RandomHistoryCrashRecoverMatchesOracle) {
  Database db;
  TortureDriver driver(&db, GetParam());
  for (int step = 0; step < 300; ++step) {
    driver.Step();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "seed " << GetParam() << " step " << step;
    }
  }
  driver.CrashAndCheck();
}

TEST_P(RecoveryTortureTest, SurvivesMultipleCrashCycles) {
  Database db;
  TortureDriver driver(&db, GetParam() * 7919);
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int step = 0; step < 120; ++step) {
      driver.Step();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << GetParam() << " cycle " << cycle << " step "
               << step;
      }
    }
    driver.CrashAndCheck();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "seed " << GetParam() << " cycle " << cycle;
    }
  }
}

TEST_P(RecoveryTortureTest, SmallBufferPoolForcesSteals) {
  Options options;
  options.buffer_pool_pages = 1;  // every page fetch may steal a dirty page
  Database db(options);
  TortureDriver driver(&db, GetParam() * 31 + 5);
  for (int step = 0; step < 200; ++step) {
    driver.Step();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "seed " << GetParam() << " step " << step;
    }
  }
  driver.CrashAndCheck();
}

TEST_P(RecoveryTortureTest, WithPeriodicCheckpoints) {
  Database db;
  TortureDriver driver(&db, GetParam() * 104729);
  for (int step = 0; step < 300; ++step) {
    driver.Step();
    if (step % 37 == 36) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "seed " << GetParam() << " step " << step;
    }
  }
  driver.CrashAndCheck();
}

// --- the concurrent fuzzy-window crash matrix ---
//
// Four workers drive delegating transactions while a checkpoint thread is
// parked (via the test hooks) inside its fuzzy window, so the window
// [CKPT_BEGIN .. CKPT_END] fills with concurrent BEGIN/UPDATE/DELEGATE/
// COMMIT/ABORT records. Then, for every crash point in (and just after)
// the window, recovery from the fuzzy checkpoint must produce exactly the
// state that recovery from the log head produces on the same prefix — the
// log head replays the serial history with no snapshot to reconcile, so it
// is the ground truth the begin-anchored analysis is checked against.

constexpr int kWindowWorkers = 4;
constexpr ObjectId kWindowObjectsPerWorker = 4;

// Recovers a fresh instance from the first `crash_lsn` records of `source`
// with the given master record, and returns every object's committed value.
// Without `stable_pages` the copy has the log alone: no page was written.
// With it, the copy's stable pages are the source's pages whose page LSN the
// prefix covers: a checkpoint writes back the pages dirty since before the
// previous checkpoint (the penultimate-checkpoint rule), and a crash anywhere
// past a written page's LSN may find it stable — the checkpoint's redo point
// relies on exactly that.
std::optional<std::vector<int64_t>> RecoverPrefix(Database* source,
                                                  Lsn crash_lsn, Lsn master,
                                                  bool stable_pages) {
  Database copy;
  copy.SimulateCrash();
  if (stable_pages) {
    PageImages pages;
    for (auto& [id, image] : source->shard(0)->disk()->ClonePages()) {
      Result<Page> page = Page::Deserialize(*image);
      if (!page.ok()) {
        ADD_FAILURE() << "page " << id << ": " << page.status().ToString();
        return std::nullopt;
      }
      if (page->page_lsn() <= crash_lsn) pages.emplace(id, std::move(image));
    }
    copy.shard(0)->disk()->RestorePages(std::move(pages));
  }
  std::vector<std::string> prefix;
  for (Lsn lsn = kFirstLsn; lsn <= crash_lsn; ++lsn) {
    Result<std::string> rec = source->shard(0)->disk()->ReadLogRecord(lsn);
    if (!rec.ok()) {
      ADD_FAILURE() << "read LSN " << lsn << ": " << rec.status().ToString();
      return std::nullopt;
    }
    prefix.push_back(std::move(*rec));
  }
  copy.shard(0)->disk()->AppendLogRecords(prefix);
  if (master != 0) copy.shard(0)->disk()->SetMasterRecord(master);
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(copy);
  if (!outcome.ok()) {
    ADD_FAILURE() << "recover(crash=" << crash_lsn << ", master=" << master
                  << "): " << outcome.status().ToString();
    return std::nullopt;
  }
  if (master != 0 && outcome->checkpoint_used != master) {
    ADD_FAILURE() << "expected checkpoint @" << master << ", used @"
                  << outcome->checkpoint_used;
    return std::nullopt;
  }
  std::vector<int64_t> values;
  for (ObjectId ob = 0; ob < kWindowWorkers * kWindowObjectsPerWorker; ++ob) {
    values.push_back(*copy.ReadCommitted(ob));
  }
  return values;
}

TEST(ConcurrentCheckpointWindowTest, CrashAtEveryWindowLsnMatchesLogHead) {
  Database db;
  // A quiescent baseline checkpoint, so crashes that land before the
  // concurrent CKPT_END still recover through a checkpoint.
  TxnId seed = *db.Begin();
  ASSERT_TRUE(db.Set(seed, 0, 1).ok());
  ASSERT_TRUE(db.Commit(seed).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  const Lsn first_master = db.shard(0)->disk()->master_record();

  std::atomic<bool> window_open{false};
  std::atomic<bool> workers_done{false};
  std::atomic<int> failures{0};
  // Parks the checkpoint thread until the workers have pushed `n` more
  // records into the window (or finished, so the test can never hang).
  auto wait_for_growth = [&db, &workers_done](uint64_t n) {
    const Lsn target = db.shard(0)->log_manager()->end_lsn() + n;
    while (db.shard(0)->log_manager()->end_lsn() < target &&
           !workers_done.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  Database::CheckpointTestHooks hooks;
  hooks.after_begin = [&] {
    window_open.store(true);
    wait_for_growth(16);
  };
  hooks.after_snapshot = [&] { wait_for_growth(16); };
  db.set_checkpoint_test_hooks(hooks);

  Status ckpt_status;
  std::thread checkpointer([&db, &ckpt_status] {
    ckpt_status = db.Checkpoint();
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWindowWorkers; ++w) {
    workers.emplace_back([&db, &window_open, &failures, w] {
      // Workers start only once CKPT_BEGIN is in the log, so their whole
      // history lands inside or after the fuzzy window.
      while (!window_open.load()) std::this_thread::yield();
      const ObjectId base =
          static_cast<ObjectId>(w) * kWindowObjectsPerWorker;
      for (int round = 0; round < 10; ++round) {
        Result<TxnId> a = db.Begin();
        Result<TxnId> b = db.Begin();
        if (!a.ok() || !b.ok()) {
          ++failures;
          return;
        }
        bool ok = db.Add(*a, base, 1).ok() &&
                  db.Add(*a, base + 1 + (round % 3), 1).ok() &&
                  db.Delegate(*a, *b, DelegationSpec::Objects({base})).ok() &&
                  db.Commit(*a).ok();
        // The delegatee sometimes aborts: CLRs and compensated-set inserts
        // cross the window too.
        ok = ok && (round % 3 == 2 ? db.Abort(*b) : db.Commit(*b)).ok();
        if (!ok) ++failures;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  workers_done.store(true);
  checkpointer.join();
  db.set_checkpoint_test_hooks({});
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(ckpt_status.ok()) << ckpt_status.ToString();
  ASSERT_TRUE(db.Sync().ok());

  const Lsn ckpt_end = db.shard(0)->disk()->master_record();
  ASSERT_NE(ckpt_end, first_master);
  Result<LogRecord> end_rec = db.shard(0)->log_manager()->Read(ckpt_end);
  ASSERT_TRUE(end_rec.ok());
  Result<CheckpointData> ckpt =
      CheckpointData::Deserialize(end_rec->ckpt_payload);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  const Lsn ckpt_begin = ckpt->ckpt_begin_lsn;
  ASSERT_NE(ckpt_begin, 0u);
  // The window must actually contain concurrent records, or this test
  // proves nothing about reconciliation.
  ASSERT_GT(ckpt_end - ckpt_begin, 16u);

  const Lsn log_end = db.shard(0)->disk()->stable_end_lsn();
  const Lsn last_crash = std::min(log_end, ckpt_end + 12);
  for (Lsn crash = ckpt_begin; crash <= last_crash; ++crash) {
    // Before CKPT_END is durable the concurrent checkpoint never existed;
    // from it on, recovery anchors at its CKPT_BEGIN and reconciles.
    const Lsn master = crash >= ckpt_end ? ckpt_end : first_master;
    // Each crash point is recovered from two stable states: the log alone
    // (no page written since the baseline) and the log plus every page the
    // write-back may have put out by then. The log-only state is reachable
    // only before CKPT_END: the concurrent checkpoint's redo point relies on
    // its write-back.
    for (const bool stable_pages : {false, true}) {
      if (!stable_pages && crash >= ckpt_end) continue;
      std::optional<std::vector<int64_t>> with_ckpt =
          RecoverPrefix(&db, crash, master, stable_pages);
      std::optional<std::vector<int64_t>> from_head =
          RecoverPrefix(&db, crash, /*master=*/0, stable_pages);
      ASSERT_TRUE(with_ckpt.has_value() && from_head.has_value())
          << "crash at LSN " << crash << ", stable pages " << stable_pages;
      ASSERT_EQ(*with_ckpt, *from_head)
          << "crash at LSN " << crash << ", stable pages " << stable_pages;
    }
  }
}

// --- crash points inside the checkpoint's write-back ---
//
// The penultimate-checkpoint write-back runs between CKPT_BEGIN and the
// snapshot, one heap bucket chain at a time. A crash after bucket k of
// kTableBuckets leaves buckets 0..k written and no CKPT_END: the previous
// checkpoint stays the master and its redo point must still cover every
// chain, written or not. Each point is hit under both restart modes, on one
// and on two shards.

class WriteBackCrashMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<size_t, RecoveryMode, size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Buckets, WriteBackCrashMatrixTest,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(RecoveryMode::kFull,
                                         RecoveryMode::kInstant),
                       ::testing::Range<size_t>(0, table::kTableBuckets)),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_" +
             RecoveryModeName(std::get<1>(info.param)) + "_after_bucket" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(WriteBackCrashMatrixTest, CrashAfterBucketMatchesTheCommittedState) {
  const auto [shards, mode, crash_bucket] = GetParam();
  Options options;
  options.num_shards = shards;
  options.recovery_mode = mode;
  Database db(options);
  Random rng(7919 + crash_bucket);
  std::map<std::string, std::string> committed;
  std::map<ObjectId, int64_t> counters;
  // Committed puts over 240 keys (several pages per chain, some values
  // growing past their page so records relocate), with every fifth
  // transaction aborted.
  auto run = [&](int txns) {
    for (int i = 0; i < txns; ++i) {
      const TxnId t = *db.Begin();
      std::map<std::string, std::string> puts;
      for (int k = 0; k < 3; ++k) {
        const std::string key = "key" + std::to_string(rng.Uniform(240));
        const std::string value(static_cast<size_t>(rng.UniformRange(20, 700)),
                                static_cast<char>('a' + i % 26));
        ASSERT_TRUE(db.TablePut(t, key, value).ok());
        puts[key] = value;
      }
      const ObjectId ob = rng.Uniform(300);
      ASSERT_TRUE(db.Add(t, ob, 1).ok());
      if (i % 5 == 4) {
        ASSERT_TRUE(db.Abort(t).ok());
        continue;
      }
      ASSERT_TRUE(db.Commit(t).ok());
      for (auto& [key, value] : puts) committed[key] = value;
      ++counters[ob];
    }
  };
  run(80);
  ASSERT_TRUE(db.Checkpoint().ok());
  run(80);
  const Lsn master_before = db.shard(0)->disk()->master_record();
  // A loser whose writes may reach the stable pages with their chains.
  const TxnId loser = *db.Begin();
  ASSERT_TRUE(db.TablePut(loser, "key1", std::string(900, 'L')).ok());
  ASSERT_TRUE(db.Add(loser, 1, 50).ok());

  bool fired = false;
  Database::CheckpointTestHooks hooks;
  hooks.after_bucket_written = [&](size_t b) {
    if (b != crash_bucket || fired) return Status::OK();
    fired = true;
    return Status::IOError("injected crash after bucket " + std::to_string(b));
  };
  db.set_checkpoint_test_hooks(hooks);
  const Status ckpt = db.Checkpoint();
  db.set_checkpoint_test_hooks({});
  ASSERT_TRUE(fired);
  ASSERT_FALSE(ckpt.ok());
  ASSERT_GT(db.stats().checkpoint_pages_written.value(), 0u);
  ASSERT_EQ(db.shard(0)->disk()->master_record(), master_before);

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  for (uint64_t i = 0; i < 240; ++i) {
    const std::string key = "key" + std::to_string(i);
    const auto it = committed.find(key);
    const std::optional<std::string> want =
        it == committed.end() ? std::nullopt
                              : std::optional<std::string>(it->second);
    EXPECT_EQ(*db.TableGetCommitted(key), want) << key;
  }
  for (ObjectId ob = 0; ob < 300; ++ob) {
    EXPECT_EQ(*db.ReadCommitted(ob), counters[ob]) << "ob " << ob;
  }
}

}  // namespace
}  // namespace ariesrh
