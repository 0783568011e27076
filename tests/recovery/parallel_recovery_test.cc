// Parallel restart recovery: partitioned redo + per-cluster undo must reach
// exactly the state serial recovery reaches — same ReadCommitted values,
// same winner/loser counts, same number of records redone and undone — at
// every thread count, including when recovery itself crashes partway.
//
// The stable image is replicated across runs with SaveTo/Open, so every
// thread count starts from the byte-identical crashed state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "obs/trace.h"
#include "recovery/analysis.h"
#include "recovery/recovery_manager.h"
#include "recovery/undo_rh.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".ariesrh";
}

// Objects touched by phase `p`: a band on its own pages, far from every
// other phase's band.
ObjectId PhaseObject(int p, int i) {
  return static_cast<ObjectId>(p) * 4 * kObjectsPerPage +
         static_cast<ObjectId>(i);
}

// A phased history: each phase works a disjoint object range in its own
// contiguous LSN window and leaves one loser behind, so recovery faces
// `phases` independent undo clusters (and redo work spread over many
// pages). Returns the set of objects touched.
std::vector<ObjectId> BuildClusteredHistory(Database* db, int phases,
                                            int updates_per_txn) {
  std::vector<ObjectId> objects;
  for (int p = 0; p < phases; ++p) {
    TxnId winner = *db->Begin();
    TxnId loser = *db->Begin();
    for (int i = 0; i < updates_per_txn; ++i) {
      const ObjectId wob = PhaseObject(p, i % kObjectsPerPage);
      const ObjectId lob = PhaseObject(p, 2 * kObjectsPerPage + i % 8);
      EXPECT_TRUE(db->Add(winner, wob, 1 + i).ok());
      EXPECT_TRUE(db->Add(loser, lob, 100 + i).ok());
      if (i == 0) {
        objects.push_back(wob);
        objects.push_back(lob);
      }
    }
    EXPECT_TRUE(db->Commit(winner).ok());
    // `loser` stays active: a loser whose scopes span only this phase's
    // LSN window.
  }
  EXPECT_TRUE(db->shard(0)->log_manager()->FlushAll().ok());
  // Dedup (phase loops re-push the same first objects only once, but keep
  // this robust to edits).
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  return objects;
}

std::vector<ObjectId> AllTouchedObjects(int phases, int updates_per_txn) {
  std::vector<ObjectId> objects;
  for (int p = 0; p < phases; ++p) {
    for (int i = 0; i < updates_per_txn; ++i) {
      objects.push_back(PhaseObject(p, i % kObjectsPerPage));
      objects.push_back(PhaseObject(p, 2 * kObjectsPerPage + i % 8));
    }
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  return objects;
}

struct RecoveredState {
  std::map<ObjectId, int64_t> values;
  RecoveryManager::Outcome outcome;
};

RecoveredState RecoverFromImage(const std::string& path, size_t threads,
                                const std::vector<ObjectId>& objects) {
  Options options;
  options.recovery_threads = threads;
  Result<Database::OpenResult> db = Database::Open(options, path);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  RecoveredState state;
  if (!db.ok()) return state;
  // Open already ran restart recovery; the handle holds the outcome.
  Result<RecoveryManager::Outcome> outcome = db->recovery->Await();
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return state;
  state.outcome = *outcome;
  for (ObjectId ob : objects) {
    Result<int64_t> value = db->db->ReadCommitted(ob);
    EXPECT_TRUE(value.ok());
    state.values[ob] = value.ok() ? *value : -1;
  }
  return state;
}

TEST(ParallelRecoveryTest, ThreadCountsAgreeOnStateAndCounts) {
  constexpr int kPhases = 6;
  constexpr int kUpdates = 20;
  const std::string path = TempPath("parallel_equivalence");
  {
    Database db;
    BuildClusteredHistory(&db, kPhases, kUpdates);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  const std::vector<ObjectId> objects = AllTouchedObjects(kPhases, kUpdates);

  const RecoveredState serial = RecoverFromImage(path, 1, objects);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(serial.outcome.winners, static_cast<uint64_t>(kPhases));
  EXPECT_EQ(serial.outcome.losers, static_cast<uint64_t>(kPhases));
  EXPECT_EQ(serial.outcome.threads_used, 1u);
  EXPECT_TRUE(serial.outcome.merged_forward_pass);
  EXPECT_GT(serial.outcome.records_analyzed, 0u);
  EXPECT_GT(serial.outcome.records_redone, 0u);
  EXPECT_EQ(serial.outcome.records_undone,
            static_cast<uint64_t>(kPhases) * kUpdates);
  // Disjoint phases -> independent clusters.
  EXPECT_GE(serial.outcome.clusters_swept, 2u);

  for (size_t threads : {2u, 4u}) {
    const RecoveredState parallel = RecoverFromImage(path, threads, objects);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_EQ(parallel.values, serial.values) << threads << " threads";
    EXPECT_EQ(parallel.outcome.winners, serial.outcome.winners);
    EXPECT_EQ(parallel.outcome.losers, serial.outcome.losers);
    EXPECT_EQ(parallel.outcome.next_txn_id, serial.outcome.next_txn_id);
    EXPECT_EQ(parallel.outcome.threads_used, threads);
    EXPECT_FALSE(parallel.outcome.merged_forward_pass);
    EXPECT_EQ(parallel.outcome.records_analyzed,
              serial.outcome.records_analyzed);
    EXPECT_EQ(parallel.outcome.records_redone,
              serial.outcome.records_redone);
    EXPECT_EQ(parallel.outcome.records_undone,
              serial.outcome.records_undone);
    EXPECT_EQ(parallel.outcome.clusters_swept,
              serial.outcome.clusters_swept);
  }
  std::remove(path.c_str());
}

// The crash-point matrix: recovery dies mid-redo or mid-undo at every
// thread count, then a clean retry must converge to the serial state.
class ParallelCrashMatrixTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCrashPoints, ParallelCrashMatrixTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 3u, 7u),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<2>(info.param) ? "redo" : "undo") +
             "_crash" + std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<0>(info.param));
    });

TEST_P(ParallelCrashMatrixTest, InterruptedParallelRecoveryConverges) {
  const auto [threads, crash_after, crash_in_redo] = GetParam();
  constexpr int kPhases = 5;
  constexpr int kUpdates = 8;
  std::string test_name = ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name();
  for (char& c : test_name) {
    if (c == '/') c = '_';
  }
  const std::string path = TempPath("crash_matrix_" + test_name);
  {
    Database db;
    BuildClusteredHistory(&db, kPhases, kUpdates);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  const std::vector<ObjectId> objects = AllTouchedObjects(kPhases, kUpdates);
  const RecoveredState serial = RecoverFromImage(path, 1, objects);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Open now recovers as part of opening, so an interrupted first attempt
  // cannot ride through Open. Rebuild the identical history in-memory (the
  // builder is deterministic) and drive the crash/retry through the
  // SimulateCrash + StartRecovery harness, which preserves the partially
  // recovered disk state between attempts.
  Options options;
  options.recovery_threads = threads;
  Database replay(options);
  BuildClusteredHistory(&replay, kPhases, kUpdates);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  replay.SimulateCrash();
  Database* db = &replay;

  // First attempt dies at the injected point (redo touches every logged
  // update here — the stable pages are empty — so any small budget hits).
  db->set_test_hook(
      CrashAt(crash_in_redo ? "recovery:redo" : "recovery:undo", crash_after));
  Result<RecoveryManager::Outcome> first = RestartAndAwait(*db);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsIOError()) << first.status().ToString();
  EXPECT_TRUE(db->NeedsRecovery());

  // Clean retry converges to the serial state.
  db->set_test_hook(nullptr);
  Result<RecoveryManager::Outcome> second = RestartAndAwait(*db);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->winners, serial.outcome.winners);
  EXPECT_EQ(second->losers, serial.outcome.losers);
  for (ObjectId ob : objects) {
    Result<int64_t> value = db->ReadCommitted(ob);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, serial.values.at(ob)) << "object " << ob;
  }
  std::remove(path.c_str());
}

// A history whose losers sit in separate LSN windows with committed traffic
// between them, so the undo pass faces several cluster groups and gaps to
// pass. Every gap is short except the one below phase 2's loser, which is
// longer than a 25 us seek's break-even (LogCursor::SkipTo). Returns the
// oldest loser update's LSN.
Lsn BuildGappedLoserHistory(Database* db) {
  Lsn oldest_loser_update = kInvalidLsn;
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < (p == 2 ? 200 : 20); ++i) {
      TxnId winner = *db->Begin();
      EXPECT_TRUE(db->Add(winner, PhaseObject(p, i % 8), 1).ok());
      EXPECT_TRUE(db->Commit(winner).ok());
    }
    TxnId loser = *db->Begin();
    for (int j = 0; j < 3; ++j) {
      EXPECT_TRUE(
          db->Add(loser, PhaseObject(p, 2 * kObjectsPerPage + j), 1).ok());
      oldest_loser_update =
          std::min(oldest_loser_update, db->shard(0)->log_manager()->end_lsn());
    }
  }
  EXPECT_TRUE(db->shard(0)->log_manager()->FlushAll().ok());
  return oldest_loser_update;
}

// The skip counter counts exactly the records the backward pass leaves
// unread, however the pass is split into cluster groups: examined plus
// skipped spans the log end down to the oldest loser scope, and the
// kUndoClusterSkip trace events add up to the skipped count. With a seek
// stall, the short gaps are read through instead: examined, skipped and
// read-through records then span the sweep together, and only the gaps
// sought over are traced.
class SkipAccountingTest
    : public ::testing::TestWithParam<
          std::tuple<RecoveryMode, size_t, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    ModesAndThreads, SkipAccountingTest,
    ::testing::Combine(::testing::Values(RecoveryMode::kFull,
                                         RecoveryMode::kInstant),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(0u, 25'000u)),
    [](const auto& info) {
      const uint64_t stall_ns = std::get<2>(info.param);
      return std::string(RecoveryModeName(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) +
             (stall_ns == 0 ? ""
                            : "_stall" + std::to_string(stall_ns / 1000) +
                                  "us");
    });

TEST_P(SkipAccountingTest, ExaminedPlusSkippedSpansTheSweep) {
  const auto [mode, threads, stall_ns] = GetParam();
  const std::string path = TempPath(
      "skip_accounting_" + std::string(RecoveryModeName(mode)) +
      std::to_string(threads) + "_" + std::to_string(stall_ns));
  Lsn oldest = kInvalidLsn;
  Lsn scan_end = 0;
  {
    Database db;
    oldest = BuildGappedLoserHistory(&db);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    scan_end = db.shard(0)->log_manager()->flushed_lsn();
    ASSERT_TRUE(db.SaveTo(path).ok());
  }

  Options options;
  options.recovery_mode = mode;
  options.recovery_threads = threads;
  options.sim_log_random_read_ns = stall_ns;
  Result<Database::OpenResult> opened = Database::Open(options, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<RecoveryManager::Outcome> outcome = opened->recovery->Await();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 4u);
  EXPECT_EQ(outcome->clusters_swept, 4u);

  const Stats stats = opened->db->stats();
  EXPECT_GT(stats.recovery_backward_skipped, 0u);
  EXPECT_EQ(outcome->records_skipped, stats.recovery_backward_skipped.value());
  if (stall_ns == 0) {
    EXPECT_EQ(stats.recovery_backward_read_through, 0u);
    EXPECT_EQ(stats.recovery_backward_examined.value() +
                  stats.recovery_backward_skipped.value(),
              scan_end - oldest + 1);
  } else {
    EXPECT_GT(stats.recovery_backward_read_through, 0u);
    EXPECT_EQ(stats.recovery_backward_examined.value() +
                  stats.recovery_backward_skipped.value() +
                  stats.recovery_backward_read_through.value(),
              scan_end - oldest + 1);
  }
  uint64_t traced = 0;
  for (const obs::TraceEvent& event : opened->db->trace()->Snapshot()) {
    if (event.type == obs::TraceEventType::kUndoClusterSkip) traced += event.c;
  }
  EXPECT_EQ(traced, stats.recovery_backward_skipped.value());
  std::remove(path.c_str());
}

// Four losers in separate LSN windows with short stretches of committed
// traffic between them (each shorter than a 25 us seek's break-even), on
// every shard. Loser 0 writes once more after the last phase, so its group
// holds the newest scope and the oldest: the stream meets it first and
// resolves it last, passing the other groups in between. Returns the
// objects touched.
std::vector<ObjectId> BuildInterleavedLoserHistory(Database* db) {
  std::vector<ObjectId> objects;
  std::vector<TxnId> losers;
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 12; ++i) {
      TxnId winner = *db->Begin();
      for (int w = 0; w < 2; ++w) {
        const ObjectId ob = PhaseObject(p, w * 8 + i % 8);
        EXPECT_TRUE(db->Add(winner, ob, 1 + i).ok());
        objects.push_back(ob);
      }
      EXPECT_TRUE(db->Commit(winner).ok());
    }
    losers.push_back(*db->Begin());
    for (int j = 0; j < 6; ++j) {
      const ObjectId ob = PhaseObject(p, 2 * kObjectsPerPage + j);
      EXPECT_TRUE(db->Add(losers.back(), ob, 100 + j).ok());
      objects.push_back(ob);
    }
  }
  for (int j = 0; j < 4; ++j) {
    const ObjectId ob = PhaseObject(4, 2 * kObjectsPerPage + j);
    EXPECT_TRUE(db->Add(losers.front(), ob, 7).ok());
    objects.push_back(ob);
  }
  EXPECT_TRUE(db->Sync().ok());
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  return objects;
}

// What one restart's undo stream did: per shard, each responsible
// transaction's compensated LSNs in CLR order, and the pass's counters.
struct StreamRun {
  std::map<ObjectId, int64_t> values;
  std::vector<std::map<TxnId, std::vector<Lsn>>> clrs;
  uint64_t undos = 0;
  uint64_t examined = 0;
  uint64_t read_through = 0;
  uint64_t random_reads = 0;
};

// Under kRH the undo pass is one backward stream per shard, whatever the
// mode, thread count or seek stall: each shard's compensations come in
// strictly decreasing LSN order across every loser group, and reading
// through short gaps (stall on) changes no compensation and no examined
// record — only the seeks.
class UndoStreamTest : public ::testing::TestWithParam<
                           std::tuple<RecoveryMode, size_t, size_t>> {
 protected:
  StreamRun Restart(const std::string& path, uint64_t stall_ns,
                    const std::vector<Lsn>& saved_end,
                    const std::vector<ObjectId>& objects) {
    const auto [mode, threads, shards] = GetParam();
    Options options;
    options.num_shards = shards;
    options.recovery_mode = mode;
    options.recovery_threads = threads;
    options.sim_log_random_read_ns = stall_ns;
    StreamRun run;
    Result<Database::OpenResult> opened = Database::Open(options, path);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return run;
    Result<RecoveryManager::Outcome> outcome = opened->recovery->Await();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return run;
    Database& db = *opened->db;
    const Stats stats = db.stats();
    run.undos = stats.recovery_undos;
    run.examined = stats.recovery_backward_examined;
    run.read_through = stats.recovery_backward_read_through;
    run.random_reads = stats.log_random_reads;
    for (size_t s = 0; s < shards; ++s) {
      LogManager* log = db.shard(s)->log_manager();
      std::map<TxnId, std::vector<Lsn>>& clrs = run.clrs.emplace_back();
      Lsn previous = kInvalidLsn;
      for (Lsn lsn = saved_end[s] + 1; lsn <= log->end_lsn(); ++lsn) {
        Result<LogRecord> rec = log->Read(lsn);
        EXPECT_TRUE(rec.ok()) << rec.status().ToString();
        if (!rec.ok() || rec->type != LogRecordType::kClr) continue;
        EXPECT_LT(rec->compensated_lsn, previous)
            << "shard " << s << " CLR @" << lsn << " breaks the stream order";
        previous = rec->compensated_lsn;
        clrs[rec->txn_id].push_back(rec->compensated_lsn);
      }
    }
    for (ObjectId ob : objects) {
      Result<int64_t> value = db.ReadCommitted(ob);
      EXPECT_TRUE(value.ok());
      run.values[ob] = value.ok() ? *value : -1;
    }
    return run;
  }
};

INSTANTIATE_TEST_SUITE_P(
    ModesThreadsShards, UndoStreamTest,
    ::testing::Combine(::testing::Values(RecoveryMode::kFull,
                                         RecoveryMode::kInstant),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(RecoveryModeName(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(UndoStreamTest, OneStreamPerShardInDecreasingLsnOrder) {
  const auto [mode, threads, shards] = GetParam();
  const std::string path =
      TempPath("undo_stream_" + std::string(RecoveryModeName(mode)) +
               std::to_string(threads) + "_" + std::to_string(shards));
  std::vector<ObjectId> objects;
  std::vector<Lsn> saved_end;
  {
    Options options;
    options.num_shards = shards;
    Database db(options);
    objects = BuildInterleavedLoserHistory(&db);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    for (size_t s = 0; s < shards; ++s) {
      saved_end.push_back(db.shard(s)->log_manager()->flushed_lsn());
    }
    ASSERT_TRUE(db.SaveTo(path).ok());
  }

  const StreamRun seeking = Restart(path, 0, saved_end, objects);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const StreamRun reading = Restart(path, 25'000, saved_end, objects);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  EXPECT_GT(seeking.undos, 0u);
  EXPECT_EQ(seeking.read_through, 0u);
  EXPECT_GT(reading.read_through, 0u);
  EXPECT_EQ(reading.values, seeking.values);
  EXPECT_EQ(reading.clrs, seeking.clrs);
  EXPECT_EQ(reading.undos, seeking.undos);
  EXPECT_EQ(reading.examined, seeking.examined);
  EXPECT_LT(reading.random_reads, seeking.random_reads);
  std::remove(path.c_str());
  for (size_t s = 1; s < shards; ++s) {
    std::remove(Database::ShardImagePath(path, s).c_str());
  }
  std::remove((path + ".coord").c_str());
}

// Records what a backward pass hands its sink, without logging anything.
class RecordingUndoSink final : public UndoSink {
 public:
  Status Undo(const LogRecord& update_rec, TxnId responsible,
              std::unordered_map<TxnId, Lsn>* heads) override {
    undone.push_back(update_rec.lsn);
    (*heads)[responsible] = update_rec.lsn;
    return Status::OK();
  }
  void End(TxnId txn, Lsn) override { ended.push_back(txn); }

  std::vector<Lsn> undone;
  std::vector<TxnId> ended;
};

// The undo executor over a crashed log, straight into a recording sink:
// one stream visits each record at most once, newest first, across every
// group; groups resolve as the stream passes their oldest scope; and the
// seek stall decides only which gaps are read through.
TEST(UndoStreamSinkTest, RecordingSinkSeesOneDecreasingStream) {
  Database db;
  BuildInterleavedLoserHistory(&db);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  LogManager* log = db.shard(0)->log_manager();
  Stats fwd_stats;
  ForwardPassOptions opts;
  opts.kind = ForwardPassKind::kAnalysisOnly;
  Result<ForwardPassResult> fwd =
      ForwardPass(DelegationMode::kRH, log, db.shard(0)->buffer_pool(),
                  &fwd_stats, /*ckpt=*/nullptr, /*ckpt_end_lsn=*/0, opts);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  const Options options;

  // Every record a loser scope covers, and the oldest scope start.
  std::vector<UndoGroup> prototype = BuildUndoGroups(*fwd, options);
  ASSERT_GE(prototype.size(), 4u);
  std::set<Lsn> covered;
  Lsn oldest = kInvalidLsn;
  std::vector<Lsn> group_floor;
  for (const UndoGroup& group : prototype) {
    Lsn floor = kInvalidLsn;
    for (const ScopeUndoTarget& target : group.targets) {
      for (Lsn lsn = target.scope.first; lsn <= target.scope.last; ++lsn) {
        covered.insert(lsn);
      }
      floor = std::min(floor, target.scope.first);
    }
    group_floor.push_back(floor);
    oldest = std::min(oldest, floor);
  }
  // Groups resolve newest floor first.
  std::vector<size_t> want_order(prototype.size());
  for (size_t g = 0; g < want_order.size(); ++g) want_order[g] = g;
  std::sort(want_order.begin(), want_order.end(), [&](size_t a, size_t b) {
    return group_floor[a] > group_floor[b];
  });

  std::vector<Lsn> undone_at_stall_0;
  for (uint64_t stall_ns : {0u, 25'000u}) {
    SCOPED_TRACE("stall " + std::to_string(stall_ns) + " ns");
    db.shard(0)->disk()->set_log_random_read_stall_ns(stall_ns);
    std::vector<UndoGroup> groups = prototype;
    Stats stats;
    RecordingUndoSink sink;
    std::vector<size_t> resolved;
    uint64_t skipped = 0;
    ASSERT_TRUE(UndoGroups(options, *fwd, &groups, log, &stats, &sink,
                           [&](size_t g) {
                             resolved.push_back(g);
                             return Status::OK();
                           },
                           &skipped)
                    .ok());
    ASSERT_FALSE(sink.undone.empty());
    for (size_t i = 1; i < sink.undone.size(); ++i) {
      EXPECT_LT(sink.undone[i], sink.undone[i - 1]) << "compensation " << i;
    }
    EXPECT_EQ(resolved, want_order);
    EXPECT_EQ(sink.ended.size(), 4u);  // every loser ends exactly once
    // Each covered record examined once; the rest of the span passed.
    EXPECT_EQ(stats.recovery_backward_examined.value(), covered.size());
    EXPECT_EQ(skipped, stats.recovery_backward_skipped.value());
    EXPECT_EQ(stats.recovery_backward_examined.value() +
                  stats.recovery_backward_skipped.value() +
                  stats.recovery_backward_read_through.value(),
              fwd->scan_end - oldest + 1);
    if (stall_ns == 0) {
      EXPECT_EQ(stats.recovery_backward_read_through, 0u);
      undone_at_stall_0 = sink.undone;
    } else {
      EXPECT_GT(stats.recovery_backward_read_through, 0u);
      EXPECT_EQ(sink.undone, undone_at_stall_0);
    }
  }
}

TEST(PartitionUndoClustersTest, DisjointScopesSplitIntoGroups) {
  // Three losers on disjoint objects and disjoint LSN windows.
  const std::vector<ScopeUndoTarget> targets = {
      {1, 10, Scope{1, 5, 9, false}},
      {2, 20, Scope{2, 20, 24, false}},
      {3, 30, Scope{3, 40, 44, false}},
  };
  const auto groups = PartitionUndoClusters(targets);
  ASSERT_EQ(groups.size(), 3u);
  // Deterministic order: newest cluster first.
  EXPECT_EQ(groups[0].front().responsible, 3u);
  EXPECT_EQ(groups[1].front().responsible, 2u);
  EXPECT_EQ(groups[2].front().responsible, 1u);
}

TEST(PartitionUndoClustersTest, OverlapMergesGroups) {
  const std::vector<ScopeUndoTarget> targets = {
      {1, 10, Scope{1, 5, 12, false}},
      {2, 20, Scope{2, 10, 24, false}},  // overlaps [5,12]
      {3, 30, Scope{3, 40, 44, false}},
  };
  const auto groups = PartitionUndoClusters(targets);
  ASSERT_EQ(groups.size(), 2u);
}

TEST(PartitionUndoClustersTest, SharedResponsibleMergesDisjointIntervals) {
  // Txn 1 is responsible for two disjoint windows: its CLR chain must be
  // written by one sweep.
  const std::vector<ScopeUndoTarget> targets = {
      {1, 10, Scope{1, 5, 9, false}},
      {1, 20, Scope{1, 30, 34, false}},
      {2, 30, Scope{2, 50, 54, false}},
  };
  const auto groups = PartitionUndoClusters(targets);
  ASSERT_EQ(groups.size(), 2u);
}

TEST(PartitionUndoClustersTest, SharedObjectMergesDisjointIntervals) {
  // Two losers touched the same object in disjoint windows: per-object
  // undo order must stay global.
  const std::vector<ScopeUndoTarget> targets = {
      {1, 10, Scope{1, 5, 9, false}},
      {2, 10, Scope{2, 30, 34, false}},
      {3, 30, Scope{3, 50, 54, false}},
  };
  const auto groups = PartitionUndoClusters(targets);
  ASSERT_EQ(groups.size(), 2u);
}

}  // namespace
}  // namespace ariesrh
