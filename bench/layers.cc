// Per-layer cost rows: what one unit of work costs inside a layer, with
// the end-to-end paths (commit, restart, time travel) out of the picture.
// Each row names the layer it isolates:
//
//   * BM_Crc32c/<bytes>/<path>: the checksum every log record, page, heap
//     page, disk image and coordinator record carries; path 0 is Extend
//     (the SSE4.2 crc32 instruction where the host has it), path 1 the
//     portable table routine it falls back to.
//   * BM_LogRecordDeserialize/<kind>: CRC check plus decode of one stable
//     log record image, the per-record floor of every forward sweep.
//   * BM_LogScan/<kind>: LogCursor over a durable log, read and decode only
//     — the floor of every sweep, in ns per record.
//   * BM_ForwardPassAnalysis/<kind>: the restart analysis sweep that only
//     rebuilds the tables and scopes (kAnalysisOnly), in ns per record.
//   * BM_ForwardPassCollect/<kind>: the same sweep with redo collected into
//     the page-keyed plan (kAnalysisCollectRedo), in ns per record. Each
//     forward row runs over physical UPDATE records (kind 0) or logical
//     TBL_* records (kind 1).
//   * BM_ScopeSweepUndo: the loser-cluster backward sweep of restart's undo
//     pass, stalls off, into a sink that compensates nothing, in ns per
//     examined record.
//   * BM_CheckpointWriteBack/<dirty heap pages>: one Checkpoint() whose
//     penultimate-checkpoint write-back finds that many heap pages dirty
//     since before the previous checkpoint, in ns per page written.
//   * BM_TableHeapBootstrap/<keys>: a restart's heap load — every stable
//     heap page read, checked and indexed — for a table of that many keys
//     with kv_durable's 100-byte values.
//   * BM_DelegateTransfer/<objects>: one shard-local Database::Delegate of
//     that many objects: guard, check, one DELEGATE append, and the scope
//     and lock moves.
//   * BM_DelegateCrossShard: one Database::Delegate of two objects on two
//     shards, with the device stalls off: both legs guarded and checked,
//     the coordinator's PREPARE, two csn-stamped legs, their log forces,
//     and the forced coordinator COMMIT.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "recovery/analysis.h"
#include "recovery/undo_rh.h"
#include "table/heap_page.h"
#include "table/table_heap.h"
#include "util/crc32c.h"
#include "wal/log_record.h"

namespace ariesrh::bench {
namespace {

void AddCpuCounter(benchmark::State& state) {
  state.counters["num_cpus"] =
      benchmark::Counter(static_cast<double>(NumCpus()));
}

void BM_Crc32c(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  const bool portable = state.range(1) == 1;
  if (!portable && !crc32c::internal::HardwareAccelerated()) {
    state.SkipWithError("no SSE4.2 crc32 on this host");
    return;
  }
  Random rng(bytes);
  std::string data(bytes, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  const auto extend =
      portable ? crc32c::internal::ExtendPortable : crc32c::Extend;
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = extend(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.SetLabel(portable ? "portable" : "hardware");
  AddCpuCounter(state);
}
BENCHMARK(BM_Crc32c)
    ->ArgsProduct({{64, 4096, 1 << 20}, {0, 1}})
    ->ArgNames({"bytes", "portable"});

// One stable image per record kind the restart sweep decodes most:
// 0 = a plain UPDATE, 1 = a TBL_UPDATE with a 100-byte value (kv_durable's
// value size) and its before image.
std::string RecordImage(int kind) {
  LogRecord rec;
  if (kind == 0) {
    rec = LogRecord::MakeUpdate(/*txn=*/42, /*prev=*/1000, /*ob=*/12345,
                                UpdateKind::kAdd, 0, 7);
  } else {
    const std::string key = "user000012345";
    rec = LogRecord::MakeTableUpdate(42, 1000, table::TableRid(key), key,
                                     std::string(100, 'b'),
                                     std::string(100, 'a'));
  }
  rec.lsn = 1001;
  return rec.Serialize();
}

void BM_LogRecordDeserialize(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const std::string image = RecordImage(kind);
  for (auto _ : state) {
    Result<LogRecord> rec = LogRecord::Deserialize(image);
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(kind == 0 ? "update" : "table_update");
  state.counters["image_bytes"] =
      benchmark::Counter(static_cast<double>(image.size()));
  AddCpuCounter(state);
}
BENCHMARK(BM_LogRecordDeserialize)->Arg(0)->Arg(1);

// A flushed history of `txns` committed transactions, each writing 4
// records of one kind: 0 = plain Adds over 4,096 objects (64 pages),
// 1 = TablePuts of 100-byte values over 4,096 keys.
void BuildHistory(Database* db, int kind, int txns) {
  Random rng(7);
  const std::string value(100, 'v');
  for (int i = 0; i < txns; ++i) {
    const TxnId txn = CheckResult(db->Begin(), "Begin");
    for (int w = 0; w < 4; ++w) {
      if (kind == 0) {
        Check(db->Add(txn, rng.Uniform(4096), 1), "Add");
      } else {
        Check(db->TablePut(txn, "key" + std::to_string(rng.Uniform(4096)),
                           value),
              "TablePut");
      }
    }
    Check(db->Commit(txn), "Commit");
  }
  Check(db->Sync(), "Sync");
}

void BM_LogScan(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  Database db;
  BuildHistory(&db, kind, /*txns=*/5000);
  const LogManager& log = *db.shard(0)->log_manager();
  uint64_t records = 0;
  for (auto _ : state) {
    records = 0;
    LogCursor cursor(log, kFirstLsn, log.flushed_lsn());
    while (cursor.Next()) {
      benchmark::DoNotOptimize(cursor.record().lsn);
      ++records;
    }
    Check(cursor.status(), "LogCursor");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.SetLabel(kind == 0 ? "update" : "table");
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
  state.counters["ns_per_record"] = benchmark::Counter(
      static_cast<double>(records) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  AddCpuCounter(state);
}
BENCHMARK(BM_LogScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void RunForwardPass(benchmark::State& state, ForwardPassKind pass) {
  const int kind = static_cast<int>(state.range(0));
  Database db;
  BuildHistory(&db, kind, /*txns=*/5000);
  LogManager* log = db.shard(0)->log_manager();
  ForwardPassOptions opts;
  opts.kind = pass;
  uint64_t records = 0;
  for (auto _ : state) {
    Stats stats;
    Result<ForwardPassResult> fwd =
        ForwardPass(DelegationMode::kRH, log, db.shard(0)->buffer_pool(),
                    &stats, /*ckpt=*/nullptr, /*ckpt_end_lsn=*/0, opts);
    Check(fwd.status(), "ForwardPass");
    records = fwd->records_scanned;
    benchmark::DoNotOptimize(fwd);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.SetLabel(kind == 0 ? "update" : "table");
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
  state.counters["ns_per_record"] = benchmark::Counter(
      static_cast<double>(records) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  AddCpuCounter(state);
}

void BM_ForwardPassAnalysis(benchmark::State& state) {
  RunForwardPass(state, ForwardPassKind::kAnalysisOnly);
}
BENCHMARK(BM_ForwardPassAnalysis)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ForwardPassCollect(benchmark::State& state) {
  RunForwardPass(state, ForwardPassKind::kAnalysisCollectRedo);
}
BENCHMARK(BM_ForwardPassCollect)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Examines what the sweep hands it and compensates nothing, so the row
/// prices the sweep alone.
class NullUndoSink final : public UndoSink {
 public:
  Status Undo(const LogRecord&, TxnId, std::unordered_map<TxnId, Lsn>*)
      override {
    ++undos_;
    return Status::OK();
  }
  void End(TxnId, Lsn) override {}
  uint64_t undos() const { return undos_; }

 private:
  uint64_t undos_ = 0;
};

void BM_ScopeSweepUndo(benchmark::State& state) {
  // Winners interleaved with losers over 4,096 objects: every tenth
  // transaction stays open and writes its first object again five
  // transactions later, so each loser scope spans about 30 records. The
  // sweep examines those clusters record by record, skipping the winner
  // records inside them, and jumps between clusters.
  Database db;
  Random rng(11);
  TxnId loser = kInvalidTxn;
  ObjectId loser_ob = 0;
  for (int i = 0; i < 5000; ++i) {
    const TxnId txn = CheckResult(db.Begin(), "Begin");
    ObjectId first = kInvalidObject;
    for (int w = 0; w < 4; ++w) {
      // A busy object (a loser holds it) is skipped, the same way each run.
      const ObjectId ob = rng.Uniform(4096);
      if (db.Add(txn, ob, 1).ok() && first == kInvalidObject) first = ob;
    }
    if (i % 10 == 0 && first != kInvalidObject) {
      loser = txn;
      loser_ob = first;
      continue;
    }
    Check(db.Commit(txn), "Commit");
    if (i % 10 == 5 && loser != kInvalidTxn) {
      Check(db.Add(loser, loser_ob, 1), "Add");
    }
  }
  Check(db.Sync(), "Sync");
  LogManager* log = db.shard(0)->log_manager();
  Stats fwd_stats;
  ForwardPassOptions opts;
  opts.kind = ForwardPassKind::kAnalysisOnly;
  Result<ForwardPassResult> fwd =
      ForwardPass(DelegationMode::kRH, log, db.shard(0)->buffer_pool(),
                  &fwd_stats, /*ckpt=*/nullptr, /*ckpt_end_lsn=*/0, opts);
  Check(fwd.status(), "ForwardPass");
  std::vector<ScopeUndoTarget> targets;
  for (const auto& [txn, info] : fwd->txns) {
    if (!info.IsLoser()) continue;
    for (const auto& [ob, entry] : info.ob_list) {
      for (const Scope& scope : entry.scopes) {
        targets.push_back({txn, ob, scope});
      }
    }
  }
  uint64_t examined = 0;
  uint64_t undone = 0;
  for (auto _ : state) {
    Stats stats;
    NullUndoSink sink;
    std::unordered_map<TxnId, Lsn> heads;
    Check(ScopeSweepUndo(targets, fwd->compensated, log->flushed_lsn(), log,
                         &stats, &sink, &heads),
          "ScopeSweepUndo");
    examined = stats.recovery_backward_examined;
    undone = sink.undos();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(examined));
  state.counters["examined"] =
      benchmark::Counter(static_cast<double>(examined));
  state.counters["undone"] = benchmark::Counter(static_cast<double>(undone));
  state.counters["ns_per_examined"] = benchmark::Counter(
      static_cast<double>(examined) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  AddCpuCounter(state);
}
BENCHMARK(BM_ScopeSweepUndo)->Unit(benchmark::kMillisecond);

// kv_durable's record shape: 9-byte keys, 100-byte values.
std::string HeapKey(int i) {
  char key[16];
  snprintf(key, sizeof(key), "key%06d", i);
  return key;
}

/// Commits `keys` puts of `value` in batches, one transaction per batch.
void PutKeys(Database* db, const std::vector<std::string>& keys,
             const std::string& value) {
  constexpr size_t kBatch = 1000;
  for (size_t base = 0; base < keys.size(); base += kBatch) {
    const TxnId txn = CheckResult(db->Begin(), "Begin");
    for (size_t i = base; i < std::min(keys.size(), base + kBatch); ++i) {
      Check(db->TablePut(txn, keys[i], value), "TablePut");
    }
    Check(db->Commit(txn), "Commit");
  }
}

void BM_CheckpointWriteBack(benchmark::State& state) {
  const size_t pages = static_cast<size_t>(state.range(0));
  const std::string value(100, 'v');
  // Inserted in order with no deletes, each bucket chain fills its pages
  // front to back; the first key placed on each page dirties that page.
  std::array<size_t, table::kTableBuckets> chain_pages{};
  std::array<size_t, table::kTableBuckets> page_bytes{};
  std::vector<std::string> keys, one_per_page;
  for (int i = 0; one_per_page.size() < pages; ++i) {
    const std::string key = HeapKey(i);
    keys.push_back(key);
    const size_t b = table::BucketOfRid(table::TableRid(key));
    const size_t bytes = key.size() + value.size();
    if (chain_pages[b] == 0 ||
        page_bytes[b] + bytes > table::HeapPage::kPayloadCapacity) {
      ++chain_pages[b];
      page_bytes[b] = 0;
      one_per_page.push_back(key);
    }
    page_bytes[b] += bytes;
  }
  Database db;
  PutKeys(&db, keys, value);
  // The second checkpoint writes the load back: every page starts clean.
  Check(db.Checkpoint(), "Checkpoint");
  Check(db.Checkpoint(), "Checkpoint");
  uint64_t written = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Dirty every page again, then anchor a checkpoint after those writes:
    // the timed checkpoint finds them all dirty since before its
    // predecessor's CKPT_BEGIN.
    PutKeys(&db, one_per_page, value);
    Check(db.Checkpoint(), "Checkpoint(anchor)");
    const uint64_t before = db.stats().checkpoint_pages_written;
    state.ResumeTiming();
    Check(db.Checkpoint(), "Checkpoint");
    written = db.stats().checkpoint_pages_written - before;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(written));
  state.counters["pages_written"] =
      benchmark::Counter(static_cast<double>(written));
  state.counters["ns_per_page"] = benchmark::Counter(
      static_cast<double>(written) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  AddCpuCounter(state);
}
BENCHMARK(BM_CheckpointWriteBack)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_TableHeapBootstrap(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  std::vector<std::string> names;
  for (int i = 0; i < keys; ++i) names.push_back(HeapKey(i));
  Database db;
  PutKeys(&db, names, std::string(100, 'v'));
  Check(db.Sync(), "Sync");
  Check(db.shard(0)->table_heap()->FlushAll(), "FlushAll");
  Stats stats;
  table::TableHeap heap(db.shard(0)->disk(), &stats, /*wal_flush=*/nullptr);
  for (auto _ : state) {
    Check(heap.Bootstrap(), "Bootstrap");
  }
  if (heap.record_count() != static_cast<size_t>(keys)) {
    state.SkipWithError("bootstrap lost records");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * keys);
  AddCpuCounter(state);
}
BENCHMARK(BM_TableHeapBootstrap)
    ->Arg(5000)
    ->Arg(25000)
    ->Unit(benchmark::kMillisecond);

/// Ping-pongs `objects` between two live transactions, one Delegate per
/// iteration, so the setup (begins, updates) stays out of the timing.
void RunDelegations(benchmark::State& state, Database* db,
                    const std::vector<ObjectId>& objects) {
  TxnId from = CheckResult(db->Begin(), "Begin");
  TxnId to = CheckResult(db->Begin(), "Begin");
  for (ObjectId ob : objects) Check(db->Add(from, ob, 1), "Add");
  const Stats before = db->stats();
  for (auto _ : state) {
    Check(db->Delegate(from, to, DelegationSpec::Objects(objects)),
          "Delegate");
    std::swap(from, to);
  }
  const Stats delta = db->stats().Delta(before);
  const double n = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["log_appends_per_delegate"] =
      benchmark::Counter(static_cast<double>(delta.log_appends) / n);
  state.counters["scopes_per_delegate"] =
      benchmark::Counter(static_cast<double>(delta.scopes_transferred) / n);
  AddCpuCounter(state);
}

void BM_DelegateTransfer(benchmark::State& state) {
  Options options;
  options.buffer_pool_pages = 1024;
  Database db(options);
  std::vector<ObjectId> objects;
  for (int64_t i = 0; i < state.range(0); ++i) objects.push_back(i);
  RunDelegations(state, &db, objects);
}
BENCHMARK(BM_DelegateTransfer)->Arg(1)->Arg(64);

void BM_DelegateCrossShard(benchmark::State& state) {
  Options options;
  options.num_shards = 2;
  Database db(options);
  // One object per shard, so every transfer is a coordinator round.
  std::vector<ObjectId> objects;
  for (ObjectId ob = 0; objects.size() < 2; ++ob) {
    if (db.ShardOf(ob) == objects.size()) objects.push_back(ob);
  }
  RunDelegations(state, &db, objects);
}
BENCHMARK(BM_DelegateCrossShard);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("layers")
