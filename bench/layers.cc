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
//   * BM_DiskLoad/<records>: SimulatedDisk::LoadFrom of a saved (v1) image
//     holding that many log records and no pages, in ns per record: the
//     file read, its CRC and the log section's copy into stable segments.
//     38,700 records is the size of one restart_asof shard image.
//   * BM_ArchiveLog/<live records>: one ArchiveLogPrefix that drops the
//     8,192 records appended since the last one (8 segments' worth of
//     64-byte records) and keeps that many live records after them. Its
//     cost should grow with what is dropped, not with what stays.
//   * BM_ForwardPassAnalysis/<kind>: the restart analysis sweep that only
//     rebuilds the tables and scopes (kAnalysisOnly), in ns per record.
//   * BM_ForwardPassCollect/<kind>: the same sweep with redo collected into
//     the page-keyed plan (kAnalysisCollectRedo), in ns per record. Each
//     forward row runs over physical UPDATE records (kind 0) or logical
//     TBL_* records (kind 1).
//   * BM_ScopeSweepUndo/<stall>: the loser-cluster backward sweep of
//     restart's undo pass into a sink that compensates nothing, in ns per
//     examined record; stall 0 runs with the seek stall off (every gap
//     between clusters is sought over, for free), stall 1 with the 25 us
//     seek of the restart benches (short gaps are read through). The
//     skipped, read_through and random_reads counters say which way each
//     gap went.
//   * BM_CheckpointWriteBack/<dirty heap pages>: one Checkpoint() whose
//     penultimate-checkpoint write-back finds that many heap pages dirty
//     since before the previous checkpoint, in ns per page written.
//   * BM_TableHeapPut/threads:<n>: one TableHeap::WithRecord overwrite of
//     a 100-byte value (no log), from n threads at once, each over its own
//     heap buckets: what the write path pays under its bucket latch, and
//     whether writers to distinct buckets scale. The parallelism counter is
//     the threads' summed CPU time over the loop's wall time: near n when
//     the threads ran side by side, near 1 when the host ran them one at a
//     time (a row that reads 1 says nothing about scaling).
//   * BM_TableHeapScan/<limit>: one TableHeap::Scan of up to that many
//     records from a key spread over a 25,000-key table whose buckets are
//     all loaded: the latch-all, per-bucket seek and merge a range read
//     pays, with no load in the loop.
//   * BM_TableHeapBootstrap/<keys>: a restart's heap load with every bucket
//     touched — every stable heap page read, checked and indexed — for a
//     table of that many keys with kv_durable's 100-byte values. Each
//     iteration builds a fresh heap, as a restart does, and tears it down.
//   * BM_TableHeapFirstTouch/<keys>: the same table after a restart, one
//     bucket touched: what the first access to a bucket pays (with the
//     same fresh heap per iteration).
//   * BM_CoordResolution/<records>: the coordinator's share of an open —
//     a sidecar of that many records (PREPARE/COMMIT pairs of 2-shard
//     rounds) read into a fresh coordinator log, and its in-doubt verdicts
//     taken.
//   * BM_LockAcquireRelease/<objects>: one transaction's exclusive
//     LockManager::Acquire on that many objects, then its ReleaseAll,
//     uncontended and without stats: the lock table's share of a commit.
//   * BM_DelegateTransfer/<objects>: one shard-local Database::Delegate of
//     that many objects: guard, check, one DELEGATE append, and the scope
//     and lock moves.
//   * BM_DelegateCrossShard: one Database::Delegate of two objects on two
//     shards, with the device stalls off: both legs guarded and checked,
//     the coordinator's PREPARE, two csn-stamped legs, their log forces,
//     and the forced coordinator COMMIT.

#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "coord/coordinator_log.h"
#include "lock/lock_manager.h"
#include "obs/clock.h"
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

/// CPU time the calling thread has used, in ns.
uint64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
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

void BM_DiskLoad(benchmark::State& state) {
  const int64_t records = state.range(0);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ariesrh_bm_disk_load_" + std::to_string(records) + ".img"))
          .string();
  {
    // Plain UPDATEs with every fourth record a small TBL_UPDATE: about
    // restart_asof's 39 bytes per record.
    Stats stats;
    SimulatedDisk disk(&stats);
    std::vector<std::string> images;
    for (int64_t i = 1; i <= records; ++i) {
      LogRecord rec =
          i % 4 == 0
              ? LogRecord::MakeTableUpdate(i % 97, i - 1, table::TableRid("k"),
                                           "key" + std::to_string(i % 4096),
                                           std::string(24, 'a'),
                                           std::string(24, 'b'))
              : LogRecord::MakeUpdate(i % 97, i - 1, i % 4096,
                                      UpdateKind::kAdd, 0, 7);
      rec.lsn = static_cast<Lsn>(i);
      images.push_back(rec.Serialize());
    }
    disk.AppendLogRecords(images);
    Check(disk.SaveTo(path), "SaveTo");
  }
  Stats stats;
  for (auto _ : state) {
    Result<SimulatedDisk> disk = SimulatedDisk::LoadFrom(path, &stats);
    Check(disk.status(), "LoadFrom");
    benchmark::DoNotOptimize(disk->stable_end_lsn());
  }
  state.counters["image_bytes"] = benchmark::Counter(
      static_cast<double>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
  state.counters["ns_per_record"] = benchmark::Counter(
      static_cast<double>(records) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  AddCpuCounter(state);
}
BENCHMARK(BM_DiskLoad)->Arg(4096)->Arg(38700)->Unit(benchmark::kMicrosecond);

void BM_ArchiveLog(benchmark::State& state) {
  const auto live = static_cast<Lsn>(state.range(0));
  constexpr Lsn kDropped = 8192;
  Stats stats;
  SimulatedDisk disk(&stats);
  disk.AppendLogRecords(std::vector<std::string>(live, std::string(64, 'r')));
  const std::vector<std::string> batch(kDropped, std::string(64, 'r'));
  uint64_t dropped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    disk.AppendLogRecords(batch);
    const Lsn keep_from = disk.stable_end_lsn() - live + 1;
    state.ResumeTiming();
    dropped = disk.ArchiveLogPrefix(keep_from);
  }
  if (dropped != kDropped) state.SkipWithError("archived the wrong count");
  state.counters["records_dropped"] =
      benchmark::Counter(static_cast<double>(dropped));
  AddCpuCounter(state);
}
// A fixed count: each iteration's untimed append costs far more than the
// timed archive, so a min_time-driven count would run for minutes.
BENCHMARK(BM_ArchiveLog)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(262144)
    ->Iterations(300)
    ->Unit(benchmark::kMicrosecond);

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
  // records inside them, and moves on between clusters.
  Database db;
  db.shard(0)->disk()->set_log_random_read_stall_ns(
      state.range(0) != 0 ? 25'000 : 0);
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
  uint64_t skipped = 0;
  uint64_t read_through = 0;
  uint64_t random_reads = 0;
  for (auto _ : state) {
    Stats stats;
    NullUndoSink sink;
    std::unordered_map<TxnId, Lsn> heads;
    const uint64_t random_before = db.stats().log_random_reads;
    Check(ScopeSweepUndo(targets, fwd->compensated, log->flushed_lsn(), log,
                         &stats, &sink, &heads),
          "ScopeSweepUndo");
    examined = stats.recovery_backward_examined;
    skipped = stats.recovery_backward_skipped;
    read_through = stats.recovery_backward_read_through;
    random_reads = db.stats().log_random_reads - random_before;
    undone = sink.undos();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(examined));
  state.counters["examined"] =
      benchmark::Counter(static_cast<double>(examined));
  state.counters["undone"] = benchmark::Counter(static_cast<double>(undone));
  state.counters["skipped"] = benchmark::Counter(static_cast<double>(skipped));
  state.counters["read_through"] =
      benchmark::Counter(static_cast<double>(read_through));
  state.counters["random_reads"] =
      benchmark::Counter(static_cast<double>(random_reads));
  state.counters["ns_per_examined"] = benchmark::Counter(
      static_cast<double>(examined) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  AddCpuCounter(state);
}
BENCHMARK(BM_ScopeSweepUndo)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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

/// A 1-shard engine whose table holds `keys` keys with 100-byte values,
/// every heap page written back.
std::unique_ptr<Database> StableTable(int keys) {
  std::vector<std::string> names;
  for (int i = 0; i < keys; ++i) names.push_back(HeapKey(i));
  auto db = std::make_unique<Database>();
  PutKeys(db.get(), names, std::string(100, 'v'));
  Check(db->Sync(), "Sync");
  Check(db->shard(0)->table_heap()->FlushAll(), "FlushAll");
  return db;
}

/// An empty heap over its own disk, shared by one run's threads.
struct HeapFixture {
  Stats stats;
  SimulatedDisk disk{&stats};
  table::TableHeap heap{&disk, &stats, /*wal_flush=*/nullptr};
};

void BM_TableHeapPut(benchmark::State& state) {
  constexpr size_t kKeysPerThread = 64;
  static std::unique_ptr<HeapFixture> fixture;
  // Thread 0 sets up before, and tears down after, the loop's start and
  // stop barriers.
  if (state.thread_index() == 0) fixture = std::make_unique<HeapFixture>();
  // Thread t writes only keys of the buckets b with b % threads == t.
  const auto threads = static_cast<size_t>(state.threads());
  const auto mine = static_cast<size_t>(state.thread_index());
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < kKeysPerThread; ++i) {
    std::string key = HeapKey(i);
    if (table::BucketOfRid(table::TableRid(key)) % threads == mine) {
      keys.push_back(std::move(key));
    }
  }
  const std::string value(100, 'v');
  Lsn lsn = kFirstLsn;
  // The overwrite, with no log behind it.
  const auto overwrite = [&](const std::optional<std::string>&,
                             table::RecordMutation* mut) -> Result<Lsn> {
    mut->op = table::RecordOp::kUpsert;
    mut->value = value;
    return lsn++;
  };
  size_t next = 0;
  // Both clocks start once every thread has passed the loop's start
  // barrier, and stop after its stop barrier, so each thread's wall window
  // is the whole run's.
  uint64_t cpu_start = 0;
  uint64_t wall_start = 0;
  for (auto _ : state) {
    if (wall_start == 0) {
      cpu_start = ThreadCpuNanos();
      wall_start = obs::MonotonicNanos();
    }
    Check(fixture->heap.WithRecord(keys[next], overwrite).status(),
          "WithRecord");
    if (++next == keys.size()) next = 0;
  }
  const uint64_t wall = obs::MonotonicNanos() - wall_start;
  // Summed over the threads by the report.
  state.counters["parallelism"] = benchmark::Counter(
      static_cast<double>(ThreadCpuNanos() - cpu_start) /
      static_cast<double>(std::max<uint64_t>(wall, 1)));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    AddCpuCounter(state);
    fixture.reset();
  }
}
BENCHMARK(BM_TableHeapPut)->Threads(1)->Threads(4)->UseRealTime();

void BM_TableHeapScan(benchmark::State& state) {
  constexpr int kKeys = 25000;
  const auto limit = static_cast<size_t>(state.range(0));
  const std::unique_ptr<Database> db = StableTable(kKeys);
  Stats stats;
  table::TableHeap heap(db->shard(0)->disk(), &stats, /*wal_flush=*/nullptr);
  // A scan touches every bucket: this one loads them all.
  Check(heap.Scan("", 1).status(), "Scan");
  // Start keys spread over the table, visited in a fixed order.
  std::vector<std::string> starts;
  for (int i = 0; i < kKeys; i += 97) starts.push_back(HeapKey(i));
  size_t next = 0;
  uint64_t rows = 0;
  for (auto _ : state) {
    const auto out = CheckResult(heap.Scan(starts[next], limit), "Scan");
    benchmark::DoNotOptimize(out.data());
    rows += out.size();
    if (++next == starts.size()) next = 0;
  }
  state.counters["rows"] = benchmark::Counter(
      static_cast<double>(rows) / static_cast<double>(state.iterations()));
  AddCpuCounter(state);
}
BENCHMARK(BM_TableHeapScan)->Arg(10)->Arg(100);

void BM_TableHeapBootstrap(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  const std::unique_ptr<Database> db = StableTable(keys);
  Stats stats;
  size_t loaded = 0;
  for (auto _ : state) {
    table::TableHeap heap(db->shard(0)->disk(), &stats, /*wal_flush=*/nullptr);
    // A scan touches every bucket.
    benchmark::DoNotOptimize(CheckResult(heap.Scan("", 1), "Scan"));
    loaded = heap.record_count();
  }
  if (loaded != static_cast<size_t>(keys)) {
    state.SkipWithError("the load lost records");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * keys);
  AddCpuCounter(state);
}
BENCHMARK(BM_TableHeapBootstrap)
    ->Arg(5000)
    ->Arg(25000)
    ->Unit(benchmark::kMillisecond);

void BM_TableHeapFirstTouch(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  const std::unique_ptr<Database> db = StableTable(keys);
  Stats stats;
  const std::string key = HeapKey(0);
  size_t bucket_keys = 0;
  for (auto _ : state) {
    table::TableHeap heap(db->shard(0)->disk(), &stats, /*wal_flush=*/nullptr);
    const std::optional<std::string> value = CheckResult(heap.Read(key), "Read");
    benchmark::DoNotOptimize(value);
    if (!value.has_value()) {
      state.SkipWithError("the first touch lost a record");
      return;
    }
    bucket_keys = heap.record_count();
  }
  state.counters["bucket_keys"] =
      benchmark::Counter(static_cast<double>(bucket_keys));
  AddCpuCounter(state);
}
BENCHMARK(BM_TableHeapFirstTouch)
    ->Arg(5000)
    ->Arg(25000)
    ->Unit(benchmark::kMillisecond);

void BM_CoordResolution(benchmark::State& state) {
  const auto records = static_cast<uint64_t>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() / "ariesrh_bench_coord.coord")
          .string();
  {
    coord::CoordinatorLog log;
    for (uint64_t csn = 1; 2 * (csn - 1) < records; ++csn) {
      coord::CoordRecord rec;
      rec.csn = csn;
      rec.txn = csn;
      rec.shards = {0, 1};
      log.Append(rec);
      rec.type = coord::CoordRecordType::kCommit;
      log.Append(rec);
    }
    Check(log.Force(), "Force");
    Check(log.SaveSidecar(path), "SaveSidecar");
  }
  size_t committed = 0;
  for (auto _ : state) {
    coord::CoordinatorLog log;
    Check(log.LoadSidecar(path), "LoadSidecar");
    committed = log.resolution().committed.size();
    benchmark::DoNotOptimize(committed);
  }
  std::filesystem::remove(path);
  if (committed != records / 2) {
    state.SkipWithError("the resolution lost a verdict");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  AddCpuCounter(state);
}
BENCHMARK(BM_CoordResolution)->Arg(12000)->Unit(benchmark::kMillisecond);

void BM_LockAcquireRelease(benchmark::State& state) {
  const int64_t objects = state.range(0);
  LockManager locks;
  TxnId txn = 1;
  for (auto _ : state) {
    for (ObjectId ob = 0; ob < static_cast<ObjectId>(objects); ++ob) {
      Check(locks.Acquire(txn, ob, LockMode::kExclusive), "Acquire");
    }
    locks.ReleaseAll(txn++);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          objects);
  AddCpuCounter(state);
}
BENCHMARK(BM_LockAcquireRelease)->Arg(1)->Arg(16);

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
