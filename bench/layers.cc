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
//   * BM_ForwardPassCollect/<kind>: the restart analysis sweep with redo
//     collected into the page-keyed plan (kAnalysisCollectRedo), in ns per
//     record, over physical UPDATE records or logical TBL_* records.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "recovery/analysis.h"
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

void BM_ForwardPassCollect(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  Database db;
  BuildHistory(&db, kind, /*txns=*/5000);
  LogManager* log = db.log_manager();
  ForwardPassOptions opts;
  opts.kind = ForwardPassKind::kAnalysisCollectRedo;
  uint64_t records = 0;
  for (auto _ : state) {
    Stats stats;
    Result<ForwardPassResult> fwd =
        ForwardPass(DelegationMode::kRH, log, db.buffer_pool(), &stats,
                    /*ckpt=*/nullptr, /*ckpt_end_lsn=*/0, opts);
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
BENCHMARK(BM_ForwardPassCollect)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("layers")
