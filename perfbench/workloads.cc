// The two workloads and the restart cycle they share.
//
// Every workload runs a fixed number of transactions and restarts, derived
// from --seconds, never a fixed duration: the engine keeps every finished
// transaction and log record in memory, so per-transaction cost grows with
// history and a duration-bound run would measure a different amount of
// history on a faster or slower machine. Inputs are generated from the seed
// before any timing starts. Clients are closed loops: each waits for a
// commit's durable ack before starting its next transaction.
//
// Every workload also crashes its own history and restarts it several times
// (instant restart, then one time-travel query), so every run reports the
// same end-to-end metrics; see NOTES.md for what each phase stresses.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "reenact/reenact.h"
#include "table/table_heap.h"
#include "util/random.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using ariesrh::Database;
using ariesrh::DelegationSpec;
using ariesrh::Lsn;
using ariesrh::ObjectId;
using ariesrh::Options;
using ariesrh::Random;
using ariesrh::Result;
using ariesrh::Stats;
using ariesrh::Status;
using ariesrh::TxnId;

constexpr double kZipfTheta = 0.99;
constexpr size_t kValueBytes = 100;
/// Simulated stable-log seek charged to every random log read on restart.
constexpr uint64_t kSeekNs = 25 * 1000;
constexpr size_t kRecoveryThreads = 2;
/// Simulated log force: an NVMe-class fsync.
constexpr uint64_t kForceNs = 200 * 1000;
/// Plain objects the restart cycle's transactions write; far above every
/// object a workload's history touches.
constexpr ObjectId kFreshObjectBase = ObjectId{1} << 28;
/// A transaction is retried after kBusy at most this often before it counts
/// as failed.
constexpr int kMaxAttempts = 1000;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  throw std::runtime_error(what + ": " + status.ToString());
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double PerSecond(uint64_t count, uint64_t elapsed_ns) {
  return static_cast<double>(count) / (static_cast<double>(elapsed_ns) / 1e9);
}

std::string Value(const std::string& tag) {
  std::string value = tag;
  value.resize(kValueBytes, '.');
  return value;
}

/// Multiplies a base amount of work by the run length (the base sizes are
/// for a 10-second run); never below one unit.
size_t Scaled(size_t base, int seconds) {
  return std::max<size_t>(1, base * static_cast<size_t>(seconds) / 10);
}

/// What a client saw of its transactions.
struct ClientTally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t multi_shard = 0;  ///< commits that ran two-phase commit
  std::vector<double> latency_ns;

  void Merge(const ClientTally& other) {
    attempted += other.attempted;
    committed += other.committed;
    failed += other.failed;
    retries += other.retries;
    multi_shard += other.multi_shard;
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                      other.latency_ns.end());
  }
};

/// Engine counters summed over the measured commit phases.
struct LayerCounts {
  uint64_t lock_acquires = 0;
  uint64_t lock_conflicts = 0;
  uint64_t log_appends = 0;
  uint64_t log_bytes = 0;
  uint64_t log_flushes = 0;
  uint64_t group_forces = 0;
  uint64_t bp_hits = 0;
  uint64_t bp_misses = 0;
  uint64_t page_reads = 0;
  uint64_t delegations = 0;
  uint64_t checkpoints = 0;
  uint64_t archived = 0;

  void Add(const Stats& d) {
    lock_acquires += d.lock_acquires;
    lock_conflicts += d.lock_conflicts;
    log_appends += d.log_appends;
    log_bytes += d.log_bytes_appended;
    log_flushes += d.log_flushes;
    group_forces += d.log_group_forces;
    bp_hits += d.bp_hits;
    bp_misses += d.bp_misses;
    page_reads += d.page_reads;
    delegations += d.delegations;
    checkpoints += d.checkpoints_taken;
    archived += d.archived_records;
  }
};

/// Transactions the engine still holds, summed over shards.
uint64_t RetainedTxns(Database* db) {
  uint64_t n = 0;
  for (size_t i = 0; i < db->num_shards(); ++i) {
    n += db->shard(i)->txn_manager()->SnapshotTransactions().size();
  }
  return n;
}

/// Log records not yet archived, summed over shards.
uint64_t LiveLogRecords(Database* db) {
  uint64_t n = 0;
  for (size_t i = 0; i < db->num_shards(); ++i) {
    const Lsn end = db->shard(i)->log_manager()->end_lsn();
    const Lsn first = db->shard(i)->disk()->first_retained_lsn();
    if (end >= first) n += end - first + 1;
  }
  return n;
}

/// Log records a backward undo pass that reads every record would read:
/// per shard, from the tail down to the oldest record a transaction still
/// active answers for (its first record, or the first record of a scope
/// delegated to it). The same bound ArchiveLog keeps. 0 without losers.
uint64_t FullSweepRecords(Database* db) {
  uint64_t n = 0;
  for (size_t i = 0; i < db->num_shards(); ++i) {
    Lsn oldest = ariesrh::kInvalidLsn;
    for (const auto& [id, tx] :
         db->shard(i)->txn_manager()->SnapshotTransactions()) {
      if (tx.state != ariesrh::TxnState::kActive &&
          tx.state != ariesrh::TxnState::kPrepared) {
        continue;
      }
      oldest = std::min(oldest, tx.first_lsn);
      for (const auto& [ob, entry] : tx.ob_list) {
        for (const ariesrh::Scope& scope : entry.scopes) {
          oldest = std::min(oldest, scope.first);
        }
      }
    }
    const Lsn end = db->shard(i)->log_manager()->end_lsn();
    if (oldest != ariesrh::kInvalidLsn && end >= oldest) n += end - oldest + 1;
  }
  return n;
}

/// A cut in the middle of the history every shard can still replay.
/// Reenactment applies one cut to every shard as min(cut, that shard's
/// tail); once a log prefix is archived, replay starts at the shard's
/// master checkpoint, so the cut must lie above every shard's earliest
/// replayable LSN.
Lsn MiddleCut(Database* db) {
  ariesrh::reenact::Reenactor r =
      Must(ariesrh::reenact::Reenactor::OpenLive(db), "Reenactor::OpenLive");
  Lsn first = ariesrh::kFirstLsn;
  Lsn last = r.tail_lsn(0);
  for (size_t i = 0; i < r.num_shards(); ++i) {
    first = std::max(first, r.earliest_lsn(i));
    last = std::min(last, r.tail_lsn(i));
  }
  return first + (std::max(first, last) - first) / 2;
}

/// Commits `txn`, recording a span named after the path it takes: a
/// one-shard commit is the transaction layer's, a two-shard one the
/// coordinator's two-phase commit.
Status TracedCommit(Database* db, TxnId txn, bool multi_shard, SpanLog* log) {
  ScopedSpan span(log, multi_shard ? "coord.commit" : "txn.commit");
  return db->Commit(txn);
}

/// In a traced run every other repetition or restart records spans and the
/// rest do not; comparing their wall times measures the tracing overhead.
SpanLog* EveryOther(SpanLog* log, size_t i) {
  return i % 2 == 0 ? log : nullptr;
}

// --------------------------------------------------------------------------
// Restart cycle: open a crash image with instant restart, commit, catch up,
// time-travel.

struct RestartSpec {
  Options options;      ///< open options (kInstant)
  std::string image;    ///< Database::SaveTo path
  Lsn cut = 0;          ///< time-travel cut
  /// Transactions committed once restart has caught up (after the first
  /// commit, which goes in right after the open).
  size_t txns_after_catchup = 0;
  size_t cycles = 1;
  /// FullSweepRecords of the database the image was saved from.
  uint64_t full_sweep = 0;
  /// Runs untimed before each restart, if set.
  std::function<void(size_t cycle)> before_cycle;
};

struct RestartTally {
  std::vector<double> open_ms, ttfc_ms, catchup_ms, asof_ms;
  std::vector<double> reenact_open_ms, state_at_ms;
  std::vector<double> analysis_ms, redo_ms, undo_ms;
  std::vector<double> bwd_examined, engine_skipped, random_reads,
      ondemand_pages, losers, undos;
  uint64_t full_sweep = 0;  ///< the same for every restart of one image
  ClientTally txns;
  /// Per restart: the transactions after catch-up over their wall time,
  /// and their latency percentiles.
  std::vector<double> after_catchup_per_s;
  /// Traced runs: each restart's wall time, by whether it recorded spans.
  std::vector<double> traced_s, untraced_s;
};

/// The transactions a restart cycle commits: each writes its own fresh key
/// and a fresh object on the other shard, outside every loser cluster of
/// any history. So every one runs two-phase commit, and their latencies
/// form one mode, not a mix of one-shard and two-shard commits.
struct FreshWrites {
  std::vector<std::string> keys;
  std::vector<ObjectId> objects;
  bool multi_shard = false;
  std::string value = Value("fresh");
};

FreshWrites MakeFreshWrites(size_t n, size_t shards) {
  FreshWrites w;
  w.multi_shard = shards > 1;
  ObjectId next = kFreshObjectBase;
  for (size_t i = 0; i < n; ++i) {
    w.keys.push_back(std::string("fresh:") + std::to_string(i));
    const size_t key_shard = ariesrh::ShardIndexOf(
        ariesrh::table::TableRid(w.keys.back()), shards);
    while (w.multi_shard && ariesrh::ShardIndexOf(next, shards) == key_shard) {
      ++next;
    }
    w.objects.push_back(next++);
  }
  return w;
}

/// Checks that every fresh write of a cycle reads back.
void CheckFresh(Database* db, const FreshWrites& w, size_t n,
                std::vector<std::string>* errors) {
  for (size_t i = 0; i < n; ++i) {
    auto got = Must(db->TableGetCommitted(w.keys[i]), "TableGetCommitted");
    if (got != w.value) errors->push_back("fresh key " + w.keys[i] + " lost");
    if (Must(db->ReadCommitted(w.objects[i]), "ReadCommitted") != 1) {
      errors->push_back("fresh object " + std::to_string(w.objects[i]) +
                        " lost");
    }
  }
}

/// The committed state kv_durable's restarted database must hold: each
/// key's last acked value, each counter's acked adds, and the cycle's fresh
/// write.
ariesrh::reenact::StateImage KvImage(
    const std::vector<std::string>& keys,
    const std::vector<const std::string*>& values,
    const std::vector<int64_t>& counters, const FreshWrites& fresh) {
  ariesrh::reenact::StateImage image;
  for (size_t i = 0; i < keys.size(); ++i) image.records[keys[i]] = *values[i];
  for (size_t ob = 0; ob < counters.size(); ++ob) {
    if (counters[ob] != 0) image.objects[ob] = counters[ob];
  }
  image.records[fresh.keys[0]] = fresh.value;
  image.objects[fresh.objects[0]] = 1;
  return image;
}

/// Runs spec.cycles restarts of one image. `verify` checks each restarted
/// database and its time-travel answer outside the timed region.
void RunRestarts(
    const RestartSpec& spec, const FreshWrites& fresh, SpanLog* trace_log,
    uint64_t* next_trace_id,
    const std::function<void(Database*, const ariesrh::reenact::StateImage&,
                             std::vector<std::string>*)>& verify,
    RestartTally* out, std::vector<std::string>* errors) {
  std::optional<std::string> first_asof;
  out->full_sweep = spec.full_sweep;
  for (size_t cycle = 0; cycle < spec.cycles; ++cycle) {
    if (spec.before_cycle) spec.before_cycle(cycle);
    SpanLog* const log = EveryOther(trace_log, cycle);
    Database::OpenResult opened;
    ariesrh::RecoveryManager::Outcome outcome;
    ariesrh::reenact::StateImage asof;
    Stats after_catchup;
    {
      if (log != nullptr) log->BeginTrace((*next_trace_id)++);
      ScopedSpan root(log, "client.restart");
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(log, "recovery.open");
        opened = Must(Database::Open(spec.options, spec.image), "Open(image)");
      }
      const uint64_t t_open = NowNs();
      Database* db = opened.db.get();
      // Transaction i writes fresh key i and fresh object i.
      auto commit_fresh = [&](size_t i) {
        ++out->txns.attempted;
        ScopedSpan txn_span(log, "client.txn");
        TxnId t;
        {
          ScopedSpan span(log, "txn.begin");
          t = Must(db->Begin(), "Begin");
        }
        {
          ScopedSpan span(log, "table.put");
          Must(db->TablePut(t, fresh.keys[i], fresh.value), "TablePut(fresh)");
        }
        {
          ScopedSpan span(log, "object.add");
          Must(db->Add(t, fresh.objects[i], 1), "Add(fresh)");
        }
        Must(TracedCommit(db, t, fresh.multi_shard, log), "Commit(fresh)");
        ++out->txns.committed;
        if (fresh.multi_shard) ++out->txns.multi_shard;
      };
      commit_fresh(0);
      out->ttfc_ms.push_back(Ms(NowNs() - t0));
      {
        ScopedSpan span(log, "recovery.await");
        outcome = Must(opened.recovery->Await(), "RecoveryHandle::Await");
      }
      const uint64_t t_caught_up = NowNs();
      after_catchup = db->stats();
      for (size_t i = 1; i <= spec.txns_after_catchup; ++i) {
        const uint64_t start = NowNs();
        commit_fresh(i);
        out->txns.latency_ns.push_back(static_cast<double>(NowNs() - start));
      }
      const uint64_t t_asked = NowNs();
      if (spec.txns_after_catchup > 0) {
        out->after_catchup_per_s.push_back(
            PerSecond(spec.txns_after_catchup, t_asked - t_caught_up));
      }
      uint64_t t_opened_reenactor;
      {
        ariesrh::reenact::Reenactor reenactor = [&] {
          ScopedSpan span(log, "reenact.open");
          return Must(ariesrh::reenact::Reenactor::OpenLive(db),
                      "Reenactor::OpenLive");
        }();
        t_opened_reenactor = NowNs();
        ScopedSpan span(log, "reenact.state_at");
        asof = Must(reenactor.StateAt(spec.cut), "StateAt(cut)");
      }
      const uint64_t t_asof = NowNs();
      out->open_ms.push_back(Ms(t_open - t0));
      out->catchup_ms.push_back(Ms(t_caught_up - t0));
      out->asof_ms.push_back(Ms(t_asof - t_asked));
      out->reenact_open_ms.push_back(Ms(t_opened_reenactor - t_asked));
      out->state_at_ms.push_back(Ms(t_asof - t_opened_reenactor));
      if (trace_log != nullptr) {
        (log != nullptr ? out->traced_s : out->untraced_s)
            .push_back(static_cast<double>(t_asof - t0) / 1e9);
      }
    }
    out->analysis_ms.push_back(Ms(outcome.analysis_ns));
    out->redo_ms.push_back(Ms(outcome.redo_ns));
    out->undo_ms.push_back(Ms(outcome.undo_ns));
    out->losers.push_back(static_cast<double>(outcome.losers));
    out->undos.push_back(static_cast<double>(outcome.records_undone));
    out->bwd_examined.push_back(
        static_cast<double>(after_catchup.recovery_backward_examined));
    out->engine_skipped.push_back(
        static_cast<double>(after_catchup.recovery_backward_skipped));
    out->random_reads.push_back(
        static_cast<double>(after_catchup.log_random_reads));
    out->ondemand_pages.push_back(
        static_cast<double>(after_catchup.ondemand_redo_pages));

    // Checks, outside the timed region.
    const std::string serialized = asof.Serialize();
    if (!first_asof.has_value()) {
      first_asof = serialized;
    } else if (serialized != *first_asof) {
      errors->push_back("StateAt(cut) differs between restarts of one image");
    }
    CheckFresh(opened.db.get(), fresh, spec.txns_after_catchup + 1, errors);
    verify(opened.db.get(), asof, errors);
  }
}

Options RestartOptions(Options options) {
  options.recovery_mode = ariesrh::RecoveryMode::kInstant;
  options.recovery_threads = kRecoveryThreads;
  options.sim_log_random_read_ns = kSeekNs;
  return options;
}

/// Crashes `db` after making every acked commit durable and saves the
/// stable state; returns the image path and sets spec->full_sweep.
std::string CrashAndSave(Database* db, const RunConfig& config,
                         RestartSpec* spec) {
  Must(db->Sync(), "Sync");
  spec->full_sweep = FullSweepRecords(db);
  db->SimulateCrash();
  const std::string path = config.scratch_dir + "/" + config.workload + ".img";
  Must(db->SaveTo(path), "SaveTo");
  return path;
}

// --------------------------------------------------------------------------
// Shared reporting.

struct PhaseReport {
  /// Committed txns/s, one entry per repetition; the median is reported,
  /// which a single slow repetition cannot move. Latency percentiles come
  /// from every transaction of the run (clients.latency_ns).
  std::vector<double> throughput;
  std::vector<double> setup_s;     ///< one per set-up
  /// Traced runs: the wall time of each repetition (kv workloads) or
  /// restart (restart_asof), by whether it recorded spans.
  std::vector<double> traced_s, untraced_s;
  ClientTally clients;
  LayerCounts counts;
  uint64_t retained = 0;
  uint64_t live_records = 0;
  RestartTally restarts;
  SpanSummary spans;
};


double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0 : Median(v);
}

double PerTxn(uint64_t count, uint64_t txns) {
  return txns == 0 ? 0 : static_cast<double>(count) / static_cast<double>(txns);
}

void Report(const RunConfig& config, const PhaseReport& p, RunResult* out) {
  MetricSet& m = out->metrics;
  const RestartTally& r = p.restarts;
  if (!config.trace) {
    m.Set("setup_s", MedianOr0(p.setup_s), "s");
    m.Set("rss_mb", PeakRssMb(), "MiB");
    m.Set("throughput_per_s", MedianOr0(p.throughput), "1/s");
    m.Set("txn_p50_ms", Percentile(p.clients.latency_ns, 50) / 1e6, "ms");
    m.Set("txn_p99_ms", Percentile(p.clients.latency_ns, 99) / 1e6, "ms");
    // A first write can race the background table drain (NOTES.md,
    // behaviour 6), which makes ttfc bimodal on kv_durable.
    m.Set("ttfc_ms", TrimmedMean(r.ttfc_ms), "ms");
    m.Set("catchup_ms", MedianOr0(r.catchup_ms), "ms");
    m.Set("asof_ms", MedianOr0(r.asof_ms), "ms");
    return;
  }
  const SpanSummary& s = p.spans;
  const uint64_t txns = p.clients.committed;
  m.Set("table.put_us", s.P50Us("table.put"), "us");
  m.Set("txn.begin_us", s.P50Us("txn.begin"), "us");
  m.Set("txn.commit_us", s.P50Us("txn.commit"), "us");
  m.Set("txn.delegate_us", s.P50Us("txn.delegate"), "us");
  m.Set("txn.retries_per_commit", PerTxn(p.clients.retries, txns), "count");
  m.Set("txn.retained", static_cast<double>(p.retained), "count");
  m.Set("txn.delegations", static_cast<double>(p.counts.delegations), "count");
  m.Set("lock.acquires_per_txn", PerTxn(p.counts.lock_acquires, txns),
        "count");
  m.Set("lock.conflicts_per_txn", PerTxn(p.counts.lock_conflicts, txns),
        "count");
  m.Set("wal.records_per_txn", PerTxn(p.counts.log_appends, txns), "count");
  m.Set("wal.bytes_per_txn", PerTxn(p.counts.log_bytes, txns), "B");
  m.Set("wal.forces_per_commit", PerTxn(p.counts.log_flushes, txns), "count");
  m.Set("wal.group_forces_per_commit", PerTxn(p.counts.group_forces, txns),
        "count");
  m.Set("wal.live_records", static_cast<double>(p.live_records), "count");
  m.Set("coord.commit_us", s.P50Us("coord.commit"), "us");
  m.Set("coord.two_phase_commits", static_cast<double>(p.clients.multi_shard),
        "count");
  const uint64_t fetches = p.counts.bp_hits + p.counts.bp_misses;
  m.Set("storage.hit_ratio",
        fetches == 0 ? 1.0
                     : static_cast<double>(p.counts.bp_hits) /
                           static_cast<double>(fetches),
        "ratio");
  m.Set("storage.misses", static_cast<double>(p.counts.bp_misses), "count");
  m.Set("storage.page_reads_per_txn", PerTxn(p.counts.page_reads, txns),
        "count");
  m.Set("core.checkpoint_ms", s.P50Us("core.checkpoint") / 1e3, "ms");
  m.Set("core.archive_ms", s.P50Us("core.archive") / 1e3, "ms");
  m.Set("core.checkpoints", static_cast<double>(p.counts.checkpoints),
        "count");
  m.Set("core.archived_records", static_cast<double>(p.counts.archived),
        "count");
  m.Set("recovery.open_ms", MedianOr0(r.open_ms), "ms");
  m.Set("recovery.first_commit_ms", MedianOr0(r.ttfc_ms), "ms");
  m.Set("recovery.ondemand_pages", MedianOr0(r.ondemand_pages), "count");
  m.Set("recovery.analysis_ms", MedianOr0(r.analysis_ms), "ms");
  m.Set("recovery.redo_ms", MedianOr0(r.redo_ms), "ms");
  m.Set("recovery.undo_ms", MedianOr0(r.undo_ms), "ms");
  m.Set("recovery.losers", MedianOr0(r.losers), "count");
  m.Set("recovery.undos", MedianOr0(r.undos), "count");
  // Skipped = records a backward pass that reads every record from the
  // tail down to the oldest loser record would read, minus those the
  // cluster sweep examined. The engine's own skip counter is reported
  // beside it: it counts only gaps inside one cluster group's sweep.
  const double examined = MedianOr0(r.bwd_examined);
  const double sweep = static_cast<double>(r.full_sweep);
  const double skipped = sweep - examined;
  m.Set("recovery.bwd_full_sweep", sweep, "count");
  m.Set("recovery.bwd_examined", examined, "count");
  m.Set("recovery.bwd_skipped", skipped, "count");
  m.Set("recovery.skip_ratio", sweep == 0 ? 0 : skipped / sweep, "ratio");
  m.Set("recovery.engine_skipped", MedianOr0(r.engine_skipped), "count");
  m.Set("recovery.random_reads", MedianOr0(r.random_reads), "count");
  m.Set("reenact.open_ms", MedianOr0(r.reenact_open_ms), "ms");
  m.Set("reenact.state_at_ms", MedianOr0(r.state_at_ms), "ms");
  for (const char* layer : {"client", "txn", "table", "object", "coord", "core",
                            "recovery", "reenact"}) {
    auto it = s.layer_self_ns.find(layer);
    m.Set(std::string("self.") + layer + "_ms",
          it == s.layer_self_ns.end() ? 0 : Ms(it->second), "ms");
  }
  m.Set("trace.spans", static_cast<double>(s.spans), "count");
  // Median wall time of the units that recorded spans over that of the
  // units that did not, as a share.
  m.Set("trace.overhead_pct",
        p.traced_s.empty() || p.untraced_s.empty()
            ? 0
            : 100.0 * (Median(p.traced_s) / Median(p.untraced_s) - 1),
        "%");
}

// --------------------------------------------------------------------------
// kv_durable: two shards, group commit with early lock release under a
// simulated 200 us force, three closed-loop clients, delegation, 2PC, a
// counter space larger than the buffer pool, periodic checkpoints.

struct DurableTxn {
  uint32_t key[2] = {0, 0};
  uint32_t counter = 0;
  uint32_t value[2] = {0, 0};  ///< indexes into the client's values
  bool delegate = false;
  bool multi_shard = false;
};

/// What one acked write left behind, for the durability check.
struct AckedPut {
  uint32_t key;
  const std::string* value;
  uint64_t commit_start_ns;
};

/// Lets one client run an admin call while no transaction is in flight.
/// `ArchiveLog` must not run beside commits: it erases the front of the
/// stable log while a commit's flush may be appending to it, which corrupts
/// the log (NOTES.md, "Known engine defect"). So every kv_durable
/// transaction holds the gate shared, and the archive holds it alone.
class TxnGate {
 public:
  /// Holds the gate shared for its lifetime.
  class Shared {
   public:
    explicit Shared(TxnGate* gate) : gate_(gate) {
      std::unique_lock lock(gate_->mu_);
      gate_->cv_.wait(lock, [&] { return !gate_->pausing_; });
      ++gate_->active_;
    }
    ~Shared() {
      std::lock_guard lock(gate_->mu_);
      if (--gate_->active_ == 0) gate_->cv_.notify_all();
    }
    Shared(const Shared&) = delete;
    Shared& operator=(const Shared&) = delete;

   private:
    TxnGate* gate_;
  };

  /// Stops new transactions, waits for the running ones, runs `fn`.
  void Exclusive(const std::function<void()>& fn) {
    std::unique_lock lock(mu_);
    pausing_ = true;
    cv_.wait(lock, [&] { return active_ == 0; });
    lock.unlock();
    struct Reopen {
      TxnGate* gate;
      ~Reopen() {
        std::lock_guard lock(gate->mu_);
        gate->pausing_ = false;
        gate->cv_.notify_all();
      }
    } reopen{this};
    fn();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool pausing_ = false;
  size_t active_ = 0;
};

void RunKvDurable(const RunConfig& config, RunResult* out) {
  constexpr size_t kShards = 2;
  constexpr size_t kKeys = 50000;
  constexpr size_t kCounters = 65536;
  constexpr size_t kClients = 3;
  constexpr size_t kPreloadBatch = 1000;
  constexpr size_t kDelegateEvery = 4;
  constexpr int64_t kBackoffUs = 250;
  const size_t reps = 7;
  const size_t txns_per_client = Scaled(1500, config.seconds);
  // Twice per repetition. Each checkpoint holds up some commits; with 22
  // per repetition the p99 spread between runs (IQR over median) was 0.41.
  const size_t checkpoint_every = std::max<size_t>(1, txns_per_client / 2);
  const size_t restarts = 15;

  Options options;
  options.num_shards = kShards;
  options.force_commits = true;
  options.group_commit = true;
  options.group_commit_policy = ariesrh::GroupCommitPolicy::kAdaptive;
  options.early_lock_release = true;
  options.sim_log_force_ns = kForceNs;

  out->settings = {
      {"shards", std::to_string(kShards)},
      {"clients", std::to_string(kClients)},
      {"sim_log_force_ns", std::to_string(kForceNs)},
      {"sim_log_random_read_ns_restart", std::to_string(kSeekNs)},
      {"group_commit", "\"adaptive\""},
      {"early_lock_release", "true"},
      {"buffer_pool_pages_per_shard",
       std::to_string(options.buffer_pool_pages)},
      {"keys", std::to_string(kKeys)},
      {"counters", std::to_string(kCounters)},
      {"repetitions", std::to_string(reps)},
      {"txns_per_client_per_repetition", std::to_string(txns_per_client)},
      {"checkpoint_every_client0_commits", std::to_string(checkpoint_every)},
      {"restarts", std::to_string(restarts)}};

  std::vector<std::string> keys(kKeys), preload(kKeys);
  std::vector<ObjectId> key_rids(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys[i] = std::string("k") + std::to_string(i);
    preload[i] = Value(std::string("pre") + std::to_string(i));
    key_rids[i] = ariesrh::table::TableRid(keys[i]);
  }
  const ZipfSampler zipf(kKeys, kZipfTheta);
  // inputs[rep][client] and values[rep][client].
  std::vector<std::vector<std::vector<DurableTxn>>> inputs(reps);
  std::vector<std::vector<std::vector<std::string>>> values(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    inputs[rep].resize(kClients);
    values[rep].resize(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      Random rng(config.seed * 1000003 + rep * 101 + c);
      for (size_t i = 0; i < txns_per_client; ++i) {
        DurableTxn t;
        t.key[0] = static_cast<uint32_t>(zipf.Next(&rng));
        do {
          t.key[1] = static_cast<uint32_t>(zipf.Next(&rng));
        } while (t.key[1] == t.key[0]);
        t.counter = static_cast<uint32_t>(rng.Uniform(kCounters));
        t.delegate = i % kDelegateEvery == kDelegateEvery - 1;
        const size_t shard = ariesrh::ShardIndexOf(key_rids[t.key[0]], kShards);
        t.multi_shard =
            ariesrh::ShardIndexOf(key_rids[t.key[1]], kShards) != shard ||
            ariesrh::ShardIndexOf(t.counter, kShards) != shard;
        for (int k = 0; k < 2; ++k) {
          t.value[k] = static_cast<uint32_t>(values[rep][c].size());
          values[rep][c].push_back(
              Value(std::string("r") + std::to_string(rep) + "c" +
                    std::to_string(c) + "t" + std::to_string(i) + "k" +
                    std::to_string(k)));
        }
        inputs[rep][c].push_back(t);
      }
    }
  }
  const FreshWrites fresh = MakeFreshWrites(1, kShards);

  PhaseReport p;
  std::vector<SpanLog> span_logs(kClients + 1);  // the last: restarts
  std::vector<const std::string*> expected(kKeys);
  std::vector<int64_t> counters(kCounters);
  std::unique_ptr<Database> db;
  uint64_t trace_id = 1;
  std::atomic<uint64_t> next_trace{1};

  for (size_t rep = 0; rep < reps; ++rep) {
    db.reset();
    const uint64_t setup_start = NowNs();
    db = std::move(Must(Database::Open(options), "Open").db);
    for (size_t base = 0; base < kKeys; base += kPreloadBatch) {
      const TxnId t = Must(db->Begin(), "Begin(preload)");
      for (size_t i = base; i < std::min(kKeys, base + kPreloadBatch); ++i) {
        Must(db->TablePut(t, keys[i], preload[i]), "TablePut(preload)");
      }
      Must(db->Commit(t), "Commit(preload)");
    }
    p.setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    std::vector<ClientTally> tallies(kClients);
    std::vector<std::vector<AckedPut>> acked(kClients);
    std::vector<std::vector<uint32_t>> acked_counters(kClients);
    std::vector<std::vector<uint64_t>> ack_ns(kClients);
    std::atomic<bool> go{false};
    TxnGate gate;
    std::vector<std::string> client_errors(kClients);
    const Stats before = db->stats();

    auto client = [&](size_t c) {
      try {
        SpanLog* const log =
            EveryOther(config.trace ? &span_logs[c] : nullptr, rep);
        ClientTally& tally = tallies[c];
        tally.latency_ns.reserve(txns_per_client);
        acked[c].reserve(2 * txns_per_client);
        const std::vector<std::string>& vals = values[rep][c];
        Random backoff_rng(config.seed * 7 + rep * 31 + c);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        size_t commits = 0;
        for (const DurableTxn& in : inputs[rep][c]) {
          if (log != nullptr) log->BeginTrace(next_trace.fetch_add(1));
          std::optional<ScopedSpan> root(std::in_place, log, "client.txn");
          const uint64_t t0 = NowNs();
          ++tally.attempted;
          bool done = false;
          uint64_t commit_start = 0;
          // A transaction that arrives during an archive waits for it; the
          // wait counts in its latency.
          std::optional<TxnGate::Shared> held(std::in_place, &gate);
          for (int attempt = 0; attempt < kMaxAttempts && !done; ++attempt) {
            TxnId t = 0, partner = 0;
            {
              ScopedSpan span(log, "txn.begin");
              t = Must(db->Begin(), "Begin");
            }
            Status s;
            for (int k = 0; k < 2 && s.ok(); ++k) {
              ScopedSpan span(log, "table.put");
              s = db->TablePut(t, keys[in.key[k]], vals[in.value[k]]);
            }
            if (s.ok()) {
              ScopedSpan span(log, "object.add");
              s = db->Add(t, in.counter, 1);
            }
            TxnId committer = t;
            if (s.ok() && in.delegate) {
              {
                ScopedSpan span(log, "txn.begin");
                partner = Must(db->Begin(), "Begin(partner)");
              }
              {
                ScopedSpan span(log, "txn.delegate");
                s = db->Delegate(t, partner, DelegationSpec::All());
              }
              if (s.ok()) {
                // The delegator gives up; the work it handed over survives
                // through the partner's commit.
                ScopedSpan span(log, "txn.abort");
                s = db->Abort(t);
                committer = partner;
              }
            }
            if (s.ok()) {
              commit_start = NowNs();
              s = TracedCommit(db.get(), committer, in.multi_shard, log);
            }
            if (s.ok()) {
              done = true;
            } else if (s.IsBusy()) {
              ++tally.retries;
              ScopedSpan span(log, "txn.abort");
              if (db->IsActive(t)) Must(db->Abort(t), "Abort");
              if (partner != 0 && db->IsActive(partner)) {
                Must(db->Abort(partner), "Abort(partner)");
              }
              // Back off for about one forced commit per attempt, so the
              // holder of the lock can finish before the retry asks again.
              // The jitter keeps clients from retrying in lockstep and keeps
              // the latency tail from stepping by whole backoff periods.
              const int64_t backoff = kBackoffUs * std::min(attempt + 1, 8);
              std::this_thread::sleep_for(std::chrono::microseconds(
                  backoff_rng.UniformRange(backoff / 2, backoff * 3 / 2)));
            } else {
              Die("kv_durable transaction", s);
            }
          }
          held.reset();
          const uint64_t t1 = NowNs();
          root.reset();
          if (!done) {
            ++tally.failed;
            continue;
          }
          ++tally.committed;
          if (in.multi_shard) ++tally.multi_shard;
          tally.latency_ns.push_back(static_cast<double>(t1 - t0));
          ack_ns[c].push_back(t1);
          for (int k = 0; k < 2; ++k) {
            acked[c].push_back({in.key[k], &vals[in.value[k]], commit_start});
          }
          acked_counters[c].push_back(in.counter);
          if (c == 0 && ++commits % checkpoint_every == 0) {
            ScopedSpan admin(log, "client.admin");
            {
              ScopedSpan span(log, "core.checkpoint");
              Must(db->Checkpoint(), "Checkpoint");
            }
            gate.Exclusive([&] {
              // Records appended after an ack without a force (a shard's
              // COMMIT and END after two-phase commit, the END after a
              // one-shard commit) reach the stable log here, not while the
              // archive runs.
              Must(db->Sync(), "Sync(archive)");
              ScopedSpan span(log, "core.archive");
              Must(db->ArchiveLog().status(), "ArchiveLog");
            });
          }
        }
      } catch (const std::exception& e) {
        client_errors[c] = e.what();
      }
    };

    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    const uint64_t start = NowNs();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const uint64_t elapsed = NowNs() - start;
    for (const std::string& e : client_errors) {
      if (!e.empty()) throw std::runtime_error(e);
    }
    if (config.trace) {
      (rep % 2 == 0 ? p.traced_s : p.untraced_s)
          .push_back(static_cast<double>(elapsed) / 1e9);
    }
    // Throughput counts only the window in which all clients run: once the
    // first client is done the load is no longer three closed loops, and
    // the stragglers' finish would add their luck to the figure.
    uint64_t window_end = start + elapsed;
    for (const std::vector<uint64_t>& acks : ack_ns) {
      if (!acks.empty()) window_end = std::min(window_end, acks.back());
    }
    uint64_t committed = 0;
    for (size_t c = 0; c < kClients; ++c) {
      p.clients.Merge(tallies[c]);
      committed += static_cast<uint64_t>(
          std::upper_bound(ack_ns[c].begin(), ack_ns[c].end(), window_end) -
          ack_ns[c].begin());
    }
    p.throughput.push_back(PerSecond(committed, window_end - start));
    p.counts.Add(db->stats().Delta(before));

    // The expected state: per key, the acked write whose commit started
    // last (a conflicting writer gets the lock only after the previous
    // holder's commit began); per counter, one per acked transaction.
    for (size_t i = 0; i < kKeys; ++i) expected[i] = &preload[i];
    std::vector<uint64_t> when(kKeys, 0);
    std::fill(counters.begin(), counters.end(), 0);
    for (size_t c = 0; c < kClients; ++c) {
      for (const AckedPut& a : acked[c]) {
        if (a.commit_start_ns >= when[a.key]) {
          when[a.key] = a.commit_start_ns;
          expected[a.key] = a.value;
        }
      }
      for (uint32_t ob : acked_counters[c]) ++counters[ob];
    }
  }
  p.retained = RetainedTxns(db.get());
  p.live_records = LiveLogRecords(db.get());

  auto check_state = [&](Database* d, const std::string& when,
                         std::vector<std::string>* errors) {
    size_t bad_keys = 0, bad_counters = 0;
    for (size_t i = 0; i < kKeys; ++i) {
      auto got = Must(d->TableGetCommitted(keys[i]), "TableGetCommitted");
      if (got != *expected[i]) ++bad_keys;
    }
    for (size_t ob = 0; ob < kCounters; ++ob) {
      if (Must(d->ReadCommitted(ob), "ReadCommitted") != counters[ob]) {
        ++bad_counters;
      }
    }
    if (bad_keys + bad_counters > 0) {
      errors->push_back("kv_durable " + when + ": " + std::to_string(bad_keys) +
                        " keys and " + std::to_string(bad_counters) +
                        " counters differ from the acked commits");
    }
  };
  check_state(db.get(), "live", &out->errors);

  RestartSpec spec;
  spec.options = RestartOptions(options);
  spec.cut = ariesrh::kInvalidLsn;  // the tail: the state just recovered
  spec.image = CrashAndSave(db.get(), config, &spec);
  spec.cycles = restarts;
  db.reset();
  const ariesrh::reenact::StateImage want =
      KvImage(keys, expected, counters, fresh);
  SpanLog* restart_log = config.trace ? &span_logs[kClients] : nullptr;
  trace_id = next_trace.load();
  RunRestarts(
      spec, fresh, restart_log, &trace_id,
      [&](Database* rdb, const ariesrh::reenact::StateImage& asof,
          std::vector<std::string>* errors) {
        if (!(asof == want)) {
          errors->push_back("kv_durable restart: StateAt(tail) differs from "
                            "the acked commits");
        }
        check_state(rdb, "after restart", errors);
      },
      &p.restarts, &out->errors);

  out->attempted = p.clients.attempted + p.restarts.txns.attempted;
  out->failed = p.clients.failed;
  if (config.trace) {
    for (const SpanLog& l : span_logs) p.spans.Add(l.spans());
  }
  Report(config, p, out);
}

// --------------------------------------------------------------------------
// restart_asof: one crashed two-shard history with delegation, losers and a
// midpoint checkpoint, restarted and time-travelled over and over.

/// The committed-state oracle of a generated history.
struct Oracle {
  std::map<std::string, std::string> records;
  std::map<ObjectId, int64_t> objects;
};

struct History {
  std::string image;
  Oracle oracle;
  uint64_t losers = 0;       ///< transactions active at the crash
  uint64_t delegations = 0;
  Lsn cut = 0;
  uint64_t full_sweep = 0;         ///< FullSweepRecords at the crash
  std::vector<std::string> keys;   ///< every key the history may touch
  std::vector<ObjectId> objects;   ///< every object the history may touch
};

/// Builds the crashed image single-threaded, without stalls. Every
/// transaction writes two keys and two objects no active transaction holds,
/// so the oracle can follow each update's fate through delegation.
History BuildHistory(const RunConfig& config, const Options& options,
                     size_t txns, const std::string& path) {
  constexpr size_t kKeys = 12000;
  constexpr size_t kObjects = 4096;  // 64 pages per shard at most
  constexpr uint32_t kDelegatePct = 25;
  constexpr uint32_t kLoserPct = 10;
  constexpr uint32_t kPartnerLoserPct = 20;

  History h;
  for (size_t i = 0; i < kKeys; ++i) {
    h.keys.push_back(std::string("h") + std::to_string(i));
  }
  for (size_t i = 0; i < kObjects; ++i) h.objects.push_back(i);

  struct Effect {
    bool is_key;
    size_t index;
    std::string value;
    int64_t delta;
  };
  struct Active {
    TxnId id;
    std::vector<Effect> effects;
    size_t resolve_at;  ///< txn index at which a partner commits; SIZE_MAX =
                        ///< never (a loser)
  };
  std::vector<Active> active;
  std::set<size_t> locked_keys, locked_objects;
  auto unlock = [&](const Active& a) {
    for (const Effect& e : a.effects) {
      (e.is_key ? locked_keys : locked_objects).erase(e.index);
    }
  };
  auto apply = [&](const std::vector<Effect>& effects) {
    for (const Effect& e : effects) {
      if (e.is_key) {
        h.oracle.records[h.keys[e.index]] = e.value;
      } else {
        h.oracle.objects[h.objects[e.index]] += e.delta;
      }
    }
  };

  Random rng(config.seed * 7919 + 17);
  Database::OpenResult opened = Must(Database::Open(options), "Open(history)");
  Database* db = opened.db.get();
  for (size_t i = 0; i < txns; ++i) {
    // Partners due now commit the work delegated to them.
    for (size_t a = 0; a < active.size();) {
      if (active[a].resolve_at == i) {
        Must(db->Commit(active[a].id), "Commit(partner)");
        apply(active[a].effects);
        unlock(active[a]);
        active.erase(active.begin() + static_cast<long>(a));
      } else {
        ++a;
      }
    }
    if (i == txns / 2) Must(db->Checkpoint(), "Checkpoint(history)");

    Active x{Must(db->Begin(), "Begin(history)"), {}, SIZE_MAX};
    for (int k = 0; k < 2; ++k) {
      size_t key;
      do key = rng.Uniform(kKeys); while (locked_keys.count(key) != 0);
      locked_keys.insert(key);
      std::string value = Value(std::string("t") + std::to_string(i) + "k" +
                                std::to_string(k));
      Must(db->TablePut(x.id, h.keys[key], value), "TablePut(history)");
      x.effects.push_back({true, key, std::move(value), 0});
    }
    for (int k = 0; k < 2; ++k) {
      size_t ob;
      do ob = rng.Uniform(kObjects); while (locked_objects.count(ob) != 0);
      locked_objects.insert(ob);
      const int64_t delta = 1 + static_cast<int64_t>(rng.Uniform(9));
      Must(db->Add(x.id, h.objects[ob], delta), "Add(history)");
      x.effects.push_back({false, ob, "", delta});
    }
    const uint32_t roll = static_cast<uint32_t>(rng.Uniform(100));
    if (roll < kDelegatePct) {
      // Hand everything to a partner that stays active for a while; it
      // commits later or, sometimes, is still active at the crash.
      Active partner{Must(db->Begin(), "Begin(partner)"), {}, SIZE_MAX};
      Must(db->Delegate(x.id, partner.id, DelegationSpec::All()),
           "Delegate(history)");
      ++h.delegations;
      partner.effects = std::move(x.effects);
      if (!rng.Percent(kPartnerLoserPct)) {
        partner.resolve_at = i + 1 + rng.Uniform(40);
      }
      Must(db->Commit(x.id), "Commit(delegator)");
      active.push_back(std::move(partner));
    } else if (roll < kDelegatePct + kLoserPct) {
      active.push_back(std::move(x));  // a loser at the crash
    } else {
      Must(db->Commit(x.id), "Commit(history)");
      apply(x.effects);
      unlock(x);
    }
  }
  // Partners due after the last transaction are losers too.
  h.losers = active.size();
  h.cut = MiddleCut(db);
  Must(db->Sync(), "Sync(history)");
  h.full_sweep = FullSweepRecords(db);
  db->SimulateCrash();
  Must(db->SaveTo(path), "SaveTo(history)");
  h.image = path;
  return h;
}

/// The bytes of a two-shard SaveTo image: both shard files and the
/// coordinator's.
std::string ImageBytes(const std::string& path) {
  std::string bytes;
  for (const std::string& file :
       {Database::ShardImagePath(path, 0), Database::ShardImagePath(path, 1),
        path + ".coord"}) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + file);
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  return bytes;
}

void RunRestartAsof(const RunConfig& config, RunResult* out) {
  const size_t history_txns = 6000;
  const size_t cycles = Scaled(16, config.seconds);
  // The image is built once up front and again before every third
  // restart, so the set-ups spread over the run as kv_durable's do (one per
  // repetition), and the median set-up time does not rest on one short
  // spell of the host's CPU speed. An odd interval puts half the rebuilds
  // before traced restarts and half before untraced ones.
  const size_t rebuild_every = 3;
  const size_t builds = 1 + (cycles - 1) / rebuild_every;
  const size_t txns_after_catchup = 256;

  Options build_options;
  build_options.num_shards = 2;

  out->settings = {{"shards", "2"},
                   {"clients", "1"},
                   {"recovery_threads", std::to_string(kRecoveryThreads)},
                   {"sim_log_force_ns_build", "0"},
                   {"sim_log_force_ns_restart", std::to_string(kForceNs)},
                   {"sim_log_random_read_ns", std::to_string(kSeekNs)},
                   {"history_txns", std::to_string(history_txns)},
                   {"image_builds", std::to_string(builds)},
                   {"restarts", std::to_string(cycles)},
                   {"txns_after_catchup_per_restart",
                    std::to_string(txns_after_catchup)}};

  PhaseReport p;
  std::string first_image;
  auto build = [&] {
    const uint64_t start = NowNs();
    History h = BuildHistory(config, build_options, history_txns,
                             config.scratch_dir + "/restart_asof.img");
    p.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    // The same seed must give the same image, byte for byte.
    const std::string image = ImageBytes(h.image);
    if (first_image.empty()) {
      first_image = image;
    } else if (image != first_image) {
      out->errors.push_back("restart_asof: two builds from one seed differ");
    }
    return h;
  };
  const History history = build();
  out->settings.push_back({"losers", std::to_string(history.losers)});
  out->settings.push_back(
      {"delegations", std::to_string(history.delegations)});

  // Reference answer for the cut, from the saved image alone.
  ariesrh::reenact::StateImage reference_asof;
  {
    ariesrh::reenact::Reenactor archive = Must(
        ariesrh::reenact::Reenactor::OpenArchive(build_options, history.image),
        "Reenactor::OpenArchive");
    reference_asof = Must(archive.StateAt(history.cut), "StateAt(archive)");
  }

  const FreshWrites fresh = MakeFreshWrites(txns_after_catchup + 1, 2);
  ariesrh::reenact::StateImage expected_tail;
  expected_tail.records = history.oracle.records;
  for (const auto& [ob, v] : history.oracle.objects) {
    if (v != 0) expected_tail.objects[ob] = v;
  }
  for (size_t i = 0; i <= txns_after_catchup; ++i) {
    expected_tail.records[fresh.keys[i]] = fresh.value;
    expected_tail.objects[fresh.objects[i]] = 1;
  }

  RestartSpec spec;
  spec.options = RestartOptions(build_options);
  // The history is built without stalls. Restarts force the log the way
  // kv_durable does, so the commits after catch-up are paced by the force
  // rather than by the host's CPU speed.
  spec.options.sim_log_force_ns = kForceNs;
  spec.image = history.image;
  spec.cut = history.cut;
  spec.full_sweep = history.full_sweep;
  spec.txns_after_catchup = txns_after_catchup;
  spec.cycles = cycles;
  spec.before_cycle = [&](size_t cycle) {
    if (cycle > 0 && cycle % rebuild_every == 0) build();
  };
  SpanLog span_log;
  SpanLog* log = config.trace ? &span_log : nullptr;
  uint64_t trace_id = 1;
  size_t verified = 0;
  RunRestarts(
      spec, fresh, log, &trace_id,
      [&](Database* db, const ariesrh::reenact::StateImage& asof,
          std::vector<std::string>* errors) {
        if (!(asof == reference_asof)) {
          errors->push_back(
              "restart_asof: StateAt(cut) differs from the archive's answer");
        }
        size_t bad = 0;
        for (const std::string& key : history.keys) {
          auto got = Must(db->TableGetCommitted(key), "TableGetCommitted");
          auto it = history.oracle.records.find(key);
          const std::optional<std::string> want =
              it == history.oracle.records.end()
                  ? std::nullopt
                  : std::optional<std::string>(it->second);
          if (got != want) ++bad;
        }
        for (ObjectId ob : history.objects) {
          auto it = history.oracle.objects.find(ob);
          const int64_t want =
              it == history.oracle.objects.end() ? 0 : it->second;
          if (Must(db->ReadCommitted(ob), "ReadCommitted") != want) ++bad;
        }
        if (bad > 0) {
          errors->push_back("restart_asof: " + std::to_string(bad) +
                            " keys/objects differ from the oracle");
        }
        // A full replay; every restart of the image recovers the same state,
        // so the first and the last restart stand for all of them.
        ++verified;
        if (verified == 1 || verified == cycles) {
          ariesrh::reenact::StateImage tail =
              Must(db->ReenactStateAt(), "ReenactStateAt(tail)");
          if (!(tail == expected_tail)) {
            errors->push_back(
                "restart_asof: StateAt(tail) differs from the recovered state");
          }
        }
      },
      &p.restarts, &out->errors);
  p.clients = p.restarts.txns;
  p.traced_s = p.restarts.traced_s;
  p.untraced_s = p.restarts.untraced_s;
  // The commit figures come from the transactions each restart commits once
  // it has caught up: the speed a restarted engine gives its clients.
  p.throughput = p.restarts.after_catchup_per_s;

  out->attempted = p.clients.attempted;
  out->failed = p.clients.failed;
  if (log != nullptr) p.spans.Add(span_log.spans());
  Report(config, p, out);
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  // Both workloads wait on simulated stalls: forces, and seeks on restart.
  const IdlePollers pollers;
  RunResult result;
  if (config.workload == "kv_durable") {
    RunKvDurable(config, &result);
  } else if (config.workload == "restart_asof") {
    RunRestartAsof(config, &result);
  } else {
    throw std::invalid_argument("unknown workload " + config.workload);
  }
  result.correct = result.errors.empty();
  return result;
}

}  // namespace perfbench
