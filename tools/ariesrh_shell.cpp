// Interactive ARIES/RH shell: a REPL over the ASSET script language with
// optional persistent storage, so a database can be built up, crashed,
// recovered, inspected, and carried across shell sessions.
//
//   $ ./ariesrh_shell                 # in-memory session
//   $ ./ariesrh_shell mydb.ariesrh    # persistent: loaded if present,
//                                     # saved on 'save' and on exit
//   $ ./ariesrh_shell --checkpoint-every 64 --auto-archive
//                                     # background checkpoint daemon on:
//                                     # 'checkpoint'/'archive' show its digest
//
// Accepts every ScriptRunner command (begin/set/add/delegate/commit/...)
// plus shell builtins:
//   log [from [to]]    dump the write-ahead log
//   history <ob>       show an object's update history
//   put <t> <key> <v>  table write (insert or overwrite) under txn t
//   get <t> <key>      table read under txn t
//   del <t> <key>      table delete under txn t
//   scan <t> [start [limit]]   ordered table scan under txn t
//   txns               list live transactions with their Ob_Lists
//   stats              engine counters
//   metrics            Prometheus-style metrics exposition
//   bench              group-commit digest: batches, batch size, p99 commit
//   checkpoint         take a checkpoint, print the daemon/retention digest
//   archive            archive the log prefix, print the same digest
//   asof [lsn]         committed state as of the cut LSN (default: tail)
//   whodunit <ob|"key"> [lsn]   who answers for a value after delegation
//   replay <txn> [lsn] one transaction's effects reenacted in isolation
//   chain <ob|"key">   the responsibility-transfer chain for an object
//   trace [n]          last n engine trace events (default 32)
//   save               persist stable state to the session file
//   help               command summary
//   quit / exit

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/checkpoint_daemon.h"
#include "core/database.h"
#include "etm/script.h"
#include "obs/metrics.h"
#include "wal/log_dump.h"

using namespace ariesrh;

namespace {

void PrintHelp() {
  std::printf(
      "script commands:\n"
      "  begin <t> | set <t> <ob> <v> | add <t> <ob> <d> | read <t> <ob>\n"
      "  delegate <from> <to> <ob>... | delegate-all <f> <t> |"
      " delegate-last <f> <t> <ob>\n"
      "  permit <owner> <grantee> <ob> | depend <type> <dep> <on>\n"
      "  savepoint <t> <name> | rollback-to <t> <name>\n"
      "  commit <t> | abort <t> | checkpoint | flush | archive\n"
      "  crash | recover | backup <name> | media-failure | restore <name>\n"
      "  expect <ob> <v> | expect-error <cmd...>\n"
      "shell builtins:\n"
      "  log [from [to]] | history <ob> | txns | stats | metrics |"
      " bench |\n"
      "  put <t> <key> <v> | get <t> <key> | del <t> <key> |"
      " scan <t> [start [limit]]\n"
      "  asof [lsn] | whodunit <ob|\"key\"> [lsn] | replay <txn> [lsn] |"
      " chain <ob|\"key\">\n"
      "  checkpoint | archive | trace [n] | save | help | quit\n");
}

/// Reenactment targets: a bare number names an object id, a "quoted" token
/// names a table key.
bool IsQuotedKey(const std::string& token) {
  return token.size() >= 2 && token.front() == '"' && token.back() == '"';
}
std::string Unquote(const std::string& token) {
  return token.substr(1, token.size() - 2);
}

/// A transaction argument: a script name the runner knows ("t1"), or a raw
/// engine id.
TxnId ResolveTxn(const etm::ScriptRunner& runner, const std::string& token) {
  const TxnId named = runner.Lookup(token);
  if (named != kInvalidTxn) return named;
  char* end = nullptr;
  const unsigned long long raw = std::strtoull(token.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && raw > 0) {
    return static_cast<TxnId>(raw);
  }
  return kInvalidTxn;
}

bool HandleBuiltin(const std::string& line, Database* db,
                   const std::string& save_path,
                   const etm::ScriptRunner& runner) {
  std::istringstream stream(line);
  std::string cmd;
  stream >> cmd;

  if (cmd == "help") {
    PrintHelp();
    return true;
  }
  if (cmd == "log") {
    Lsn from = kFirstLsn, to = db->shard(0)->log_manager()->end_lsn();
    stream >> from >> to;
    Result<std::string> dump = DumpLog(*db->shard(0)->log_manager(), from, to);
    std::printf("%s", dump.ok() ? dump->c_str()
                                : dump.status().ToString().c_str());
    return true;
  }
  if (cmd == "history") {
    ObjectId ob = 0;
    if (!(stream >> ob)) {
      std::printf("usage: history <ob>\n");
      return true;
    }
    Result<std::vector<ObjectHistoryEntry>> history =
        ObjectHistory(*db->shard(0)->log_manager(), ob);
    if (!history.ok()) {
      std::printf("%s\n", history.status().ToString().c_str());
      return true;
    }
    for (const ObjectHistoryEntry& entry : *history) {
      std::printf("  LSN %llu by t%llu %s %lld -> %lld%s",
                  (unsigned long long)entry.lsn,
                  (unsigned long long)entry.writer,
                  entry.kind == UpdateKind::kSet ? "set" : "add",
                  (long long)entry.before, (long long)entry.after,
                  entry.compensated ? "  [compensated]" : "");
      if (entry.responsible != kInvalidTxn &&
          entry.responsible != entry.writer) {
        std::printf("  [answers: t%llu%s]",
                    (unsigned long long)entry.responsible,
                    entry.responsible_committed ? "" : " uncommitted");
      }
      std::printf("\n");
    }
    return true;
  }
  if (cmd == "put" || cmd == "get" || cmd == "del") {
    std::string txn_token, key;
    if (!(stream >> txn_token >> key)) {
      std::printf("usage: %s <txn> <key>%s\n", cmd.c_str(),
                  cmd == "put" ? " <value>" : "");
      return true;
    }
    const TxnId txn = ResolveTxn(runner, txn_token);
    if (txn == kInvalidTxn) {
      std::printf("unknown transaction '%s'\n", txn_token.c_str());
      return true;
    }
    if (cmd == "put") {
      std::string value;
      if (!(stream >> value)) {
        std::printf("usage: put <txn> <key> <value>\n");
        return true;
      }
      Status status = db->TablePut(txn, key, value);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    } else if (cmd == "get") {
      Result<std::optional<std::string>> value = db->TableGet(txn, key);
      if (!value.ok()) {
        std::printf("error: %s\n", value.status().ToString().c_str());
      } else if (value->has_value()) {
        std::printf("\"%s\" = \"%s\"\n", key.c_str(), (*value)->c_str());
      } else {
        std::printf("\"%s\" (not found)\n", key.c_str());
      }
    } else {
      Status status = db->TableDelete(txn, key);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    }
    return true;
  }
  if (cmd == "scan") {
    std::string txn_token, start;
    size_t limit = 0;
    if (!(stream >> txn_token)) {
      std::printf("usage: scan <txn> [start [limit]]\n");
      return true;
    }
    stream >> start >> limit;
    const TxnId txn = ResolveTxn(runner, txn_token);
    if (txn == kInvalidTxn) {
      std::printf("unknown transaction '%s'\n", txn_token.c_str());
      return true;
    }
    Result<std::vector<std::pair<std::string, std::string>>> rows =
        db->TableScan(txn, start, limit);
    if (!rows.ok()) {
      std::printf("error: %s\n", rows.status().ToString().c_str());
      return true;
    }
    for (const auto& [key, value] : *rows) {
      std::printf("  \"%s\" = \"%s\"\n", key.c_str(), value.c_str());
    }
    std::printf("%zu record(s)\n", rows->size());
    return true;
  }
  if (cmd == "txns") {
    for (const auto& [id, tx] :
         db->shard(0)->txn_manager()->SnapshotTransactions()) {
      std::printf("  %s\n", tx.ToString().c_str());
    }
    return true;
  }
  if (cmd == "stats") {
    std::printf("%s\n", db->stats().ToString().c_str());
    return true;
  }
  if (cmd == "metrics") {
    std::printf("%s", db->metrics()->Expose().c_str());
    // Durable-ack commit latency digest: the histogram is armed when a
    // COMMIT is requested and observed once the commit record is durable,
    // so these quantiles are the end-to-end commit-path numbers the
    // exposition above only shows as raw buckets.
    if (const obs::Histogram* latency =
            db->metrics()->FindHistogram("ariesrh_commit_latency_ns");
        latency != nullptr && latency->Count() > 0) {
      const obs::Histogram::Snapshot s = latency->GetSnapshot();
      std::printf("# commit latency (request -> durable ack)\n");
      std::printf("#   p50 %llu ns, p99 %llu ns over %llu commits\n",
                  (unsigned long long)s.P50(), (unsigned long long)s.P99(),
                  (unsigned long long)s.count);
    }
    return true;
  }
  if (cmd == "bench") {
    // Group-commit digest straight from the metrics registry: how many
    // batched forces ran, how many commits each amortized, and what commit
    // latency looks like at the tail. All zeros simply means the session
    // has not committed under group commit yet.
    const obs::Histogram* batch =
        db->metrics()->FindHistogram("ariesrh_group_commit_batch");
    const obs::Histogram* commit_ns =
        db->metrics()->FindHistogram("ariesrh_txn_commit_ns");
    std::printf("group commit: %s\n",
                db->options().group_commit ? "on" : "off");
    if (batch != nullptr && batch->Count() > 0) {
      const obs::Histogram::Snapshot s = batch->GetSnapshot();
      std::printf("  batched forces   %llu\n", (unsigned long long)s.count);
      std::printf("  commits covered  %llu\n", (unsigned long long)s.sum);
      std::printf("  mean batch size  %.2f\n", s.Mean());
    } else {
      std::printf("  batched forces   0\n");
    }
    if (commit_ns != nullptr && commit_ns->Count() > 0) {
      const obs::Histogram::Snapshot s = commit_ns->GetSnapshot();
      std::printf("  commits          %llu\n", (unsigned long long)s.count);
      std::printf("  commit p50       %llu ns\n",
                  (unsigned long long)s.P50());
      std::printf("  commit p99       %llu ns\n",
                  (unsigned long long)s.P99());
    }
    if (const obs::Histogram* durable =
            db->metrics()->FindHistogram("ariesrh_commit_latency_ns");
        durable != nullptr && durable->Count() > 0) {
      const obs::Histogram::Snapshot s = durable->GetSnapshot();
      std::printf("  durable ack p50  %llu ns\n",
                  (unsigned long long)s.P50());
      std::printf("  durable ack p99  %llu ns\n",
                  (unsigned long long)s.P99());
    }
    return true;
  }
  if (cmd == "checkpoint" || cmd == "archive") {
    // Intercepted before the script runner so the shell can show what
    // checkpointing/archiving actually did: the retention digest plus the
    // background daemon's tally when one is configured.
    if (cmd == "checkpoint") {
      Status status = db->Checkpoint();
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
        return true;
      }
    } else {
      Result<uint64_t> archived = db->ArchiveLog();
      if (!archived.ok()) {
        std::printf("error: %s\n", archived.status().ToString().c_str());
        return true;
      }
      std::printf("archived %llu records\n", (unsigned long long)*archived);
    }
    std::printf("master record     @%llu\n",
                (unsigned long long)db->shard(0)->disk()->master_record());
    std::printf("retained from     @%llu\n",
                (unsigned long long)db->shard(0)->disk()->first_retained_lsn());
    const obs::Gauge* live =
        db->metrics()->FindGauge("ariesrh_log_live_records");
    if (live != nullptr) {
      std::printf("live log records  %lld\n", (long long)live->Value());
    }
    std::printf("archived (total)  %llu\n",
                (unsigned long long)db->stats().archived_records.value());
    if (CheckpointDaemon* daemon = db->shard(0)->checkpoint_daemon()) {
      std::printf("%s\n", daemon->digest().ToString().c_str());
    } else {
      std::printf("checkpoint daemon: not configured\n");
    }
    return true;
  }
  if (cmd == "asof") {
    Lsn cut = kInvalidLsn;
    stream >> cut;
    Result<reenact::StateImage> state = db->ReenactStateAt(cut);
    if (!state.ok()) {
      std::printf("error: %s\n", state.status().ToString().c_str());
      return true;
    }
    std::printf("%s\n", state->ToString().c_str());
    for (const auto& [ob, value] : state->objects) {
      std::printf("  ob%llu = %lld\n", (unsigned long long)ob,
                  (long long)value);
    }
    for (const auto& [key, value] : state->records) {
      std::printf("  \"%s\" = \"%s\"\n", key.c_str(), value.c_str());
    }
    return true;
  }
  if (cmd == "whodunit") {
    std::string target;
    Lsn cut = kInvalidLsn;
    if (!(stream >> target)) {
      std::printf("usage: whodunit <ob|\"key\"> [lsn]\n");
      return true;
    }
    stream >> cut;
    Result<reenact::ResponsibilityAnswer> answer =
        IsQuotedKey(target)
            ? db->ReenactWhodunitKey(Unquote(target), cut)
            : db->ReenactWhodunit(std::strtoull(target.c_str(), nullptr, 10),
                                  cut);
    if (!answer.ok()) {
      std::printf("error: %s\n", answer.status().ToString().c_str());
      return true;
    }
    std::printf("%s\n", answer->ToString().c_str());
    return true;
  }
  if (cmd == "replay") {
    std::string txn_token;
    Lsn cut = kInvalidLsn;
    if (!(stream >> txn_token)) {
      std::printf("usage: replay <txn> [lsn]\n");
      return true;
    }
    stream >> cut;
    const TxnId txn = ResolveTxn(runner, txn_token);
    if (txn == kInvalidTxn) {
      std::printf("unknown transaction '%s'\n", txn_token.c_str());
      return true;
    }
    Result<reenact::ReplayResult> replayed = db->ReenactReplayTxn(txn, cut);
    if (!replayed.ok()) {
      std::printf("error: %s\n", replayed.status().ToString().c_str());
      return true;
    }
    std::printf("%s\n", replayed->ToString().c_str());
    return true;
  }
  if (cmd == "chain") {
    std::string target;
    if (!(stream >> target)) {
      std::printf("usage: chain <ob|\"key\">\n");
      return true;
    }
    Result<std::vector<reenact::TransferHop>> chain =
        IsQuotedKey(target)
            ? db->ReenactTransferChainKey(Unquote(target))
            : db->ReenactTransferChain(
                  std::strtoull(target.c_str(), nullptr, 10));
    if (!chain.ok()) {
      std::printf("error: %s\n", chain.status().ToString().c_str());
      return true;
    }
    if (chain->empty()) {
      std::printf("no responsibility transfers\n");
      return true;
    }
    for (const reenact::TransferHop& hop : *chain) {
      std::printf("  %s\n", hop.ToString().c_str());
    }
    return true;
  }
  if (cmd == "trace") {
    size_t n = 32;
    if (!(stream >> n)) n = 32;  // failed extraction zeroes n
    std::printf("%s", db->trace()->DumpText(n).c_str());
    return true;
  }
  if (cmd == "recover") {
    // Intercepted before the script runner so the shell can print the full
    // recovery outcome (per-pass timings, cluster stats), which the script
    // language's terse trace does not carry.
    auto restart = db->StartRecovery();
    Result<RecoveryManager::Outcome> outcome =
        restart.ok() ? (*restart)->Await() : restart.status();
    if (!outcome.ok()) {
      std::printf("error: %s\n", outcome.status().ToString().c_str());
      return true;
    }
    std::printf("%s\n", outcome->ToString().c_str());
    return true;
  }
  if (cmd == "save") {
    if (save_path.empty()) {
      std::printf("no session file (start the shell with a path)\n");
      return true;
    }
    Status status = db->SaveTo(save_path);
    std::printf("%s\n", status.ok() ? "saved" : status.ToString().c_str());
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string save_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checkpoint-every" && i + 1 < argc) {
      options.checkpoint_interval_records =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--auto-archive") {
      options.auto_archive = true;
    } else {
      save_path = arg;
    }
  }
  if (Status valid = options.Validate(); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db;
  if (!save_path.empty()) {
    Result<Database::OpenResult> opened = Database::Open(options, save_path);
    if (opened.ok()) {
      db = std::move(opened->db);
      // Open already ran restart per options.recovery_mode; the handle
      // carries the (possibly still draining) outcome.
      Result<RecoveryManager::Outcome> outcome = opened->recovery->Await();
      if (!outcome.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     outcome.status().ToString().c_str());
        return 1;
      }
      std::printf("opened %s\n%s\n", save_path.c_str(),
                  outcome->ToString().c_str());
    } else {
      db = std::make_unique<Database>(options);
      std::printf("new database (will save to %s)\n", save_path.c_str());
    }
  } else {
    db = std::make_unique<Database>(options);
    std::printf("in-memory database; 'help' lists commands\n");
  }

  etm::ScriptRunner runner(db.get());
  std::string line;
  while (true) {
    std::printf("ariesrh> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    if (HandleBuiltin(line, db.get(), save_path, runner)) continue;

    const size_t before = runner.trace().size();
    Status status = runner.Run(line);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      continue;
    }
    for (size_t i = before; i < runner.trace().size(); ++i) {
      std::printf("%s\n", runner.trace()[i].c_str());
    }
  }

  if (!save_path.empty() && !db->NeedsRecovery()) {
    Status status = db->SaveTo(save_path);
    if (!status.ok()) {
      std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved %s\n", save_path.c_str());
  }
  return 0;
}
