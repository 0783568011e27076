// Randomized crash-torture loop with an executable oracle: drives random
// transactions, delegations, commits, aborts, and checkpoints; crashes at
// random points; recovers; and verifies every object against the
// HistoryOracle after each cycle.
//
//   $ ./crash_torture [cycles] [seed]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/database.h"
#include "core/oracle.h"
#include "util/random.h"

using namespace ariesrh;

namespace {

constexpr ObjectId kObjects = 48;

struct Torture {
  Database db;
  HistoryOracle oracle;
  Random rng;
  std::vector<TxnId> active;
  uint64_t updates = 0, delegations = 0, commits = 0, aborts = 0;

  explicit Torture(uint64_t seed) : rng(seed) {}

  void Step() {
    const uint64_t dice = rng.Uniform(100);
    if (active.empty() || dice < 20) {
      TxnId t = *db.Begin();
      oracle.Begin(t);
      active.push_back(t);
    } else if (dice < 60) {
      TxnId t = active[rng.Uniform(active.size())];
      ObjectId ob = rng.Skewed(kObjects);
      int64_t delta = rng.UniformRange(-9, 9);
      if (db.Add(t, ob, delta).ok()) {
        oracle.Update(t, ob, UpdateKind::kAdd, delta);
        ++updates;
      }
    } else if (dice < 75 && active.size() >= 2) {
      TxnId from = active[rng.Uniform(active.size())];
      TxnId to = active[rng.Uniform(active.size())];
      const Transaction* tx = db.shard(0)->txn_manager()->Find(from);
      if (from == to || tx == nullptr || tx->ob_list.empty()) return;
      std::vector<ObjectId> objects = {tx->ob_list.begin()->first};
      if (db.Delegate(from, to, ariesrh::DelegationSpec::Objects(objects)).ok()) {
        oracle.Delegate(from, to, objects);
        ++delegations;
      }
    } else if (dice < 90) {
      const size_t index = rng.Uniform(active.size());
      if (db.Commit(active[index]).ok()) {
        oracle.Commit(active[index]);
        active.erase(active.begin() + index);
        ++commits;
      }
    } else {
      const size_t index = rng.Uniform(active.size());
      if (db.Abort(active[index]).ok()) {
        oracle.Abort(active[index]);
        active.erase(active.begin() + index);
        ++aborts;
      }
    }
  }

  bool CrashAndVerify() {
    db.SimulateCrash();
    oracle.Crash();
    active.clear();
    auto restart = db.StartRecovery();
    auto outcome = restart.ok() ? (*restart)->Await() : restart.status();
    if (!outcome.ok()) {
      std::printf("RECOVERY FAILED: %s\n", outcome.status().ToString().c_str());
      return false;
    }
    int mismatches = 0;
    for (const auto& [ob, expected] : oracle.ExpectedValues()) {
      auto got = db.ReadCommitted(ob);
      if (!got.ok() || *got != expected) {
        std::printf("  MISMATCH object %llu: got %lld want %lld\n",
                    (unsigned long long)ob, got.ok() ? (long long)*got : -1,
                    (long long)expected);
        ++mismatches;
      }
    }
    std::printf(
        "  recovered %llu winners / %llu losers; verified %zu objects, "
        "%d mismatches\n",
        (unsigned long long)outcome->winners,
        (unsigned long long)outcome->losers, oracle.ExpectedValues().size(),
        mismatches);
    return mismatches == 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 10;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12345;
  std::printf("crash torture: %d cycles, seed %llu\n", cycles,
              (unsigned long long)seed);

  Torture torture(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const int steps = 150 + static_cast<int>(torture.rng.Uniform(200));
    for (int i = 0; i < steps; ++i) {
      torture.Step();
      if (torture.rng.OneIn(97)) {
        if (!torture.db.Checkpoint().ok()) return 1;
      }
    }
    std::printf("cycle %d: %d steps, crash...\n", cycle, steps);
    if (!torture.CrashAndVerify()) {
      std::printf("FAILED (seed %llu, cycle %d)\n", (unsigned long long)seed,
                  cycle);
      return 1;
    }
  }
  std::printf(
      "OK — %llu updates, %llu delegations, %llu commits, %llu aborts "
      "across %d crash/recovery cycles\n",
      (unsigned long long)torture.updates,
      (unsigned long long)torture.delegations,
      (unsigned long long)torture.commits,
      (unsigned long long)torture.aborts, cycles);
  return 0;
}
