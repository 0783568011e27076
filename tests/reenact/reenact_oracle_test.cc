// Reenactment oracle suite: randomized workloads with delegations and
// crashes, pinned against three independent oracles at 1, 2, and 4 shards:
//
//   * StateAt(tail) byte-matches the state normal restart recovery builds
//     (StateImage::Serialize equality — the acceptance bar).
//   * ResponsibleFor matches the live TxnManager's scope state for every
//     object a still-open transaction answers for.
//   * ReplayTxn's footprint equals the diff the transaction actually made
//     against the committed state at its begin point.
//
// Seeds are fixed so failures reproduce; the workload generator is the
// deterministic xorshift PRNG the other property tests use.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/engine_shard.h"
#include "reenact/reenact.h"
#include "txn/txn_manager.h"
#include "util/random.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

using reenact::Reenactor;
using reenact::ReplayResult;
using reenact::ResponsibilityAnswer;
using reenact::StateImage;

constexpr ObjectId kMaxObject = 24;
constexpr size_t kKeyPool = 6;

Options ShardedOptions(size_t shards) {
  Options options;
  options.num_shards = shards;
  return options;
}

std::string KeyOf(uint64_t i) { return "key" + std::to_string(i % kKeyPool); }

/// One random operation against a random open transaction. Failures
/// (lock conflicts, delegating objects the delegator does not own) are
/// expected and ignored — the oracle compares outcomes, not intents.
void RandomOp(Database* db, Random* rng, std::vector<TxnId>* open) {
  if (open->empty() || (open->size() < 3 && rng->Percent(35))) {
    Result<TxnId> t = db->Begin();
    if (t.ok()) open->push_back(*t);
    return;
  }
  const size_t pick = rng->Uniform(open->size());
  const TxnId t = (*open)[pick];
  switch (rng->Uniform(8)) {
    case 0:
    case 1:
      (void)db->Set(t, 1 + rng->Uniform(kMaxObject),
                    rng->UniformRange(1, 100));
      break;
    case 2:
    case 3:
      (void)db->Add(t, 1 + rng->Uniform(kMaxObject),
                    rng->UniformRange(1, 10));
      break;
    case 4:
      (void)db->TablePut(t, KeyOf(rng->Next()),
                         "v" + std::to_string(rng->Uniform(1000)));
      break;
    case 5: {  // delegate to another open transaction
      if (open->size() < 2) break;
      size_t other = rng->Uniform(open->size());
      if (other == pick) break;
      (void)db->Delegate(t, (*open)[other], DelegationSpec::All());
      break;
    }
    case 6:
      (void)db->Commit(t);
      open->erase(open->begin() + pick);
      break;
    default:
      (void)db->Abort(t);
      open->erase(open->begin() + pick);
      break;
  }
}

void DrainOpen(Database* db, Random* rng, std::vector<TxnId>* open) {
  for (TxnId t : *open) {
    if (rng->Percent(70)) {
      (void)db->Commit(t);
    } else {
      (void)db->Abort(t);
    }
  }
  open->clear();
}

TEST(ReenactOracleTest, StateAtTailByteMatchesNormalRecovery) {
  for (size_t shards : {1u, 2u, 4u}) {
    for (uint64_t seed : {7u, 1234u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      Database db(ShardedOptions(shards));
      Random rng(seed);
      std::vector<TxnId> open;
      for (int round = 0; round < 120; ++round) {
        RandomOp(&db, &rng, &open);
        if (round == 40 || round == 80) {
          // Mid-run crash: in-flight transactions become losers and the
          // delegation log carries CLRs + voided legs into the final state.
          db.SimulateCrash();
          ASSERT_TRUE(RestartAndAwait(db).ok());
          open.clear();
        }
      }
      // Final crash + normal restart recovery: the oracle state.
      db.SimulateCrash();
      ASSERT_TRUE(RestartAndAwait(db).ok());
      Result<StateImage> oracle = reenact::CaptureCommittedState(&db);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

      Result<Reenactor> reenactor = Reenactor::OpenLive(&db);
      ASSERT_TRUE(reenactor.ok()) << reenactor.status().ToString();
      Result<StateImage> reenacted = reenactor->StateAt();
      ASSERT_TRUE(reenacted.ok()) << reenacted.status().ToString();
      EXPECT_EQ(oracle->Serialize(), reenacted->Serialize());
    }
  }
}

TEST(ReenactOracleTest, ResponsibleForMatchesLiveScopeState) {
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db(ShardedOptions(shards));
    Random rng(99 + shards);
    std::vector<TxnId> open;
    for (int round = 0; round < 80; ++round) RandomOp(&db, &rng, &open);
    for (size_t i = 0; i < db.num_shards(); ++i) {
      ASSERT_TRUE(db.shard(i)->log_manager()->FlushAll().ok());
    }

    Result<Reenactor> reenactor = Reenactor::OpenLive(&db);
    ASSERT_TRUE(reenactor.ok()) << reenactor.status().ToString();
    for (ObjectId ob = 1; ob <= kMaxObject; ++ob) {
      // The live oracle: the transaction whose Ob_List covers the object
      // right now (scope state is exactly what delegation moves).
      TxnId live_owner = kInvalidTxn;
      for (size_t i = 0; i < db.num_shards(); ++i) {
        for (const auto& [id, tx] :
             db.shard(i)->txn_manager()->SnapshotTransactions()) {
          if (tx.IsResponsibleFor(ob)) live_owner = id;
        }
      }
      Result<ResponsibilityAnswer> answer = reenactor->ResponsibleFor(ob);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      if (answer->value_lsn == kInvalidLsn) continue;  // no surviving write
      if (live_owner != kInvalidTxn) {
        EXPECT_EQ(answer->responsible, live_owner) << "object " << ob;
        EXPECT_FALSE(answer->responsible_committed) << "object " << ob;
      } else {
        // Nobody live answers for it: the surviving value must belong to a
        // transaction the log already resolved as committed.
        EXPECT_TRUE(answer->responsible_committed) << "object " << ob;
      }
    }
    DrainOpen(&db, &rng, &open);
  }
}

TEST(ReenactOracleTest, ReplayTxnEqualsFootprintDiff) {
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db(ShardedOptions(shards));
    Random rng(4242 + shards);

    // Sequential transactions so the tracked model state is exact. Each
    // round is one transaction with a few random writes, then commit or
    // abort; the model records each committed transaction's footprint
    // (object -> before/after) against the state at its begin point.
    std::map<ObjectId, int64_t> model;
    struct Footprint {
      std::map<ObjectId, std::pair<int64_t, int64_t>> objects;
      bool committed = false;
    };
    std::map<TxnId, Footprint> footprints;
    for (int round = 0; round < 30; ++round) {
      Result<TxnId> begun = db.Begin();
      ASSERT_TRUE(begun.ok());
      const TxnId t = *begun;
      Footprint fp;
      std::map<ObjectId, int64_t> scratch = model;
      const int ops = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < ops; ++i) {
        const ObjectId ob = 1 + rng.Uniform(kMaxObject);
        const int64_t arg = rng.UniformRange(1, 50);
        const bool is_set = rng.Percent(50);
        const Status status =
            is_set ? db.Set(t, ob, arg) : db.Add(t, ob, arg);
        if (!status.ok()) continue;
        if (!fp.objects.count(ob)) {
          fp.objects[ob] = {model.count(ob) ? model[ob] : 0, 0};
        }
        scratch[ob] = is_set ? arg : scratch[ob] + arg;
      }
      if (rng.Percent(75)) {
        ASSERT_TRUE(db.Commit(t).ok());
        for (auto& [ob, images] : fp.objects) images.second = scratch[ob];
        fp.committed = true;
        model = std::move(scratch);
      } else {
        ASSERT_TRUE(db.Abort(t).ok());
        // An aborted transaction's reenactment nets to no change: its CLRs
        // replay too.
        for (auto& [ob, images] : fp.objects) images.second = images.first;
      }
      if (!fp.objects.empty()) footprints[t] = fp;
    }
    // Aborts are lazily durable (no forced flush); reenactment reads only
    // the durable log, so make the whole history durable before comparing.
    for (size_t i = 0; i < db.num_shards(); ++i) {
      ASSERT_TRUE(db.shard(i)->log_manager()->FlushAll().ok());
    }

    for (const auto& [txn, fp] : footprints) {
      Result<ReplayResult> replay = db.ReenactReplayTxn(txn);
      ASSERT_TRUE(replay.ok())
          << "txn " << txn << ": " << replay.status().ToString();
      ASSERT_EQ(replay->objects.size(), fp.objects.size()) << "txn " << txn;
      for (const auto& [ob, images] : fp.objects) {
        ASSERT_TRUE(replay->objects.count(ob))
            << "txn " << txn << " object " << ob;
        EXPECT_EQ(replay->objects.at(ob).first, images.first)
            << "txn " << txn << " object " << ob << " before";
        EXPECT_EQ(replay->objects.at(ob).second, images.second)
            << "txn " << txn << " object " << ob << " after";
      }
    }
  }
}

}  // namespace
}  // namespace ariesrh
