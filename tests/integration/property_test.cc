// Property tests: a scripted delegation-heavy history is crashed after
// EVERY prefix and recovered; the surviving state must match the
// HistoryOracle at that prefix. Run for every delegation implementation.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/database.h"
#include "core/oracle.h"
#include "util/random.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

// One scripted step applies the same operation to the engine and (on
// success) to the oracle. Transaction ids are script-local indices resolved
// through `ids`.
struct ScriptContext {
  Database* db;
  HistoryOracle* oracle;
  std::vector<TxnId> ids;  // script index -> engine id
};

using ScriptStep = std::function<void(ScriptContext&)>;

ScriptStep BeginStep() {
  return [](ScriptContext& ctx) {
    Result<TxnId> txn = ctx.db->Begin();
    ASSERT_TRUE(txn.ok());
    ctx.oracle->Begin(*txn);
    ctx.ids.push_back(*txn);
  };
}
ScriptStep AddStep(size_t who, ObjectId ob, int64_t delta) {
  return [=](ScriptContext& ctx) {
    if (ctx.db->Add(ctx.ids[who], ob, delta).ok()) {
      ctx.oracle->Update(ctx.ids[who], ob, UpdateKind::kAdd, delta);
    }
  };
}
ScriptStep SetStep(size_t who, ObjectId ob, int64_t value) {
  return [=](ScriptContext& ctx) {
    if (ctx.db->Set(ctx.ids[who], ob, value).ok()) {
      ctx.oracle->Update(ctx.ids[who], ob, UpdateKind::kSet, value);
    }
  };
}
ScriptStep DelegateStep(size_t from, size_t to, std::vector<ObjectId> obs) {
  return [=](ScriptContext& ctx) {
    if (ctx.db->Delegate(ctx.ids[from], ctx.ids[to],
                         DelegationSpec::Objects(obs))
            .ok()) {
      ctx.oracle->Delegate(ctx.ids[from], ctx.ids[to], obs);
    }
  };
}
ScriptStep CommitStep(size_t who) {
  return [=](ScriptContext& ctx) {
    if (ctx.db->Commit(ctx.ids[who]).ok()) {
      ctx.oracle->Commit(ctx.ids[who]);
    }
  };
}
ScriptStep AbortStep(size_t who) {
  return [=](ScriptContext& ctx) {
    if (ctx.db->Abort(ctx.ids[who]).ok()) {
      ctx.oracle->Abort(ctx.ids[who]);
    }
  };
}
ScriptStep FlushStep() {
  return [](ScriptContext& ctx) {
    ASSERT_TRUE(ctx.db->shard(0)->log_manager()->FlushAll().ok());
  };
}
ScriptStep CheckpointStep() {
  return [](ScriptContext& ctx) { ASSERT_TRUE(ctx.db->Checkpoint().ok()); };
}

// The canonical script: three invokers, two heirs, delegation chains,
// re-updates after delegation, mixed fates, a checkpoint in the middle.
std::vector<ScriptStep> CanonicalScript() {
  return {
      BeginStep(),                        // 0
      BeginStep(),                        // 1
      BeginStep(),                        // 2
      AddStep(0, 1, 100),
      AddStep(1, 1, 7),
      SetStep(0, 2, 55),
      DelegateStep(0, 2, {1, 2}),         // t0 hands ob1+ob2 to t2
      AddStep(0, 1, 23),                  // new scope after delegation
      FlushStep(),
      BeginStep(),                        // 3
      DelegateStep(2, 3, {2}),            // chain: ob2 now with t3
      CommitStep(1),                      // t1's increment survives
      CheckpointStep(),
      AddStep(3, 3, 5),
      CommitStep(3),                      // ob2 set + own add survive
      AbortStep(2),                       // ob1's first add dies
      CommitStep(0),                      // the post-delegation add survives
      FlushStep(),
  };
}

class PropertyTest
    : public ::testing::TestWithParam<std::tuple<DelegationMode, size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    CrashAtEveryPrefix, PropertyTest,
    ::testing::Combine(::testing::Values(DelegationMode::kRH,
                                         DelegationMode::kEager,
                                         DelegationMode::kLazyRewrite),
                       ::testing::Range<size_t>(0, 19)),
    [](const auto& info) {
      std::string name = DelegationModeName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_prefix" + std::to_string(std::get<1>(info.param));
    });

TEST_P(PropertyTest, CrashAfterPrefixMatchesOracle) {
  const auto [mode, prefix] = GetParam();
  std::vector<ScriptStep> script = CanonicalScript();
  const size_t steps = std::min(prefix, script.size());

  Options options;
  options.delegation_mode = mode;
  Database db(options);
  HistoryOracle oracle;
  ScriptContext ctx{&db, &oracle, {}};

  for (size_t i = 0; i < steps; ++i) {
    script[i](ctx);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << i;
  }

  db.SimulateCrash();
  oracle.Crash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  for (const auto& [ob, expected] : oracle.ExpectedValues()) {
    EXPECT_EQ(*db.ReadCommitted(ob), expected) << "object " << ob;
  }
}

TEST_P(PropertyTest, DoubleCrashAfterPrefixMatchesOracle) {
  const auto [mode, prefix] = GetParam();
  std::vector<ScriptStep> script = CanonicalScript();
  const size_t steps = std::min(prefix, script.size());

  Options options;
  options.delegation_mode = mode;
  Database db(options);
  HistoryOracle oracle;
  ScriptContext ctx{&db, &oracle, {}};
  for (size_t i = 0; i < steps; ++i) {
    script[i](ctx);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << i;
  }
  db.SimulateCrash();
  oracle.Crash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  // Crash again immediately: recovery's own log records (CLRs, ENDs) must
  // recover idempotently.
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  for (const auto& [ob, expected] : oracle.ExpectedValues()) {
    EXPECT_EQ(*db.ReadCommitted(ob), expected) << "object " << ob;
  }
}

// Randomized mode-equivalence property: for random histories, every
// delegation implementation recovers to the oracle state.
class RandomizedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedPropertyTest,
                         ::testing::Range<uint64_t>(100, 110));

TEST_P(RandomizedPropertyTest, AllModesMatchOracleOnRandomHistory) {
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kEager,
                              DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    HistoryOracle oracle;
    Random rng(GetParam());
    std::vector<TxnId> active;

    for (int step = 0; step < 150; ++step) {
      const uint64_t dice = rng.Uniform(100);
      if (active.empty() || dice < 25) {
        TxnId t = *db.Begin();
        oracle.Begin(t);
        active.push_back(t);
      } else if (dice < 65) {
        TxnId t = active[rng.Uniform(active.size())];
        ObjectId ob = rng.Uniform(12);
        int64_t delta = rng.UniformRange(1, 9);
        if (db.Add(t, ob, delta).ok()) {
          oracle.Update(t, ob, UpdateKind::kAdd, delta);
        }
      } else if (dice < 80) {
        if (active.size() < 2) continue;
        TxnId from = active[rng.Uniform(active.size())];
        TxnId to = active[rng.Uniform(active.size())];
        if (from == to) continue;
        const Transaction* tx = db.shard(0)->txn_manager()->Find(from);
        if (tx == nullptr || tx->ob_list.empty()) continue;
        std::vector<ObjectId> objects = {tx->ob_list.begin()->first};
        if (db.Delegate(from, to, DelegationSpec::Objects(objects)).ok()) {
          oracle.Delegate(from, to, objects);
        }
      } else {
        size_t index = rng.Uniform(active.size());
        TxnId t = active[index];
        if (rng.Percent(60)) {
          if (db.Commit(t).ok()) {
            oracle.Commit(t);
            active.erase(active.begin() + index);
          }
        } else if (db.Abort(t).ok()) {
          oracle.Abort(t);
          active.erase(active.begin() + index);
        }
      }
    }

    db.SimulateCrash();
    oracle.Crash();
    ASSERT_TRUE(RestartAndAwait(db).ok()) << DelegationModeName(mode);
    for (const auto& [ob, expected] : oracle.ExpectedValues()) {
      ASSERT_EQ(*db.ReadCommitted(ob), expected)
          << DelegationModeName(mode) << " seed " << GetParam() << " object "
          << ob;
    }
  }
}

}  // namespace
}  // namespace ariesrh
