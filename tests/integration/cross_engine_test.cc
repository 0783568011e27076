// Cross-engine validation: the same read/write history executed on every
// ARIES-family configuration AND on the EOS engine must converge to the
// same post-crash state — UNDO/REDO and NO-UNDO/REDO are different
// mechanisms for one semantics (paper Sections 3.3 vs 3.7).

#include <gtest/gtest.h>

#include "core/database.h"
#include "eos/eos_engine.h"
#include "util/random.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

// A scripted history in the write-only model (EOS's restriction): actions
// replayable against both engines through a tiny adapter.
struct Action {
  enum Kind { kBegin, kWrite, kDelegate, kCommit, kAbort } kind;
  int txn = 0;       // script-local index
  int other = 0;     // delegatee index
  ObjectId ob = 0;
  int64_t value = 0;
};

std::vector<Action> MakeHistory(uint64_t seed, int steps) {
  Random rng(seed);
  std::vector<Action> history;
  int live = 0;
  std::vector<int> active;  // script indices
  for (int i = 0; i < steps; ++i) {
    const uint64_t dice = rng.Uniform(100);
    if (active.empty() || dice < 25) {
      history.push_back({Action::kBegin, live, 0, 0, 0});
      active.push_back(live++);
    } else if (dice < 60) {
      int t = active[rng.Uniform(active.size())];
      history.push_back({Action::kWrite, t, 0, rng.Uniform(12),
                         rng.UniformRange(-99, 99)});
    } else if (dice < 75 && active.size() >= 2) {
      int from = active[rng.Uniform(active.size())];
      int to = active[rng.Uniform(active.size())];
      if (from == to) continue;
      history.push_back({Action::kDelegate, from, to, rng.Uniform(12), 0});
    } else {
      size_t index = rng.Uniform(active.size());
      int t = active[index];
      history.push_back({rng.Percent(65) ? Action::kCommit : Action::kAbort,
                         t, 0, 0, 0});
      active.erase(active.begin() + static_cast<ptrdiff_t>(index));
    }
  }
  return history;
}

constexpr ObjectId kMaxObject = 12;

std::map<ObjectId, int64_t> RunOnAries(const std::vector<Action>& history,
                                       DelegationMode mode) {
  Options options;
  options.delegation_mode = mode;
  Database db(options);
  std::map<int, TxnId> ids;
  for (const Action& action : history) {
    switch (action.kind) {
      case Action::kBegin:
        ids[action.txn] = *db.Begin();
        break;
      case Action::kWrite:
        (void)db.Set(ids[action.txn], action.ob, action.value);
        break;
      case Action::kDelegate: {
        // Delegate only if actually responsible; mirrors the EOS adapter.
        const Transaction* tx =
            db.shard(0)->txn_manager()->Find(ids[action.txn]);
        if (tx != nullptr && tx->IsResponsibleFor(action.ob)) {
          (void)db.Delegate(ids[action.txn], ids[action.other],
                            DelegationSpec::Objects({action.ob}));
        }
        break;
      }
      case Action::kCommit:
        (void)db.Commit(ids[action.txn]);
        break;
      case Action::kAbort:
        (void)db.Abort(ids[action.txn]);
        break;
    }
  }
  db.SimulateCrash();
  EXPECT_TRUE(RestartAndAwait(db).ok());
  std::map<ObjectId, int64_t> out;
  for (ObjectId ob = 0; ob < kMaxObject; ++ob) {
    out[ob] = *db.ReadCommitted(ob);
  }
  return out;
}

std::map<ObjectId, int64_t> RunOnEos(const std::vector<Action>& history) {
  eos::EosEngine engine;
  std::map<int, TxnId> ids;
  for (const Action& action : history) {
    switch (action.kind) {
      case Action::kBegin:
        ids[action.txn] = *engine.Begin();
        break;
      case Action::kWrite:
        (void)engine.Write(ids[action.txn], action.ob, action.value);
        break;
      case Action::kDelegate:
        (void)engine.Delegate(ids[action.txn], ids[action.other],
                              {action.ob});
        break;
      case Action::kCommit:
        (void)engine.Commit(ids[action.txn]);
        break;
      case Action::kAbort:
        (void)engine.Abort(ids[action.txn]);
        break;
    }
  }
  engine.SimulateCrash();
  EXPECT_TRUE(engine.Recover().ok());
  std::map<ObjectId, int64_t> out;
  for (ObjectId ob = 0; ob < kMaxObject; ++ob) {
    out[ob] = *engine.ReadCommitted(ob);
  }
  return out;
}

class CrossEngineTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineTest,
                         ::testing::Range<uint64_t>(500, 512));

TEST_P(CrossEngineTest, AriesFamilyAndEosAgree) {
  const std::vector<Action> history = MakeHistory(GetParam(), 150);
  const auto rh = RunOnAries(history, DelegationMode::kRH);
  EXPECT_EQ(RunOnAries(history, DelegationMode::kEager), rh)
      << "eager diverged, seed " << GetParam();
  EXPECT_EQ(RunOnAries(history, DelegationMode::kLazyRewrite), rh)
      << "lazy diverged, seed " << GetParam();
  EXPECT_EQ(RunOnEos(history), rh) << "EOS diverged, seed " << GetParam();
}

}  // namespace
}  // namespace ariesrh
