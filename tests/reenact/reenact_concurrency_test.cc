// Time travel against a live engine: StateAt and ResponsibleFor sweep the
// shards' logs through LogCursor while other threads commit under group
// commit (forces appending to the stable log the cursors copy from) and
// call ArchiveLog (which drops the stable log's prefix). Every answer for a
// cut in the durable past must equal the one given while nothing ran.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "reenact/reenact.h"
#include "util/random.h"

namespace ariesrh {
namespace {

using reenact::ResponsibilityAnswer;
using reenact::StateImage;

constexpr ObjectId kObjects = 64;

Options LiveOptions() {
  Options options;
  options.num_shards = 2;
  options.group_commit = true;
  // Large enough that nothing is evicted: the stable pages (the reenactor's
  // anchor once the prefix is archived) stay as the checkpoint left them.
  options.buffer_pool_pages = 1024;
  return options;
}

// Commits, delegations between two transactions, an abort, and a key.
void BuildHistory(Database* db, int txns, uint64_t seed) {
  Random rng(seed);
  for (int i = 0; i < txns; ++i) {
    const TxnId a = *db->Begin();
    const TxnId b = *db->Begin();
    const ObjectId ob = rng.Uniform(kObjects);
    ASSERT_TRUE(db->Add(a, ob, 1).ok());
    ASSERT_TRUE(db->TablePut(b, "k" + std::to_string(i % 16), "v").ok());
    ASSERT_TRUE(db->Delegate(a, b, DelegationSpec::Objects({ob})).ok());
    ASSERT_TRUE(db->Commit(a).ok());
    if (rng.Percent(20)) {
      ASSERT_TRUE(db->Abort(b).ok());
    } else {
      ASSERT_TRUE(db->Commit(b).ok());
    }
  }
}

struct Answers {
  std::string state;
  std::vector<std::string> responsible;
};

std::string Digest(const ResponsibilityAnswer& ans) {
  return std::to_string(ans.value_lsn) + "/" + std::to_string(ans.writer) +
         "/" + std::to_string(ans.responsible) + "/" +
         (ans.responsible_committed ? "c" : "-") +
         (ans.responsible_terminated ? "t" : "-") +
         (ans.delegated ? "d" : "-");
}

Status Ask(Database* db, Lsn cut, Answers* out) {
  ARIESRH_ASSIGN_OR_RETURN(reenact::Reenactor r,
                           reenact::Reenactor::OpenLive(db));
  ARIESRH_ASSIGN_OR_RETURN(StateImage state, r.StateAt(cut));
  out->state = state.Serialize();
  out->responsible.clear();
  for (ObjectId ob = 0; ob < kObjects; ob += 7) {
    ARIESRH_ASSIGN_OR_RETURN(ResponsibilityAnswer ans,
                             r.ResponsibleFor(ob, cut));
    out->responsible.push_back(Digest(ans));
  }
  return Status::OK();
}

TEST(ReenactConcurrencyTest, LiveQueriesMatchTheQuiescedAnswer) {
  Database db(LiveOptions());
  BuildHistory(&db, 60, 5);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_TRUE(db.Sync().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  BuildHistory(&db, 40, 6);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_TRUE(db.Sync().ok());
  ASSERT_TRUE(db.ArchiveLog().ok());

  // A cut in the durable past of both shards.
  const Lsn cut = std::min(db.shard(0)->log_manager()->flushed_lsn(),
                           db.shard(1)->log_manager()->flushed_lsn());
  Answers quiesced;
  ASSERT_TRUE(Ask(&db, cut, &quiesced).ok());
  ASSERT_FALSE(quiesced.state.empty());

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < 2; ++w) {
    writers.emplace_back([&db, &stop, w] {
      Random rng(100 + w);
      while (!stop.load()) {
        Result<TxnId> txn = db.Begin();
        if (!txn.ok()) continue;
        // Busy (a lock held by the other writer) just aborts and retries.
        if (db.Add(*txn, rng.Uniform(kObjects), 1).ok() &&
            db.TablePut(*txn, "w" + std::to_string(rng.Uniform(32)), "x")
                .ok()) {
          EXPECT_TRUE(db.Commit(*txn).ok());
        } else {
          EXPECT_TRUE(db.Abort(*txn).ok());
        }
      }
    });
  }
  std::thread archiver([&db, &stop] {
    while (!stop.load()) {
      EXPECT_TRUE(db.ArchiveLog().ok());
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 6; ++round) {
    Answers live;
    const Status status = Ask(&db, cut, &live);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(live.state, quiesced.state) << "round " << round;
    EXPECT_EQ(live.responsible, quiesced.responsible) << "round " << round;
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  archiver.join();

  Answers after;
  ASSERT_TRUE(Ask(&db, cut, &after).ok());
  EXPECT_EQ(after.state, quiesced.state);
  EXPECT_EQ(after.responsible, quiesced.responsible);
}

}  // namespace
}  // namespace ariesrh
