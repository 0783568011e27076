// The fold's table (reenact/fold_table.h): a key overlay over the shard's
// base heap images, pinned against independent oracles, and the base-chain
// checks it keeps.
//
//   * A two-shard history whose retained suffix deletes base keys, inserts
//     new keys, overwrites base keys, and leaves a loser and a
//     delegated-then-lost partner whose writes over base keys roll back:
//     StateAt(tail) equals the state a kFull restart builds, StateAt at a
//     cut inside the suffix equals a tracked model, and ReplayTxn's before
//     and after images over base keys are what the transactions did. Run
//     anchored (the base is the checkpoint's stable heap pages) and over the
//     full log (the overlay replays the whole history).
//   * Corrupt base chains — a key stable on two pages of its chain, a key in
//     the wrong bucket, a heap page holding another page's image — fail
//     StateAt and ReplayTxn with Corruption naming the page, over a live
//     open and over an archive.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/engine_shard.h"
#include "reenact/reenact.h"
#include "table/heap_page.h"
#include "table/table_heap.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

using reenact::Reenactor;
using reenact::ReplayResult;
using reenact::StateImage;
using Records = std::map<std::string, std::string>;

std::string Key(const char* prefix, int i) {
  return prefix + std::to_string(i);
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + ".ariesrh";
}

/// Flushes every shard's pages, checkpoints and archives the log prefix, so
/// a reenactor anchors at the stable pages.
void Anchor(Database* db) {
  for (size_t s = 0; s < db->num_shards(); ++s) {
    ASSERT_TRUE(db->shard(s)->buffer_pool()->FlushAll().ok());
    ASSERT_TRUE(db->shard(s)->table_heap()->FlushAll().ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->ArchiveLog().ok());
  for (size_t s = 0; s < db->num_shards(); ++s) {
    ASSERT_GT(db->shard(s)->disk()->first_retained_lsn(), kFirstLsn);
  }
}

Lsn Tail(Database* db, size_t shard) {
  return db->shard(shard)->log_manager()->flushed_lsn();
}

/// Table writes in order: a value to put, or nullopt to delete the key.
using Writes = std::vector<std::pair<std::string, std::optional<std::string>>>;

void Write(Database* db, TxnId txn, const Writes& writes) {
  for (const auto& [key, value] : writes) {
    EXPECT_TRUE(value ? db->TablePut(txn, key, *value).ok()
                      : db->TableDelete(txn, key).ok())
        << key;
  }
}

/// Commits one transaction applying `writes` and mirrors them into `model`;
/// returns its id.
TxnId CommitWrites(Database* db, const Writes& writes, Records* model) {
  const TxnId t = *db->Begin();
  Write(db, t, writes);
  EXPECT_TRUE(db->Commit(t).ok());
  for (const auto& [key, value] : writes) {
    if (value) {
      (*model)[key] = *value;
    } else {
      model->erase(key);
    }
  }
  return t;
}

class FoldTableOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(FoldTableOracleTest, OverlayMatchesTheOracle) {
  const bool anchored = GetParam();
  Options options;
  options.num_shards = 2;
  Database db(options);

  // The base: 40 keys over both shards.
  Records base;
  Writes puts;
  for (int i = 0; i < 40; ++i) puts.push_back({Key("b", i), Key("base", i)});
  CommitWrites(&db, puts, &base);
  if (anchored) {
    Anchor(&db);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  Records model = base;

  // The retained suffix up to the cut: deletes, inserts, a loser over base
  // keys that stays open at the cut, and overwrites.
  Writes deletes, inserts, overwrites;
  for (int i = 0; i < 6; ++i) {
    deletes.push_back({Key("b", i), std::nullopt});
    inserts.push_back({Key("n", i), Key("new", i)});
    overwrites.push_back({Key("b", 6 + i), Key("over", i)});
  }
  const Writes lost = {{"b12", "lost"}, {"b13", "lost"}, {"b14", "lost"},
                       {"b15", std::nullopt}, {"n10", "lost"}};
  const TxnId deleter = CommitWrites(&db, deletes, &model);
  const TxnId inserter = CommitWrites(&db, inserts, &model);
  const TxnId loser = *db.Begin();
  Write(&db, loser, lost);
  const TxnId overwriter = CommitWrites(&db, overwrites, &model);
  ASSERT_TRUE(db.Sync().ok());

  // The cut: each shard numbers its own LSNs, so the shard behind commits
  // plain-object adds until its tail reaches the cut. No table record lies
  // between the overwriter's commit and the cut on either shard.
  const Lsn cut = std::max(Tail(&db, 0), Tail(&db, 1));
  for (size_t s = 0; s < 2; ++s) {
    ObjectId ob = 1;
    while (db.ShardOf(ob) != s) ++ob;
    while (Tail(&db, s) < cut) {
      const TxnId pad = *db.Begin();
      ASSERT_TRUE(db.Add(pad, ob, 1).ok());
      ASSERT_TRUE(db.Commit(pad).ok());
      ASSERT_TRUE(db.Sync().ok());
    }
  }
  const Records at_cut = model;

  // Past the cut: a delegator that hands its writes over base keys to a
  // partner which never commits, and a last committed write.
  const Writes handed = {{"b16", "handed"}, {"b17", "handed"},
                         {"b18", "handed"}, {"b19", std::nullopt}};
  const TxnId delegator = *db.Begin();
  const TxnId partner = *db.Begin();
  Write(&db, delegator, handed);
  ASSERT_TRUE(db.Delegate(delegator, partner, DelegationSpec::All()).ok());
  ASSERT_TRUE(db.Commit(delegator).ok());
  CommitWrites(&db, {{"b20", "last"}, {"n20", "last"}}, &model);
  ASSERT_TRUE(db.Sync().ok());

  Result<Reenactor> r = Reenactor::OpenLive(&db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(r->earliest_lsn(s) > 0, anchored) << "shard " << s;
  }
  Result<StateImage> tail = r->StateAt();
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail->records, model);
  Result<StateImage> mid = r->StateAt(cut);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(mid->records, at_cut);

  // ReplayTxn: a transaction's before images are the base values (no
  // earlier transaction of the suffix wrote its keys), its after images
  // what it wrote.
  const auto expect_replay = [&base](Reenactor* reenactor, TxnId txn,
                                     const Writes& writes) {
    SCOPED_TRACE("txn " + std::to_string(txn));
    Result<ReplayResult> replay = reenactor->ReplayTxn(txn);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->records.size(), writes.size());
    for (const auto& [key, after] : writes) {
      ASSERT_TRUE(replay->records.count(key)) << key;
      const auto it = base.find(key);
      EXPECT_EQ(replay->records.at(key).first,
                it == base.end() ? std::nullopt
                                 : std::optional<std::string>(it->second))
          << key;
      EXPECT_EQ(replay->records.at(key).second, after) << key;
    }
  };
  expect_replay(&*r, deleter, deletes);
  expect_replay(&*r, inserter, inserts);
  expect_replay(&*r, overwriter, overwrites);
  expect_replay(&*r, loser, lost);
  expect_replay(&*r, delegator, handed);

  // The oracle: a kFull restart rolls back the loser and the partner.
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  Result<StateImage> recovered = reenact::CaptureCommittedState(&db);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->Serialize(), tail->Serialize());
  EXPECT_EQ(recovered->records, model);

  // After the restart the losers' CLRs are history too: the tail reenacts
  // the recovered state, and the loser's replay nets to no change.
  Result<Reenactor> after = Reenactor::OpenLive(&db);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  Result<StateImage> again = after->StateAt();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->Serialize(), recovered->Serialize());
  Writes undone;
  for (const auto& [key, value] : lost) {
    const auto it = base.find(key);
    undone.push_back({key, it == base.end()
                               ? std::nullopt
                               : std::optional<std::string>(it->second)});
  }
  expect_replay(&*after, loser, undone);
}

INSTANTIATE_TEST_SUITE_P(Base, FoldTableOracleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Anchored" : "FullLog";
                         });

// --- corrupt base chains ---

size_t BucketOf(const std::string& key) {
  return table::BucketOfRid(table::TableRid(key));
}

std::vector<std::string> KeysInBucket(size_t bucket, size_t n, int from = 0) {
  std::vector<std::string> keys;
  for (int i = from; keys.size() < n; ++i) {
    std::string key = Key("c", i);
    if (BucketOf(key) == bucket) keys.push_back(key);
  }
  return keys;
}

enum class Damage { kKeyStableTwice, kKeyOfAnotherBucket, kImageOfAnotherPage };

TEST(FoldTableCorruptionTest, CorruptBaseChainsFailStateAtAndReplayTxn) {
  constexpr size_t kVictim = 5;
  constexpr size_t kOther = 9;
  const PageId victim = table::kHeapPageBase + kVictim;
  for (const Damage damage :
       {Damage::kKeyStableTwice, Damage::kKeyOfAnotherBucket,
        Damage::kImageOfAnotherPage}) {
    SCOPED_TRACE(static_cast<int>(damage));
    Options options;
    Database db(options);
    Records model;
    Writes puts;
    for (size_t b = 0; b < table::kTableBuckets; ++b) {
      for (const std::string& key : KeysInBucket(b, 3)) {
        puts.push_back({key, "v-" + key});
      }
    }
    CommitWrites(&db, puts, &model);
    Anchor(&db);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // The suffix transaction writes a key of the damaged bucket.
    const TxnId writer = CommitWrites(
        &db, {{KeysInBucket(kVictim, 1)[0], "w"}}, &model);
    ASSERT_TRUE(db.Sync().ok());

    SimulatedDisk* disk = db.shard(0)->disk();
    Result<PageImage> victim_image = disk->ReadPage(victim);
    ASSERT_TRUE(victim_image.ok());
    Result<table::HeapPage> page = table::HeapPage::Deserialize(**victim_image);
    ASSERT_TRUE(page.ok());
    PageId bad = victim;
    switch (damage) {
      case Damage::kKeyStableTwice: {
        // A second page of the victim's chain holds one of its keys again.
        bad = victim + table::kTableBuckets;
        ASSERT_FALSE(disk->ReadPage(bad).ok()) << "the chain is one page";
        table::HeapPage twin(bad);
        twin.set_page_lsn(page->page_lsn());
        ASSERT_TRUE(twin.Insert(page->KeyAt(0), "again").ok());
        ASSERT_TRUE(disk->WritePage(bad, twin.Serialize()).ok());
        break;
      }
      case Damage::kKeyOfAnotherBucket:
        ASSERT_TRUE(page->Insert(KeysInBucket(kOther, 1, 1000)[0], "x").ok());
        ASSERT_TRUE(disk->WritePage(victim, page->Serialize()).ok());
        break;
      case Damage::kImageOfAnotherPage: {
        // The victim's own records under the header of a page its chain
        // does not have: only the page id gives it away.
        table::HeapPage moved(victim + 2 * table::kTableBuckets);
        moved.set_page_lsn(page->page_lsn());
        for (uint32_t slot = 0; slot < page->slot_count(); ++slot) {
          if (!page->SlotLive(slot)) continue;
          ASSERT_TRUE(
              moved.Insert(page->KeyAt(slot), page->ValueAt(slot)).ok());
        }
        ASSERT_TRUE(disk->WritePage(victim, moved.Serialize()).ok());
        break;
      }
    }

    const std::string names_page = "heap page " + std::to_string(bad) + " ";
    const auto expect_corruption = [&](Reenactor* r) {
      Result<StateImage> state = r->StateAt();
      ASSERT_FALSE(state.ok());
      EXPECT_TRUE(state.status().IsCorruption()) << state.status().ToString();
      EXPECT_NE(state.status().ToString().find(names_page), std::string::npos)
          << state.status().ToString();
      Result<ReplayResult> replay = r->ReplayTxn(writer);
      ASSERT_FALSE(replay.ok());
      EXPECT_TRUE(replay.status().IsCorruption())
          << replay.status().ToString();
      EXPECT_NE(replay.status().ToString().find(names_page), std::string::npos)
          << replay.status().ToString();
    };
    // The open reads page LSNs only: every damaged image has a good CRC.
    Result<Reenactor> live = Reenactor::OpenLive(&db);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    expect_corruption(&*live);
    const std::string path = TempPath("fold_table_corrupt_chain");
    ASSERT_TRUE(db.SaveTo(path).ok());
    Result<Reenactor> archive = Reenactor::OpenArchive(options, path);
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    expect_corruption(&*archive);
  }
}

}  // namespace
}  // namespace ariesrh
