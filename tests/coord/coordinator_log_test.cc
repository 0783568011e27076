// The cross-shard coordinator's decision log: record encoding, the
// durable-prefix/volatile-tail crash split, and the recovery-time
// Resolution (presumed abort) built from the surviving records.

#include "coord/coordinator_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace ariesrh::coord {
namespace {

CoordRecord SampleRecord() {
  CoordRecord rec;
  rec.csn = 42;
  rec.type = CoordRecordType::kCommit;
  rec.kind = CoordRoundKind::kDelegate;
  rec.txn = 7;
  rec.txn2 = 9;
  rec.shards = {0, 2, 3};
  return rec;
}

TEST(CoordRecordTest, RoundTripPreservesEveryField) {
  const CoordRecord rec = SampleRecord();
  Result<CoordRecord> back = CoordRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->csn, 42u);
  EXPECT_EQ(back->type, CoordRecordType::kCommit);
  EXPECT_EQ(back->kind, CoordRoundKind::kDelegate);
  EXPECT_EQ(back->txn, 7u);
  EXPECT_EQ(back->txn2, 9u);
  EXPECT_EQ(back->shards, (std::vector<uint32_t>{0, 2, 3}));
}

TEST(CoordRecordTest, CorruptionDetectedOnEveryByteFlip) {
  std::string image = SampleRecord().Serialize();
  for (size_t i = 0; i < image.size(); ++i) {
    std::string bad = image;
    bad[i] ^= 0x20;
    EXPECT_FALSE(CoordRecord::Deserialize(bad).ok()) << "flip at byte " << i;
  }
}

TEST(CoordRecordTest, TruncationDetected) {
  const std::string image = SampleRecord().Serialize();
  for (size_t keep = 0; keep < image.size(); ++keep) {
    EXPECT_FALSE(CoordRecord::Deserialize(image.substr(0, keep)).ok())
        << "kept " << keep << " bytes";
  }
}

TEST(CoordRecordTest, ToStringNamesTheRound) {
  const std::string s = SampleRecord().ToString();
  EXPECT_NE(s.find("csn42"), std::string::npos);
  EXPECT_NE(s.find("COMMIT"), std::string::npos);
  EXPECT_NE(s.find("delegate"), std::string::npos);
}

TEST(CoordinatorLogTest, CsnsAreUniqueAndReseedable) {
  CoordinatorLog log;
  const uint64_t a = log.NextCsn();
  const uint64_t b = log.NextCsn();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  log.SeedCsn(100);
  EXPECT_EQ(log.NextCsn(), 100u);
  log.SeedCsn(0);  // 0 is never a valid csn
  EXPECT_EQ(log.NextCsn(), 1u);
}

TEST(CoordinatorLogTest, UnforcedTailDiesWithTheCrash) {
  CoordinatorLog log;
  CoordRecord rec = SampleRecord();
  rec.csn = 1;
  log.Append(rec);
  ASSERT_TRUE(log.Force().ok());
  rec.csn = 2;
  log.Append(rec);  // volatile: never forced
  log.SimulateCrash();
  const std::vector<CoordRecord> stable = log.StableRecords();
  ASSERT_EQ(stable.size(), 1u);
  EXPECT_EQ(stable[0].csn, 1u);
  EXPECT_EQ(log.stable_size(), 1u);
}

TEST(CoordinatorLogTest, ConcurrentForcesBothWaitOutTheStall) {
  constexpr uint64_t kStallNs = 20'000'000;  // 20 ms per force
  CoordinatorLog log(/*registry=*/nullptr, kStallNs);
  std::atomic<bool> go{false};
  std::atomic<int> appended{0};
  std::chrono::steady_clock::time_point start;
  uint64_t elapsed_ns[2] = {0, 0};
  auto committer = [&](int i) {
    CoordRecord rec = SampleRecord();
    rec.csn = static_cast<uint64_t>(i + 1);
    log.Append(rec);
    appended.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    ASSERT_TRUE(log.Force().ok());
    elapsed_ns[i] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  std::thread a(committer, 0);
  std::thread b(committer, 1);
  while (appended.load() < 2) std::this_thread::yield();
  // Both records are appended before either force starts, so the first
  // force carries both. The second caller finds its record already in
  // stable_ and must still wait until that force's stall has ended.
  start = std::chrono::steady_clock::now();
  go.store(true);
  a.join();
  b.join();
  EXPECT_GE(elapsed_ns[0], kStallNs);
  EXPECT_GE(elapsed_ns[1], kStallNs);
  EXPECT_EQ(log.stable_size(), 2u);
}

TEST(CoordinatorLogTest, ResolutionIsPresumedAbort) {
  CoordinatorLog log;
  auto round = [&](uint64_t csn, CoordRecordType type) {
    CoordRecord rec;
    rec.csn = csn;
    rec.type = type;
    rec.txn = csn;
    return rec;
  };
  // csn 1: opened and committed. csn 2: opened only. csn 3: explicitly
  // aborted. Only csn 1 resolves committed; 2 and 3 are presumed aborted.
  log.Append(round(1, CoordRecordType::kPrepare));
  log.Append(round(1, CoordRecordType::kCommit));
  log.Append(round(2, CoordRecordType::kPrepare));
  log.Append(round(3, CoordRecordType::kPrepare));
  log.Append(round(3, CoordRecordType::kAbort));
  ASSERT_TRUE(log.Force().ok());

  const Resolution res = Resolution::FromRecords(log.StableRecords());
  EXPECT_TRUE(res.IsCommitted(1));
  EXPECT_FALSE(res.IsCommitted(2));
  EXPECT_FALSE(res.IsCommitted(3));
  EXPECT_EQ(res.max_csn, 3u);

  const Resolution empty = Resolution::FromRecords({});
  EXPECT_EQ(empty.max_csn, 0u);
  EXPECT_FALSE(empty.IsCommitted(1));
}

TEST(CoordinatorLogTest, ShippedImagesReplayOnAStandby) {
  obs::MetricsRegistry registry;
  CoordinatorLog primary(&registry);
  CoordRecord rec = SampleRecord();
  rec.csn = 1;
  primary.Append(rec);
  rec.csn = 2;
  rec.type = CoordRecordType::kPrepare;
  primary.Append(rec);
  ASSERT_TRUE(primary.Force().ok());

  CoordinatorLog standby;
  ASSERT_TRUE(
      standby.AppendStableImages(primary.StableImagesFrom(0)).ok());
  EXPECT_EQ(standby.stable_size(), 2u);
  // Incremental shipping: nothing new yields nothing.
  EXPECT_TRUE(primary.StableImagesFrom(2).empty());
  const std::vector<CoordRecord> got = standby.StableRecords();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].csn, 1u);
  EXPECT_EQ(got[1].type, CoordRecordType::kPrepare);
}

TEST(CoordinatorLogTest, CorruptShippedImageRejected) {
  CoordinatorLog standby;
  std::string image = SampleRecord().Serialize();
  image.back() ^= 0x01;
  EXPECT_FALSE(standby.AppendStableImages({image}).ok());
}

TEST(CoordRecordTest, VerdictChecksLikeDeserialize) {
  const std::string image = SampleRecord().Serialize();
  Result<CoordRecord::Verdict> verdict = CoordRecord::DeserializeVerdict(image);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->type, CoordRecordType::kCommit);
  EXPECT_EQ(verdict->csn, 42u);
  for (size_t i = 0; i < image.size(); ++i) {
    std::string bad = image;
    bad[i] ^= 0x20;
    EXPECT_FALSE(CoordRecord::DeserializeVerdict(bad).ok())
        << "flip at byte " << i;
  }
  for (size_t keep = 0; keep < image.size(); ++keep) {
    EXPECT_FALSE(CoordRecord::DeserializeVerdict(image.substr(0, keep)).ok())
        << "kept " << keep << " bytes";
  }
}

CoordRecord Round(uint64_t csn, CoordRecordType type) {
  CoordRecord rec;
  rec.csn = csn;
  rec.type = type;
  rec.txn = csn;
  rec.shards = {0, 1};
  return rec;
}

/// The log's incremental resolution against a fresh distillation of its
/// durable records.
void ExpectCurrent(const CoordinatorLog& log) {
  EXPECT_EQ(log.resolution(), Resolution::FromRecords(log.StableRecords()));
}

TEST(CoordinatorLogTest, ResolutionFollowsForcesAndCrashes) {
  CoordinatorLog log;
  ExpectCurrent(log);
  // Commits become durable out of csn order.
  log.Append(Round(5, CoordRecordType::kPrepare));
  log.Append(Round(5, CoordRecordType::kCommit));
  log.Append(Round(3, CoordRecordType::kPrepare));
  ASSERT_TRUE(log.Force().ok());
  ExpectCurrent(log);
  log.Append(Round(3, CoordRecordType::kCommit));
  log.Append(Round(4, CoordRecordType::kAbort));
  ASSERT_TRUE(log.Force().ok());
  ExpectCurrent(log);
  EXPECT_EQ(log.resolution().committed, (std::vector<uint64_t>{3, 5}));
  EXPECT_EQ(log.resolution().max_csn, 5u);

  // A crash drops the volatile tail, and its verdicts never counted.
  log.Append(Round(9, CoordRecordType::kCommit));
  log.SimulateCrash();
  ExpectCurrent(log);
  EXPECT_FALSE(log.resolution().IsCommitted(9));
  EXPECT_EQ(log.resolution().max_csn, 5u);
}

TEST(CoordinatorLogTest, ResolutionFollowsConcurrentForces) {
  CoordinatorLog log(nullptr, /*force_stall_ns=*/20'000);
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kRounds; ++i) {
        const uint64_t csn = log.NextCsn();
        log.Append(Round(csn, CoordRecordType::kPrepare));
        if ((i + t) % 3 != 0) log.Append(Round(csn, CoordRecordType::kCommit));
        EXPECT_TRUE(log.Force().ok());
        EXPECT_EQ(log.resolution().IsCommitted(csn), (i + t) % 3 != 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ExpectCurrent(log);
  EXPECT_EQ(log.resolution().max_csn, uint64_t{kThreads * kRounds});
}

TEST(CoordinatorLogTest, ShippedImagesCarryTheirVerdicts) {
  CoordinatorLog primary;
  primary.Append(Round(1, CoordRecordType::kCommit));
  primary.Append(Round(2, CoordRecordType::kPrepare));
  ASSERT_TRUE(primary.Force().ok());
  CoordinatorLog standby;
  ASSERT_TRUE(standby.AppendStableImages(primary.StableImagesFrom(0)).ok());
  ExpectCurrent(standby);
  EXPECT_EQ(standby.resolution(), primary.resolution());

  // A batch with one bad image admits none of its verdicts.
  std::vector<std::string> batch = {Round(3, CoordRecordType::kCommit).Serialize(),
                                    Round(4, CoordRecordType::kCommit).Serialize()};
  batch[1].back() ^= 0x01;
  EXPECT_TRUE(standby.AppendStableImages(batch).IsCorruption());
  EXPECT_EQ(standby.stable_size(), 2u);
  EXPECT_FALSE(standby.resolution().IsCommitted(3));
  ExpectCurrent(standby);
}

TEST(CoordinatorLogTest, SidecarRoundTripsImagesAndVerdicts) {
  const std::string path = ::testing::TempDir() + "/ariesrh_coord_sidecar";
  CoordinatorLog log;
  for (uint64_t csn = 1; csn <= 20; ++csn) {
    log.Append(Round(csn, CoordRecordType::kPrepare));
    if (csn % 2 == 0) log.Append(Round(csn, CoordRecordType::kCommit));
  }
  ASSERT_TRUE(log.Force().ok());
  ASSERT_TRUE(log.SaveSidecar(path).ok());

  CoordinatorLog reopened;
  ASSERT_TRUE(reopened.LoadSidecar(path).ok());
  EXPECT_EQ(reopened.StableImagesFrom(0), log.StableImagesFrom(0));
  EXPECT_EQ(reopened.resolution(), log.resolution());
  ExpectCurrent(reopened);

  // A torn sidecar admits nothing; a missing one reads as empty.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));
  }
  CoordinatorLog torn;
  const Status status = torn.LoadSidecar(path);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find(path), std::string::npos);
  EXPECT_EQ(torn.stable_size(), 0u);
  std::remove(path.c_str());
  CoordinatorLog missing;
  EXPECT_TRUE(missing.LoadSidecar(path).ok());
  EXPECT_EQ(missing.stable_size(), 0u);
}

}  // namespace
}  // namespace ariesrh::coord
