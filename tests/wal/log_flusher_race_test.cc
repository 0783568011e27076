// Races on the log tail under the group-commit flusher: DiscardTail against
// an in-flight force, readers hammering slots that concurrent appenders are
// still filling, and committers parked in FlushWait when the tail is
// discarded underneath them. The invariant every interleaving must preserve
// is the WAL rule's contrapositive: FlushWait returns OK exactly when the
// record is durable — a crash can make a commit report IllegalState, but it
// can never make a reported-durable record disappear.

#include "wal/log_manager.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ariesrh {
namespace {

TEST(LogFlusherRaceTest, DiscardTailConcurrentWithInFlightForce) {
  Stats stats;
  SimulatedDisk disk(&stats);
  disk.set_log_force_stall_ns(20'000'000);  // 20ms per force: a wide window
  LogManager log(&disk, &stats);
  log.StartGroupCommit({.window_us = 0});

  const Lsn first = log.Append(LogRecord::MakeBegin(1));
  Status status_a;
  std::thread committer_a([&] { status_a = log.FlushWait(first); });
  // Give the flusher time to start forcing `first` (it is now paying the
  // simulated device stall), then pile a second committer onto the queue
  // and crash the tail while the force is still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Lsn second = log.Append(LogRecord::MakeBegin(2));
  Status status_b;
  std::thread committer_b([&] { status_b = log.FlushWait(second); });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  log.DiscardTail();  // serializes after the in-flight force
  committer_a.join();
  committer_b.join();

  // Whatever the interleaving: OK iff durable, and the tail is gone.
  const struct {
    Lsn lsn;
    Status status;
  } committers[] = {{first, status_a}, {second, status_b}};
  for (const auto& c : committers) {
    if (c.status.ok()) {
      EXPECT_LE(c.lsn, log.flushed_lsn()) << "LSN " << c.lsn;
      EXPECT_TRUE(log.Read(c.lsn).ok()) << "LSN " << c.lsn;
    } else {
      EXPECT_EQ(c.status.code(), StatusCode::kIllegalState)
          << c.status.ToString();
      EXPECT_GT(c.lsn, log.flushed_lsn()) << "LSN " << c.lsn;
    }
  }
  EXPECT_EQ(log.end_lsn(), log.flushed_lsn());
}

TEST(LogFlusherRaceTest, DiscardTailWakesCommitterParkedInWindow) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  // A long coalescing window pins the flusher in its straggler wait, so the
  // committer is deterministically still parked when the crash lands.
  log.StartGroupCommit({.window_us = 200'000});

  const Lsn lsn = log.Append(LogRecord::MakeBegin(1));
  Status status;
  std::thread committer([&] { status = log.FlushWait(lsn); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.DiscardTail();
  committer.join();

  // The record evaporated before any force covered it: the committer must
  // learn its commit never became durable, not hang or report success.
  EXPECT_EQ(status.code(), StatusCode::kIllegalState) << status.ToString();
  EXPECT_EQ(log.flushed_lsn(), 0u);
  EXPECT_EQ(log.end_lsn(), 0u);
}

TEST(LogFlusherRaceTest, StopGroupCommitWakesParkedCommitters) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  log.StartGroupCommit({.window_us = 500'000});

  const Lsn lsn = log.Append(LogRecord::MakeBegin(1));
  Status status;
  std::thread committer([&] { status = log.FlushWait(lsn); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.StopGroupCommit();  // the shutdown path must not strand the waiter
  committer.join();

  EXPECT_EQ(status.code(), StatusCode::kIllegalState) << status.ToString();
  // Without a flusher, FlushWait degrades to a direct (still correct) force.
  EXPECT_TRUE(log.FlushWait(lsn).ok());
  EXPECT_GE(log.flushed_lsn(), lsn);
}

TEST(LogFlusherRaceTest, TailReadsAreNeverTorn) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  constexpr TxnId kMaxTxn = kWriters * kPerWriter;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> clean_reads{0};
  std::atomic<uint64_t> busy_reads{0};
  // The reader chases the freshest slot — exactly the one a concurrent
  // appender may have reserved but not yet published. Every read must be a
  // complete record or an explicit Busy/NotFound; a torn record would show
  // up as a type/txn-id outside the writers' fixed vocabulary.
  std::thread reader([&] {
    // Runs until the writers finish AND at least one clean read landed: on
    // a loaded single-core host the reader may get no timeslice while the
    // writers run, and the assertion below needs one real read. After the
    // writers join, every slot is published, so the final read must succeed
    // and the loop exits.
    while (!done.load(std::memory_order_acquire) ||
           clean_reads.load(std::memory_order_relaxed) == 0) {
      const Lsn lsn = log.end_lsn();
      if (lsn == kInvalidLsn || lsn == 0) continue;
      Result<LogRecord> rec = log.Read(lsn);
      if (rec.ok()) {
        EXPECT_EQ(rec->lsn, lsn);
        EXPECT_EQ(rec->type, LogRecordType::kBegin);
        EXPECT_GE(rec->txn_id, 1u);
        EXPECT_LE(rec->txn_id, kMaxTxn);
        clean_reads.fetch_add(1, std::memory_order_relaxed);
      } else if (rec.status().code() == StatusCode::kBusy) {
        busy_reads.fetch_add(1, std::memory_order_relaxed);
      } else {
        EXPECT_EQ(rec.status().code(), StatusCode::kNotFound)
            << rec.status().ToString();
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const TxnId txn = static_cast<TxnId>(w) * kPerWriter + i + 1;
        log.Append(LogRecord::MakeBegin(txn));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.end_lsn(), static_cast<Lsn>(kMaxTxn));
  EXPECT_GT(clean_reads.load(), 0u);
  // busy_reads is interleaving-dependent — any count (including zero) is
  // legitimate; what matters is that no read was ever torn.
}

}  // namespace
}  // namespace ariesrh
