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
#include <string>
#include <thread>
#include <vector>

#include "table/table_heap.h"

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

// A committer whose record a crash discarded before it asked for the flush:
// no force can cover that LSN. The wait fails at once, with the flusher and
// without it, instead of parking while the flusher re-forces the missing
// LSN in a loop (with the flusher) or acking it (without).
TEST(LogFlusherRaceTest, RequestForAnAlreadyDiscardedRecordFails) {
  for (const bool flusher : {true, false}) {
    Stats stats;
    SimulatedDisk disk(&stats);
    LogManager log(&disk, &stats);
    if (flusher) log.StartGroupCommit({.window_us = 0});
    ASSERT_TRUE(log.FlushWait(log.Append(LogRecord::MakeBegin(1))).ok());
    const Lsn lost = log.Append(LogRecord::MakeBegin(2));
    log.DiscardTail();
    const Status status = log.FlushWait(lost);
    EXPECT_EQ(status.code(), StatusCode::kIllegalState)
        << (flusher ? "flusher: " : "direct: ") << status.ToString();
    EXPECT_EQ(log.flushed_lsn(), 1u);
    // Nothing is left to force: the flusher idles instead of re-forcing.
    const uint64_t forces = stats.log_group_forces.value();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(stats.log_group_forces.value(), forces);
    // The log goes on: the record that reuses the LSN commits normally.
    EXPECT_TRUE(log.FlushWait(log.Append(LogRecord::MakeBegin(3))).ok());
    EXPECT_EQ(log.flushed_lsn(), 2u);
  }
}

// Cursors sweep the durable log, forward and backward, while the flusher
// appends into the open stable segment (and opens new ones) and an
// archiver drops whole segments behind them. A cursor reads each record of
// its range intact or stops with NotFound on one archived under it; no
// record it returns is torn or misplaced.
TEST(LogFlusherRaceTest, CursorsReadWhileFlusherAppendsAndArchiveDrops) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  log.StartGroupCommit({.window_us = 0});
  // Record LSN i carries a value of ValueSize(i) bytes: about 1.3 MB in
  // all, some twenty segments.
  const auto value_size = [](Lsn lsn) { return 300 + lsn * 37 % 1200; };
  constexpr Lsn kRecords = 1500;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (Lsn i = 1; i <= kRecords; ++i) {
      const std::string key = "k" + std::to_string(i);
      const Lsn lsn = log.Append(LogRecord::MakeTableInsert(
          1, kInvalidLsn, table::TableRid(key), key,
          std::string(value_size(i), 'v')));
      if (i % 8 == 0) EXPECT_TRUE(log.FlushWait(lsn).ok());
    }
    EXPECT_TRUE(log.FlushAll().ok());
    done = true;
  });
  uint64_t archived = 0;
  std::thread archiver([&] {
    while (!done) {
      const Lsn flushed = log.flushed_lsn();
      if (flushed > 300) archived += log.ArchivePrefix(flushed - 300);
      std::this_thread::yield();
    }
  });
  std::atomic<uint64_t> read{0};
  std::vector<std::thread> readers;
  for (const auto direction :
       {LogCursor::Direction::kForward, LogCursor::Direction::kBackward}) {
    readers.emplace_back([&, direction] {
      while (!done) {
        const Lsn from = log.first_retained_lsn();
        const Lsn to = log.flushed_lsn();
        LogCursor cursor(log, from, to, direction);
        while (cursor.Next()) {
          const LogRecord& rec = cursor.record();
          if (rec.lsn != cursor.lsn() ||
              rec.after_image.size() != value_size(rec.lsn)) {
            ADD_FAILURE() << "LSN " << cursor.lsn() << " read as "
                          << rec.ToString();
            return;
          }
          ++read;
        }
        if (!cursor.status().ok() && !cursor.status().IsNotFound()) {
          ADD_FAILURE() << cursor.status().ToString();
          return;
        }
      }
    });
  }
  writer.join();
  archiver.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(read.load(), 0u);
  EXPECT_GT(archived, 0u);
  // What is left reads back whole.
  const Lsn from = log.first_retained_lsn();
  LogCursor cursor(log, from, kRecords);
  Lsn next = from;
  while (cursor.Next()) {
    EXPECT_EQ(cursor.lsn(), next++);
    EXPECT_EQ(cursor.record().after_image.size(), value_size(cursor.lsn()));
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  EXPECT_EQ(next, kRecords + 1);
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
