// The split flush API: RequestFlush hands out a ticket, AwaitFlush redeems
// it. Requests on several logs overlap their forces; a crash (DiscardTail)
// or a flusher stop between request and await fails the ticket instead of
// reporting a record durable that is not; without a flusher the await is a
// direct force.

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "wal/log_manager.h"

namespace ariesrh {
namespace {

constexpr uint64_t kStallNs = 20'000'000;  // 20 ms per force

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// A flusher pinned in a long coalescing window with the early wake off:
/// a queued request is deterministically still unforced when the test acts.
LogManager::GroupCommitConfig ParkedFlusher() {
  LogManager::GroupCommitConfig config;
  config.window_us = 500'000;
  config.target_batch = 0;
  return config;
}

TEST(FlushTicketTest, TicketsOnTwoLogsForceConcurrently) {
  Stats stats_a, stats_b;
  SimulatedDisk disk_a(&stats_a), disk_b(&stats_b);
  disk_a.set_log_force_stall_ns(kStallNs);
  disk_b.set_log_force_stall_ns(kStallNs);
  LogManager log_a(&disk_a, &stats_a), log_b(&disk_b, &stats_b);
  log_a.StartGroupCommit({.window_us = 0});
  log_b.StartGroupCommit({.window_us = 0});
  const Lsn lsn_a = log_a.Append(LogRecord::MakeBegin(1));
  const Lsn lsn_b = log_b.Append(LogRecord::MakeBegin(2));

  const auto start = std::chrono::steady_clock::now();
  const LogManager::FlushTicket ticket_a = log_a.RequestFlush(lsn_a);
  const LogManager::FlushTicket ticket_b = log_b.RequestFlush(lsn_b);
  ASSERT_TRUE(log_a.AwaitFlush(ticket_a).ok());
  ASSERT_TRUE(log_b.AwaitFlush(ticket_b).ok());
  const uint64_t elapsed = ElapsedNs(start);

  EXPECT_GE(log_a.flushed_lsn(), lsn_a);
  EXPECT_GE(log_b.flushed_lsn(), lsn_b);
  // Each force stalls its device for at least kStallNs, and both stalls
  // lie inside the measured window: they begin after the requests and end
  // before the awaits return. Two stalls that did not overlap would need
  // 2 * kStallNs of it, so a shorter window proves they overlapped. The
  // bound is the pigeonhole one, not a guess at scheduling slack.
  EXPECT_GE(elapsed, kStallNs);
  EXPECT_LT(elapsed, 2 * kStallNs);
}

TEST(FlushTicketTest, DiscardTailBetweenRequestAndAwaitFails) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  log.StartGroupCommit(ParkedFlusher());
  const Lsn lsn = log.Append(LogRecord::MakeBegin(1));
  const LogManager::FlushTicket ticket = log.RequestFlush(lsn);
  log.DiscardTail();
  // The discarded LSN is reused and made durable by a later record: the
  // ticket must still report its own record lost.
  const Lsn reused = log.Append(LogRecord::MakeBegin(2));
  ASSERT_EQ(reused, lsn);
  ASSERT_TRUE(log.Flush(reused).ok());
  EXPECT_EQ(log.AwaitFlush(ticket).code(), StatusCode::kIllegalState);
}

TEST(FlushTicketTest, DiscardTailWithoutFlusherFailsTheTicket) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  const Lsn lsn = log.Append(LogRecord::MakeBegin(1));
  const LogManager::FlushTicket ticket = log.RequestFlush(lsn);
  log.DiscardTail();
  EXPECT_EQ(log.AwaitFlush(ticket).code(), StatusCode::kIllegalState);
  EXPECT_EQ(log.flushed_lsn(), 0u);
}

TEST(FlushTicketTest, RecordDurableBeforeTheDiscardStaysAcked) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  log.StartGroupCommit({.window_us = 0});
  const Lsn lsn = log.Append(LogRecord::MakeBegin(1));
  const LogManager::FlushTicket ticket = log.RequestFlush(lsn);
  while (log.flushed_lsn() < lsn) std::this_thread::yield();
  log.DiscardTail();
  EXPECT_TRUE(log.AwaitFlush(ticket).ok());
}

TEST(FlushTicketTest, StopGroupCommitBetweenRequestAndAwaitFails) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  log.StartGroupCommit(ParkedFlusher());
  const Lsn lsn = log.Append(LogRecord::MakeBegin(1));
  const LogManager::FlushTicket ticket = log.RequestFlush(lsn);
  log.StopGroupCommit();
  EXPECT_EQ(log.AwaitFlush(ticket).code(), StatusCode::kIllegalState);
  // A restarted flusher does not revive the old ticket either.
  log.StartGroupCommit({.window_us = 0});
  EXPECT_EQ(log.AwaitFlush(ticket).code(), StatusCode::kIllegalState);
}

TEST(FlushTicketTest, AwaitWithoutFlusherMakesTheRecordDurable) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  const Lsn lsn = log.Append(LogRecord::MakeBegin(1));
  const LogManager::FlushTicket ticket = log.RequestFlush(lsn);
  EXPECT_EQ(log.flushed_lsn(), 0u);  // the request alone forces nothing
  ASSERT_TRUE(log.AwaitFlush(ticket).ok());
  EXPECT_GE(log.flushed_lsn(), lsn);
}

}  // namespace
}  // namespace ariesrh
