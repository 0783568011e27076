// Background checkpoint & log-retention daemon.
//
// An EngineShard-owned thread (one per shard in a sharded engine) that
// takes fuzzy checkpoints concurrently with the worker pool and the
// group-commit flusher, triggered by log growth
// (Options::checkpoint_interval_records) and/or wall-clock time
// (Options::checkpoint_interval_ms), and — with Options::auto_archive —
// follows each checkpoint with EngineShard::ArchiveLog(), keeping the live
// log prefix bounded without any administrative intervention. The fuzzy
// window the daemon's checkpoints open under live traffic is exactly what
// the CKPT_BEGIN-anchored analysis re-scan reconciles (docs/CHECKPOINT.md).
//
// The daemon is volatile: SimulateCrash() stops it with the other volatile
// components and Restart()'s rebuild starts a fresh one.

#ifndef ARIESRH_CORE_CHECKPOINT_DAEMON_H_
#define ARIESRH_CORE_CHECKPOINT_DAEMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"
#include "util/types.h"

namespace ariesrh {

class EngineShard;

class CheckpointDaemon {
 public:
  /// Point-in-time summary of the daemon's work (shell `checkpoint` /
  /// `archive` builtins print this).
  struct Digest {
    bool running = false;
    uint64_t checkpoints = 0;       ///< successful checkpoints this life
    uint64_t archive_runs = 0;      ///< successful ArchiveLog calls
    uint64_t records_archived = 0;  ///< total records dropped by archiving
    Lsn last_checkpoint_lsn = 0;    ///< CKPT_END of the most recent one
    std::string last_error;         ///< most recent failure, empty if none

    std::string ToString() const;
  };

  /// Does not start the thread; call Start(). `db` must outlive the daemon.
  CheckpointDaemon(EngineShard* db, uint64_t interval_records,
                   uint64_t interval_ms, bool auto_archive);
  ~CheckpointDaemon();

  CheckpointDaemon(const CheckpointDaemon&) = delete;
  CheckpointDaemon& operator=(const CheckpointDaemon&) = delete;

  void Start();
  /// Stops and joins the thread; idempotent. After Stop() the daemon issues
  /// no further engine calls — Database tears it down before discarding the
  /// volatile components it drives.
  void Stop();

  /// One synchronous checkpoint (+ archive, when configured) cycle — the
  /// same work an elapsed trigger performs, runnable deterministically from
  /// tests and the shell. Thread-safe against the background loop.
  Status RunOnce();

  Digest digest() const;

 private:
  void Loop();
  /// Log-growth / elapsed-time trigger check. Caller holds mu_.
  bool TriggerFired() const;

  EngineShard* const db_;
  const uint64_t interval_records_;
  const uint64_t interval_ms_;
  const bool auto_archive_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = true;  // not running until Start()
  std::thread thread_;

  Digest digest_;                   ///< counters, guarded by mu_
  Lsn last_checkpoint_end_ = 0;     ///< log position of the last CKPT_END
  std::chrono::steady_clock::time_point last_checkpoint_time_;
};

}  // namespace ariesrh

#endif  // ARIESRH_CORE_CHECKPOINT_DAEMON_H_
