// Simulated stable storage.
//
// The paper's evaluation argues about stable-storage access patterns: the
// naive eager implementation of delegation "sweeps the whole log" with random
// accesses, while ARIES/RH appends one record. To make those claims
// measurable on commodity hardware (the paper reports no testbed numbers) we
// substitute a simulated device that survives crashes and counts every
// access, classifying log reads as sequential or random.
//
// Crash semantics: everything stored here survives SimulateCrash(); all
// volatile state (buffer pool, log tail, transaction tables) lives elsewhere
// and is discarded by the crash.
//
// The stable log is record-addressed, matching the paper's LOG[K] array
// model (Figure 1), and stored as bytes: records lie back to back in
// append-only segments of about kLogSegmentBytes, each with one end offset
// per record. A run read copies each segment's share of the run at once,
// and archiving drops whole segments.

#ifndef ARIESRH_STORAGE_SIMULATED_DISK_H_
#define ARIESRH_STORAGE_SIMULATED_DISK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"

namespace ariesrh {

/// An immutable stable page image. Images are shared, never copied: a
/// write installs a new image, so a snapshot (ClonePages) and every reader
/// holding an image keep the bytes they saw.
using PageImage = std::shared_ptr<const std::string>;

/// Every stable page, by id.
using PageImages = std::unordered_map<PageId, PageImage>;

/// Stable pages + stable log with access accounting. Not thread-safe in
/// general; the exceptions are
///   - the page calls, which share one mutex: the buffer pool and the table
///     heap write pages back under their own latches, and a checkpoint's
///     heap write-back runs beside the pool's evictions and misses;
///   - the log reads (ReadLogRecord, ReadLogRun and the read accounting),
///     which readers invoke concurrently under the log manager's shared
///     lock while every log write holds it exclusively — the
///     sequential/random classification cursor is atomic so concurrent
///     readers only perturb the access-pattern accounting, never the data.
class SimulatedDisk {
 public:
  /// `stats` must outlive the disk; counters are shared with the engine.
  explicit SimulatedDisk(Stats* stats) : stats_(stats) {}

  // Movable (Database::Open installs a loaded disk by move-assignment); the
  // atomic master record and read cursor force the member-wise ops to be
  // spelled out.
  SimulatedDisk(SimulatedDisk&& other) noexcept
      : master_record_(other.master_record()),
        base_lsn_(other.base_lsn_),
        stats_(other.stats_),
        pages_(std::move(other.pages_)),
        segments_(std::move(other.segments_)),
        log_random_read_stall_ns_(other.log_random_read_stall_ns_),
        log_force_stall_ns_(other.log_force_stall_ns_),
        last_read_lsn_(
            other.last_read_lsn_.load(std::memory_order_relaxed)) {}
  SimulatedDisk& operator=(SimulatedDisk&& other) noexcept {
    SetMasterRecord(other.master_record());
    base_lsn_ = other.base_lsn_;
    stats_ = other.stats_;
    pages_ = std::move(other.pages_);
    segments_ = std::move(other.segments_);
    log_random_read_stall_ns_ = other.log_random_read_stall_ns_;
    log_force_stall_ns_ = other.log_force_stall_ns_;
    last_read_lsn_.store(
        other.last_read_lsn_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  // --- stable pages ---

  /// Writes a serialized page image durably.
  Status WritePage(PageId id, std::string image);

  /// Reads a page image; NotFound if the page was never written.
  Result<PageImage> ReadPage(PageId id) const;

  bool HasPage(PageId id) const {
    std::lock_guard lock(pages_mu_);
    return pages_.contains(id);
  }

  /// Ids of every page ever written (for snapshot loading).
  std::vector<PageId> StablePageIds() const;

  /// Snapshot of all stable page images (backups, anchored reenactment).
  /// The images are shared, not copied, and later writes do not move the
  /// snapshot. Not counted as page I/O: backups stream the device, not the
  /// database path.
  PageImages ClonePages() const {
    std::lock_guard lock(pages_mu_);
    return pages_;
  }

  /// Replaces the stable pages wholesale (restore from backup).
  void RestorePages(PageImages pages) {
    std::lock_guard lock(pages_mu_);
    pages_ = std::move(pages);
  }

  /// Media failure: the stable pages are lost; the (separately stored) log
  /// survives.
  void ClearPages() {
    std::lock_guard lock(pages_mu_);
    pages_.clear();
  }

  // --- persistence ---

  /// Serializes the entire stable state (pages, log, master record,
  /// archive base) to a file, CRC-guarded. The in-memory "simulated" disk
  /// thereby becomes durable across process exits.
  Status SaveTo(const std::string& path) const;

  /// Loads stable state saved by SaveTo. `stats` must outlive the disk.
  static Result<SimulatedDisk> LoadFrom(const std::string& path,
                                        Stats* stats);

  // --- stable log ---

  /// Appends go to the last segment while it stays within this many bytes;
  /// a record larger than a segment gets a segment of its own.
  static constexpr size_t kLogSegmentBytes = size_t{64} << 10;

  /// Appends one serialized record; it receives LSN `stable_end_lsn() + 1`.
  /// A batch of appends ends with one ForceLog.
  void AppendLogRecord(std::string_view record);

  /// The force that ends a batch of appends (counted in `log_flushes`). It
  /// is charged the configured device stall (see set_log_force_stall_ns).
  /// When `stall_ns` is provided the charge is returned for the caller to
  /// pay — the log manager pays it outside its tail lock so appenders keep
  /// running during the force; otherwise the disk stalls in place.
  void ForceLog(uint64_t* stall_ns = nullptr);

  /// AppendLogRecord for each record, then one ForceLog.
  void AppendLogRecords(const std::vector<std::string>& records,
                        uint64_t* stall_ns = nullptr);

  /// LSN of the last durable record; 0 if the stable log is empty.
  Lsn stable_end_lsn() const {
    return segments_.empty() ? base_lsn_ : segments_.back().last();
  }

  /// Segments holding the retained log (the first may also hold archived
  /// records, which stay until its last record is archived).
  size_t log_segment_count() const { return segments_.size(); }

  /// First LSN still present (older records were archived); equals
  /// kFirstLsn until ArchiveLogPrefix runs.
  Lsn first_retained_lsn() const { return base_lsn_ + 1; }

  /// Archives every record with LSN < keep_from: they read as NotFound
  /// from then on, and each segment whose records are all archived is
  /// dropped, so the cost grows with the segments dropped. Returns the
  /// number of records archived. The caller (Database::ArchiveLog) is
  /// responsible for proving recovery will never need them again.
  uint64_t ArchiveLogPrefix(Lsn keep_from);

  /// Positions an EMPTY log so the next appended record receives LSN
  /// `base + 1` (standby replicas seeded from a backup start mid-stream).
  Status SetLogBase(Lsn base);

  /// Reads the durable record with the given LSN. Classifies the read as
  /// sequential if it is adjacent (either direction) to the previous read,
  /// random otherwise — recovery sweeps are sequential, chain-following
  /// jumps are random.
  ///
  /// A random read is charged the configured seek stall (see
  /// set_log_random_read_stall_ns). When `stall_ns` is provided the charge
  /// is returned for the caller to pay — the log manager pays it outside
  /// its lock so concurrent recovery workers overlap their seeks;
  /// otherwise the disk stalls in place.
  Result<std::string> ReadLogRecord(Lsn lsn,
                                    uint64_t* stall_ns = nullptr) const;

  /// Run read, the sequential scan's half of ReadLogRecord: appends the
  /// images of the durable records [first, last] to `bytes` (one copy per
  /// segment the run crosses) and the offset just past each to `ends`. It
  /// counts nothing: the reader accounts each record as it consumes it,
  /// through NoteLogRead or CountLogRead. Precondition: the whole run is
  /// retained and durable.
  void ReadLogRun(Lsn first, Lsn last, std::string* bytes,
                  std::vector<uint32_t>* ends) const;

  /// ReadLogRecord's accounting for one read of `lsn`, whose image is
  /// `bytes` long, by a reader that took it from a run read: classified
  /// (NoteLogRead), counted, and a random read's seek stall returned in
  /// `stall_ns` or paid in place.
  void CountLogRead(Lsn lsn, size_t bytes, uint64_t* stall_ns = nullptr) const;

  /// ReadLogRecord's access classification for one read of `lsn`: true
  /// (sequential) when it is adjacent to the previous read, in either
  /// direction, and the read position moves to `lsn`. The caller counts the
  /// read and pays the seek stall of a random one.
  bool NoteLogRead(Lsn lsn) const {
    const Lsn last = last_read_lsn_.exchange(lsn, std::memory_order_relaxed);
    return last != kInvalidLsn &&
           (lsn == last + 1 || lsn + 1 == last || lsn == last);
  }

  /// Simulated seek penalty per random (non-adjacent) log-record read, in
  /// nanoseconds; 0 (the default) disables stalling. Sequential scans are
  /// always free — the access-pattern asymmetry the paper's evaluation is
  /// built on, made wall-clock-visible for the parallel-restart benchmark.
  void set_log_random_read_stall_ns(uint64_t ns) {
    log_random_read_stall_ns_ = ns;
  }
  uint64_t log_random_read_stall_ns() const {
    return log_random_read_stall_ns_;
  }

  /// Simulated device stall per stable-log force (the fsync barrier), in
  /// nanoseconds; 0 (the default) disables stalling. This is the latency
  /// group commit amortizes: one force covers every record in the batch
  /// regardless of how many committers are waiting on it.
  void set_log_force_stall_ns(uint64_t ns) { log_force_stall_ns_ = ns; }
  uint64_t log_force_stall_ns() const { return log_force_stall_ns_; }

  /// Overwrites a durable record. Only the history-rewriting baselines
  /// (Section 3.2's straw men) use this; ARIES/RH never does. Counted as a
  /// random write (`log_rewrites`). An image of the old length is patched
  /// in place; one of another length (the fields are varints) takes its own
  /// segment, splitting the one that held it around it, so no other
  /// record's bytes move.
  Status RewriteLogRecord(Lsn lsn, std::string record);

  /// Discards every durable record with LSN greater than `new_end`. Used by
  /// recovery after detecting a torn tail.
  void TruncateLog(Lsn new_end);

  /// Fault injection: corrupts the last `n` bytes of the final durable
  /// record, modeling a torn tail write. Recovery must detect and truncate.
  Status CorruptLogTail(size_t n);

  /// Drops the last durable record entirely (torn write that lost the
  /// whole sector).
  Status DropLastLogRecord();

  /// Master record: durable pointer to the most recent checkpoint's
  /// CKPT_END record (0 = no checkpoint). Atomic: the checkpoint daemon
  /// sets it while other threads (a backup, an observer) read it.
  void SetMasterRecord(Lsn ckpt_end) { master_record_.store(ckpt_end); }
  Lsn master_record() const { return master_record_.load(); }

  Stats* stats() const { return stats_; }

 private:
  std::atomic<Lsn> master_record_{0};
  Lsn base_lsn_ = 0;  ///< number of archived records (LSNs <= this are gone)
  Stats* stats_;
  /// Guards pages_. Not moved: a disk is moved only while nothing uses it.
  mutable std::mutex pages_mu_;
  PageImages pages_;

  /// Records [first, last()] stored back to back in `*bytes`, the first at
  /// `begin`. Appends extend only the last segment, whose records always
  /// end at the end of its buffer. The pieces of a segment a rewrite split
  /// share its buffer, each owning a disjoint range of it.
  struct LogSegment {
    std::shared_ptr<std::string> bytes;
    Lsn first = kInvalidLsn;
    uint32_t begin = 0;
    std::vector<uint32_t> ends;  ///< offset in *bytes just past each record

    Lsn last() const { return first + ends.size() - 1; }
    /// Offset in *bytes of record `i` (0-based within the segment).
    uint32_t start(size_t i) const { return i == 0 ? begin : ends[i - 1]; }
    std::string_view record(size_t i) const {
      return std::string_view(*bytes).substr(start(i), ends[i] - start(i));
    }
  };

  /// Index in segments_ of the segment holding retained record `lsn`.
  size_t SegmentOf(Lsn lsn) const;

  std::deque<LogSegment> segments_;  ///< the stable log, in LSN order
  uint64_t log_random_read_stall_ns_ = 0;
  uint64_t log_force_stall_ns_ = 0;
  mutable std::atomic<Lsn> last_read_lsn_{kInvalidLsn};
};

}  // namespace ariesrh

#endif  // ARIESRH_STORAGE_SIMULATED_DISK_H_
