// Cross-shard coordinator: a tiny stable decision log plus the recovery-time
// resolution built from it.
//
// With num_shards > 1 each shard is a full engine with its own WAL, so a
// transaction (or a delegation) spanning shards has no single log whose one
// record can decide its fate. The coordinator supplies that single point:
// every cross-shard protocol round gets a fresh coordinator sequence number
// (csn), the participating shard logs carry csn-stamped PREPARE / DELEGATE
// records, and the round's commit point is the coordinator forcing a COMMIT
// record for that csn (presumed abort: no durable COMMIT means the round
// never happened). The log keeps the Resolution of its durable records —
// the committed-csn set each shard's recovery consults to resolve in-doubt
// transactions and void orphaned delegation legs — up to date as records
// become stable, so a restart reads it without decoding the log again. See
// docs/SHARDING.md for the full protocol.
//
// Thread safety: Append/Force/read accessors are safe under concurrent
// callers (one mutex — this log sees a handful of records per cross-shard
// round, never the per-update firehose the shard WALs absorb).

#ifndef ARIESRH_COORD_COORDINATOR_LOG_H_
#define ARIESRH_COORD_COORDINATOR_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/types.h"

namespace ariesrh::coord {

/// The decision a coordinator record carries for its csn.
enum class CoordRecordType : uint8_t {
  kPrepare = 1,  ///< round opened (bookkeeping; never forced on its own)
  kCommit = 2,   ///< the round's commit point once durable
  kAbort = 3,    ///< round explicitly abandoned (bookkeeping; presumed abort
                 ///< makes this advisory — its absence means the same thing)
};

/// What kind of cross-shard round the csn names.
enum class CoordRoundKind : uint8_t {
  kCommitTxn = 1,  ///< 2PC commit of one multi-shard transaction
  kDelegate = 2,   ///< two-party cross-shard responsibility transfer
};

const char* CoordRecordTypeName(CoordRecordType type);

/// One coordinator record. Self-describing so the decision log replays
/// without out-of-band state.
struct CoordRecord {
  uint64_t csn = 0;
  CoordRecordType type = CoordRecordType::kPrepare;
  CoordRoundKind kind = CoordRoundKind::kCommitTxn;
  TxnId txn = kInvalidTxn;   ///< committing txn, or the delegator
  TxnId txn2 = kInvalidTxn;  ///< the delegatee (kDelegate rounds only)
  std::vector<uint32_t> shards;  ///< participating shard indices

  /// Stable byte image with a trailing masked CRC-32C, mirroring the WAL
  /// record format so torn coordinator tails truncate the same way.
  std::string Serialize() const;
  static Result<CoordRecord> Deserialize(std::string_view image);

  /// What a resolution reads of a record.
  struct Verdict {
    CoordRecordType type = CoordRecordType::kPrepare;
    uint64_t csn = 0;
  };
  /// Checks an image exactly as Deserialize does, but keeps only its
  /// verdict: no shard list is built.
  static Result<Verdict> DeserializeVerdict(std::string_view image);

  std::string ToString() const;
};

/// The in-doubt verdicts recovery derives from the durable coordinator
/// records: a csn is committed iff a COMMIT record for it survived.
struct Resolution {
  std::vector<uint64_t> committed;  ///< ascending, each csn once
  uint64_t max_csn = 0;  ///< highest csn seen in any record (0 = none)

  /// The resolution of `records` distilled in one go; CoordinatorLog keeps
  /// the same value up to date record by record (Add).
  static Resolution FromRecords(const std::vector<CoordRecord>& records);

  /// Folds one durable record in.
  void Add(const CoordRecord::Verdict& verdict);

  bool IsCommitted(uint64_t csn) const;

  bool operator==(const Resolution&) const = default;
};

/// The coordinator's stable decision log. Same volatile-tail / durable-prefix
/// split as the shard WALs: Append buffers, Force makes the whole tail
/// durable (paying the configured device stall), SimulateCrash discards the
/// tail. The log is append-only and never pruned — cross-shard rounds are
/// rare and the records are a few dozen bytes, so retention is a non-issue
/// at this scale (documented trade-off in docs/SHARDING.md).
class CoordinatorLog {
 public:
  /// `registry` may be null (no metrics). `force_stall_ns` models the device
  /// latency of a coordinator force, typically Options::sim_log_force_ns.
  explicit CoordinatorLog(obs::MetricsRegistry* registry = nullptr,
                          uint64_t force_stall_ns = 0);

  /// Draws the next coordinator sequence number (never 0).
  uint64_t NextCsn() { return next_csn_.fetch_add(1); }

  /// Re-seeds the csn counter after recovery so restarted engines never
  /// reuse a csn that appears in the durable log.
  void SeedCsn(uint64_t next) { next_csn_.store(next == 0 ? 1 : next); }

  /// Appends to the volatile tail (not yet durable).
  void Append(const CoordRecord& record);

  /// Makes every appended record durable. A COMMIT record's Force is the
  /// commit point of its round. Concurrent forces overlap their stalls, and
  /// each returns only once every force carrying a record appended before
  /// the call has paid its stall.
  Status Force();

  /// Crash: discards the volatile tail; the durable prefix survives.
  void SimulateCrash();

  /// Durable records, in append order, decoded afresh (inspection and
  /// tests; restart reads resolution()).
  std::vector<CoordRecord> StableRecords() const;

  /// The verdicts of every durable record: equal to
  /// Resolution::FromRecords(StableRecords()), kept up to date by Force,
  /// AppendStableImages and LoadSidecar (recovery and reenactment input).
  Resolution resolution() const;

  /// Serialized durable images from index `from` (replication shipping).
  std::vector<std::string> StableImagesFrom(size_t from) const;

  /// Replays shipped images onto the durable prefix (standby side). Every
  /// image is checked first; a bad one admits none of them.
  Status AppendStableImages(const std::vector<std::string>& images);

  size_t stable_size() const;

  /// Writes the durable images to a sidecar file (`<db path>.coord`): a
  /// flat sequence of u32-LE-length-prefixed images.
  Status SaveSidecar(const std::string& path) const;

  /// Appends the images of a sidecar written by SaveSidecar to the durable
  /// prefix, in one read of the file. A missing file reads as empty — no
  /// durable cross-shard decisions, which resolves every in-doubt round by
  /// presumed abort. A truncated or corrupt image admits none of them.
  Status LoadSidecar(const std::string& path);

 private:
  /// Appends sidecar-framed images (`framed`) to the durable prefix once
  /// every one of them decodes; `source` names them in errors.
  Status AppendFramed(std::string_view framed, const std::string& source);
  /// Appends one image and folds its verdict into resolution_.
  void AppendStableLocked(std::string_view image,
                          const CoordRecord::Verdict& verdict);

  mutable std::mutex mu_;
  /// The durable images, framed as in the sidecar file, and where each
  /// frame starts.
  std::string stable_;
  std::vector<size_t> stable_starts_;
  Resolution resolution_;              ///< of the durable images
  std::vector<CoordRecord> volatile_;  ///< appended, not yet forced
  /// Forced-record counts: written_ records have been moved to stable_ by
  /// Force, the first durable_ of them have paid their force stall, and
  /// in_flight_ holds the first record of each force still stalling.
  uint64_t written_ = 0;
  uint64_t durable_ = 0;
  std::set<uint64_t> in_flight_;
  std::condition_variable durable_cv_;
  std::atomic<uint64_t> next_csn_{1};
  uint64_t force_stall_ns_ = 0;

  obs::Counter* appends_ = nullptr;
  obs::Counter* forces_ = nullptr;
  obs::Counter* commits_ = nullptr;
  obs::Counter* aborts_ = nullptr;
};

}  // namespace ariesrh::coord

#endif  // ARIESRH_COORD_COORDINATOR_LOG_H_
