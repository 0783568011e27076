// Instrumentation counters. The paper's efficiency argument (Section 4.2) is
// about *access patterns* — sequential vs. random stable-storage accesses,
// records examined vs. skipped — so the simulated devices and the recovery
// passes publish their activity through these counters, and the benchmark
// harness prints them as the reproduced "tables".
//
// Stats is a thin view over the obs::MetricsRegistry: once a Stats is
// attached to an engine's obs::Observability (AttachObservability), every
// field is backed by one registry-owned counter series (each shard of a
// sharded engine attaches under the label `shard="<i>"`; Totals() sums a
// family's series). An unattached Stats (unit tests, snapshots) uses
// field-local storage with the same semantics. Copying a Stats always
// yields a plain value snapshot — `Stats before = db.stats(); ...;
// db.stats().Delta(before)` keeps working unchanged.
//
// The field list lives in one X-macro so declaration, Delta, ToString, and
// registry binding can never drift apart; to add a counter, add one line.

#ifndef ARIESRH_UTIL_STATS_H_
#define ARIESRH_UTIL_STATS_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

namespace ariesrh {

namespace obs {
class EventTrace;
class MetricsRegistry;
struct Observability;
}  // namespace obs

/// X(group, field, label): `group` batches fields into one ToString line,
/// `field` is the member name, `label` its rendering inside the group.
/// The registry metric name is "ariesrh_" + field.
#define ARIESRH_STATS_FIELDS(X)                                         \
  /* --- simulated stable log --- */                                    \
  X(log, log_appends, "appends")           /* records appended */       \
  X(log, log_bytes_appended, "bytes")                                   \
  X(log, log_flushes, "flushes")           /* forced flushes */         \
  X(log, log_group_forces, "group_forces") /* flusher-thread forces */  \
  X(log, log_seq_reads, "seq_reads")       /* in-order record reads */  \
  X(log, log_random_reads, "random_reads") /* out-of-order (seek) */    \
  X(log, log_rewrites, "rewrites")         /* in-place (baselines) */   \
  X(log, log_bytes_read, "bytes_read")                                  \
  /* --- simulated stable pages --- */                                  \
  X(pages, page_writes, "writes")                                       \
  X(pages, page_reads, "reads")                                         \
  /* --- buffer pool --- */                                             \
  X(cache, bp_hits, "hits")                                             \
  X(cache, bp_misses, "misses")                                         \
  /* --- lock manager --- */                                            \
  X(locks, lock_acquires, "acquires")                                   \
  X(locks, lock_conflicts, "conflicts") /* requests answered kBusy */   \
  X(locks, lock_transfers, "transfers") /* delegation lock moves */     \
  X(locks, lock_permits, "permits")                                     \
  /* --- transactions --- */                                            \
  X(txns, txns_begun, "begun")                                          \
  X(txns, txns_committed, "committed")                                  \
  X(txns, txns_aborted, "aborted")                                      \
  X(txns, txns_reaped, "reaped") /* dropped from the table by a ckpt */ \
  /* --- recovery --- */                                                \
  X(recovery, recovery_forward_records, "fwd_records")                  \
  X(recovery, recovery_backward_examined, "bwd_examined")               \
  X(recovery, recovery_backward_skipped, "bwd_skipped")   /* sought over */ \
  X(recovery, recovery_backward_read_through, "bwd_read_through") /* gaps */ \
  X(recovery, recovery_undos, "undos")                                  \
  X(recovery, recovery_redos, "redos")                                  \
  X(recovery, recovery_passes, "passes")                                \
  X(recovery, ondemand_redo_pages, "ondemand_pages")   /* lazily drained */ \
  X(recovery, ondemand_redo_records, "ondemand_records")                \
  /* --- checkpoints & log retention --- */                             \
  X(checkpoint, checkpoints_taken, "taken")                             \
  X(checkpoint, archived_records, "archived_records")                   \
  X(checkpoint, checkpoint_pages_written, "pages_written") /* write-back */ \
  /* --- delegation --- */                                              \
  X(delegation, delegations, "delegations")                             \
  X(delegation, scopes_transferred, "scopes_transferred")               \
  /* --- workload scheduler --- */                                      \
  X(workload, sched_busy_events, "busy_events")                         \
  X(workload, sched_restarts, "restarts")                               \
  /* --- table layer --- */                                             \
  X(table, table_ops, "ops")            /* all table operations */      \
  X(table, table_puts, "puts")                                          \
  X(table, table_gets, "gets")                                          \
  X(table, table_deletes, "deletes")                                    \
  X(table, table_scans, "scans")                                        \
  X(table, table_relocations, "relocations") /* record moved pages */ \
  X(table, table_bucket_loads, "bucket_loads") /* chains loaded on touch */

/// One Stats field: a relaxed-atomic counter cell that behaves like a plain
/// uint64_t (implicit conversion, ++, +=) so every existing call site
/// compiles unchanged. Unbound, the value lives in the cell itself; bound
/// (via Stats::AttachObservability) it lives in a registry-owned Counter.
/// Copies are always plain value snapshots, never shared bindings.
class StatCounter {
 public:
  StatCounter() = default;
  StatCounter(uint64_t v) : local_(v) {}  // NOLINT: implicit by design
  StatCounter(const StatCounter& other) : local_(other.value()) {}
  StatCounter& operator=(const StatCounter& other) {
    cell()->store(other.value(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(uint64_t v) {
    cell()->store(v, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const { return value(); }  // NOLINT: implicit by design
  uint64_t value() const { return cell()->load(std::memory_order_relaxed); }

  StatCounter& operator++() {
    cell()->fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(uint64_t delta) {
    cell()->fetch_add(delta, std::memory_order_relaxed);
    return *this;
  }

  /// Redirects this field onto a registry-owned cell, folding any value
  /// accumulated so far into it.
  void Bind(std::atomic<uint64_t>* external) {
    external->fetch_add(local_.exchange(0, std::memory_order_relaxed),
                        std::memory_order_relaxed);
    bound_ = external;
  }

 private:
  std::atomic<uint64_t>* cell() { return bound_ != nullptr ? bound_ : &local_; }
  const std::atomic<uint64_t>* cell() const {
    return bound_ != nullptr ? bound_ : &local_;
  }

  std::atomic<uint64_t> local_{0};
  std::atomic<uint64_t>* bound_ = nullptr;
};

inline std::ostream& operator<<(std::ostream& os, const StatCounter& c) {
  return os << c.value();
}

/// Counters describing work done by the simulated stable storage and the
/// recovery algorithms. Benchmarks snapshot and subtract; the engine's
/// instance is attached to its obs::Observability and doubles as the
/// components' handle to the event trace and latency histograms.
struct Stats {
#define ARIESRH_STATS_DECLARE_FIELD(group, field, label) StatCounter field;
  ARIESRH_STATS_FIELDS(ARIESRH_STATS_DECLARE_FIELD)
#undef ARIESRH_STATS_DECLARE_FIELD

  Stats() = default;
  /// Copies are value snapshots: counter values transfer, the registry
  /// binding and trace handle do not.
  Stats(const Stats& other);
  Stats& operator=(const Stats& other);

  /// Per-field difference (this - base); used to measure one operation.
  Stats Delta(const Stats& base) const;

  /// Multi-line human-readable rendering.
  std::string ToString() const;

  /// Rebinds every field onto the series `ariesrh_<field>{labels}` and
  /// exposes `obs`'s trace/registry to components holding this Stats*.
  /// Call once, at engine construction, before any counting.
  void AttachObservability(obs::Observability* obs,
                           const std::string& labels = "");

  /// Engine-wide values: each field sums its family's series.
  static Stats Totals(const obs::MetricsRegistry& registry);

  /// The attached engine's event trace / metrics registry; nullptr for an
  /// unattached Stats (unit-test locals, snapshots).
  obs::EventTrace* trace() const;
  obs::MetricsRegistry* registry() const;

 private:
  obs::Observability* obs_ = nullptr;
};

}  // namespace ariesrh

#endif  // ARIESRH_UTIL_STATS_H_
