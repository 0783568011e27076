#include "reenact/reenact.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "core/database.h"
#include "core/engine_shard.h"
#include "obs/clock.h"
#include "recovery/recovery_manager.h"
#include "storage/page.h"
#include "table/heap_page.h"
#include "wal/log_record.h"

namespace ariesrh::reenact {

namespace {

/// Scratch pool capacity. Reenactment folds are single-threaded and the
/// pool evicts through a no-op WAL hook, so the only cost of a small pool
/// is extra page I/O against the scratch disk — 256 frames keeps typical
/// test histories fully resident.
constexpr size_t kScratchPoolFrames = 256;

/// Merges every non-zero cell of one shard into `out`, reading each page
/// where it is (a pool frame, or the stable image of a page the pool does
/// not hold) and writing nothing back. StateAt and the oracle's
/// CaptureCommittedState share it, so their images compare byte-for-byte.
Status ExtractObjects(BufferPool* pool, StateImage* out) {
  return pool->ForEachPage(table::kHeapPageBase, [out](const Page& page) {
    for (uint32_t slot = 0; slot < kObjectsPerPage; ++slot) {
      const int64_t value = page.Get(slot);
      if (value == 0) continue;  // zero == never written (canonical)
      out->objects[static_cast<ObjectId>(page.id()) * kObjectsPerPage +
                   slot] = value;
    }
  });
}

/// True for record types that change database state when replayed forward.
bool IsStateRecord(LogRecordType type) {
  return type == LogRecordType::kUpdate || type == LogRecordType::kClr ||
         IsTableRecord(type);
}

/// Collects matching trace-ring events as human-readable citations — the
/// online complement of the log-derived answer (live opens only).
void CiteTrace(const obs::EventTrace* trace, ResponsibilityAnswer* ans) {
  if (trace == nullptr) return;
  for (const obs::TraceEvent& ev : trace->Snapshot()) {
    bool cite = false;
    switch (ev.type) {
      case obs::TraceEventType::kLogAppend:
        cite = ans->value_lsn != kInvalidLsn && ev.a == ans->value_lsn;
        break;
      case obs::TraceEventType::kTxnCommit:
        cite = ans->responsible != kInvalidTxn && ev.a == ans->responsible;
        break;
      case obs::TraceEventType::kDelegate:
        for (const TransferHop& hop : ans->chain) {
          if (ev.a == hop.from && ev.b == hop.to) {
            cite = true;
            break;
          }
        }
        break;
      default:
        break;
    }
    if (cite) {
      std::ostringstream os;
      os << "trace#" << ev.seq << " " << obs::TraceEventTypeName(ev.type)
         << " a=" << ev.a << " b=" << ev.b << " c=" << ev.c;
      ans->trace_citations.push_back(os.str());
    }
  }
}

}  // namespace

// --- StateImage ---

int64_t StateImage::ValueOf(ObjectId ob) const {
  auto it = objects.find(ob);
  return it == objects.end() ? 0 : it->second;
}

std::optional<std::string> StateImage::RecordOf(const std::string& key) const {
  auto it = records.find(key);
  if (it == records.end()) return std::nullopt;
  return it->second;
}

std::string StateImage::Serialize() const {
  // std::map iteration is key-ordered, so the rendering is deterministic;
  // sizes prefix the sections and length-prefixes guard keys/values that
  // contain the separators.
  std::ostringstream os;
  os << "objects " << objects.size() << "\n";
  for (const auto& [ob, value] : objects) os << ob << "=" << value << "\n";
  os << "records " << records.size() << "\n";
  for (const auto& [key, value] : records) {
    os << key.size() << ":" << key << "=" << value.size() << ":" << value
       << "\n";
  }
  return os.str();
}

std::string StateImage::ToString() const {
  std::ostringstream os;
  os << "state image: " << objects.size() << " objects, " << records.size()
     << " records";
  if (!cuts.empty()) {
    os << " (cut";
    for (size_t i = 0; i < cuts.size(); ++i) {
      os << (i == 0 ? " " : "/") << "shard" << i << "@" << cuts[i];
    }
    os << ")";
  }
  return os.str();
}

// --- ResponsibilityAnswer ---

std::string ResponsibilityAnswer::ToString() const {
  std::ostringstream os;
  if (!key.empty()) {
    os << "key \"" << key << "\" (rid " << object << ")";
  } else {
    os << "object " << object;
  }
  os << " shard" << shard << " cut=" << cut << ": ";
  if (value_lsn == kInvalidLsn) {
    os << "no surviving write at or before the cut";
  } else {
    os << "value written at lsn " << value_lsn << " by txn " << writer;
  }
  if (responsible != kInvalidTxn) {
    os << "; responsible: txn " << responsible
       << (responsible_committed
               ? " (committed)"
               : responsible_terminated ? " (rolled back)" : " (open)");
    if (delegated) os << " [delegated]";
  }
  for (const TransferHop& hop : chain) os << "\n  hop: " << hop.ToString();
  for (const std::string& cite : trace_citations) os << "\n  " << cite;
  return os.str();
}

// --- ReplayResult ---

std::string ReplayResult::ToString() const {
  std::ostringstream os;
  os << "txn " << txn << " reenacted: " << records_applied << " records";
  for (const auto& [shard, first] : begin_lsns) {
    os << " [shard" << shard << " from lsn " << first << "]";
  }
  for (const auto& [ob, images] : objects) {
    os << "\n  object " << ob << ": " << images.first << " -> "
       << images.second;
  }
  for (const auto& [key, images] : records) {
    os << "\n  key \"" << key << "\": "
       << (images.first ? "\"" + *images.first + "\"" : "<absent>") << " -> "
       << (images.second ? "\"" + *images.second + "\"" : "<absent>");
  }
  return os.str();
}

// --- Reenactor: opening ---

Status Reenactor::CheckMode(const Options& options) {
  if (options.delegation_mode == DelegationMode::kRH ||
      options.delegation_mode == DelegationMode::kDisabled) {
    return Status::OK();
  }
  return Status::NotSupported(
      "reenactment requires an append-only log (kRH or kDisabled); the "
      "history-rewriting baselines destroy the record of who did what");
}

Status Reenactor::InitShardSource(const Options& options, ShardSource* src) {
  src->tail = src->log->flushed_lsn();
  src->first_retained = src->log->first_retained_lsn();
  if (src->first_retained <= kFirstLsn) {
    // Full log retained: every cut from the dawn of history replays from an
    // empty state, so checkpoints are irrelevant and any cut is admissible.
    src->earliest = 0;
    return Status::OK();
  }
  // Log prefix archived: replay must anchor at the master checkpoint over a
  // snapshot of the stable pages, exactly as restart would.
  CheckpointData ckpt;
  ARIESRH_ASSIGN_OR_RETURN(
      Lsn ckpt_end, RecoveryManager::LocateCheckpoint(options, src->disk_view,
                                                      src->log, &ckpt));
  if (ckpt_end == 0) {
    return Status::IllegalState(
        "log prefix before LSN " + std::to_string(src->first_retained) +
        " is archived but no usable checkpoint exists; the history cannot "
        "be replayed");
  }
  src->anchored = true;
  src->ckpt = std::move(ckpt);
  src->ckpt_end_lsn = ckpt_end;
  src->base_pages = src->disk_view->ClonePages();
  // The base pages may already reflect records past CKPT_END (STEAL writes
  // back whenever it likes), and the page-LSN redo check cannot "un-apply"
  // them for an earlier cut. The earliest honest cut is therefore the
  // newest thing the anchor already reflects. Each page's LSN comes from
  // its header, CRC-checked, so a corrupt base page still fails the open.
  Lsn earliest = ckpt_end;
  for (const auto& [id, image] : src->base_pages) {
    ARIESRH_ASSIGN_OR_RETURN(const Lsn page_lsn,
                             id >= table::kHeapPageBase
                                 ? table::HeapPage::PeekLsn(*image)
                                 : Page::PeekLsn(*image));
    earliest = std::max(earliest, page_lsn);
  }
  src->earliest = earliest;
  return Status::OK();
}

Result<Reenactor> Reenactor::OpenArchive(const Options& options,
                                         const std::string& path) {
  ARIESRH_RETURN_IF_ERROR(options.Validate());
  ARIESRH_RETURN_IF_ERROR(CheckMode(options));
  Reenactor r(options);
  for (size_t i = 0; i < options.num_shards; ++i) {
    auto src = std::make_unique<ShardSource>();
    src->stats = std::make_unique<Stats>();
    ARIESRH_ASSIGN_OR_RETURN(
        SimulatedDisk loaded,
        SimulatedDisk::LoadFrom(Database::ShardImagePath(path, i),
                                src->stats.get()));
    src->disk = std::make_unique<SimulatedDisk>(std::move(loaded));
    ARIESRH_RETURN_IF_ERROR(RecoveryManager::TruncateTornTail(src->disk.get()));
    src->log_owner =
        std::make_unique<LogManager>(src->disk.get(), src->stats.get());
    src->log = src->log_owner.get();
    src->disk_view = src->disk.get();
    ARIESRH_RETURN_IF_ERROR(InitShardSource(options, src.get()));
    r.shards_.push_back(std::move(src));
  }
  // The coordinator sidecar: absent reads as empty, which is presumed
  // abort — exactly what restart does.
  coord::CoordinatorLog sidecar;
  ARIESRH_RETURN_IF_ERROR(sidecar.LoadSidecar(path + ".coord"));
  r.resolution_ = sidecar.resolution();
  return r;
}

Result<Reenactor> Reenactor::OpenLive(Database* db) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (db->NeedsRecovery()) {
    return Status::IllegalState(
        "database needs recovery; recover it first or reenact its saved "
        "image");
  }
  Options options = db->options();
  options.num_shards = db->num_shards();
  ARIESRH_RETURN_IF_ERROR(CheckMode(options));
  Reenactor r(std::move(options));
  for (size_t i = 0; i < db->num_shards(); ++i) {
    auto src = std::make_unique<ShardSource>();
    src->log = db->shard(i)->log_manager();
    src->disk_view = db->shard(i)->disk();
    ARIESRH_RETURN_IF_ERROR(InitShardSource(r.options_, src.get()));
    r.shards_.push_back(std::move(src));
  }
  if (db->coordinator_log() != nullptr) {
    r.resolution_ = db->coordinator_log()->resolution();
  }
  r.registry_ = db->metrics();
  r.trace_ = db->trace();
  return r;
}

Result<Reenactor> Reenactor::OpenQuiescentDisks(
    const Options& options, const std::vector<SimulatedDisk*>& disks,
    coord::Resolution resolution) {
  ARIESRH_RETURN_IF_ERROR(options.Validate());
  ARIESRH_RETURN_IF_ERROR(CheckMode(options));
  if (disks.empty()) return Status::InvalidArgument("no disks to reenact");
  Reenactor r(options);
  for (SimulatedDisk* disk : disks) {
    if (disk == nullptr) return Status::InvalidArgument("null disk");
    auto src = std::make_unique<ShardSource>();
    src->stats = std::make_unique<Stats>();
    src->log_owner = std::make_unique<LogManager>(disk, src->stats.get());
    src->log = src->log_owner.get();
    src->disk_view = disk;
    ARIESRH_RETURN_IF_ERROR(InitShardSource(options, src.get()));
    r.shards_.push_back(std::move(src));
  }
  r.resolution_ = std::move(resolution);
  return r;
}

Lsn Reenactor::tail_lsn(size_t shard) const { return shards_[shard]->tail; }

Lsn Reenactor::earliest_lsn(size_t shard) const {
  return shards_[shard]->earliest;
}

// --- Reenactor: the fold ---

Status Reenactor::ClampCut(size_t shard, Lsn* cut) const {
  const ShardSource& src = *shards_[shard];
  if (*cut == kInvalidLsn || *cut > src.tail) *cut = src.tail;
  if (src.earliest != 0 && *cut < src.earliest) {
    return Status::OutOfRange(
        "cut " + std::to_string(*cut) + " on shard " + std::to_string(shard) +
        " precedes the earliest replayable LSN " +
        std::to_string(src.earliest) +
        " (the log prefix was archived; reopen a fuller archive or raise "
        "the cut)");
  }
  return Status::OK();
}

Result<Reenactor::ShardFold> Reenactor::FoldShard(size_t shard, Lsn cut,
                                                  bool materialize,
                                                  ObjectId track_ob,
                                                  const std::string* track_key) {
  ShardSource& src = *shards_[shard];
  ShardFold fold;
  fold.cut = cut;
  fold.stats = std::make_unique<Stats>();
  if (materialize) {
    // The scratch disk holds the base plain pages; the table reads the base
    // heap images where they are.
    fold.disk = std::make_unique<SimulatedDisk>(fold.stats.get());
    if (src.anchored) {
      PageImages plain;
      for (const auto& [id, image] : src.base_pages) {
        if (id < table::kHeapPageBase) plain.emplace(id, image);
      }
      fold.disk->RestorePages(std::move(plain));
    }
    // Nothing is ever logged by a reenactment fold, so the WAL hook is a
    // no-op: write-back ordering against a log we never write is vacuous.
    const WalFlushFn no_wal = [](Lsn) { return Status::OK(); };
    fold.pool = std::make_unique<BufferPool>(
        fold.disk.get(), kScratchPoolFrames, no_wal, fold.stats.get());
    fold.table =
        std::make_unique<FoldTable>(src.anchored ? &src.base_pages : nullptr);
  }

  OwnershipCollector collector(options_.delegation_mode);
  AnalysisHooks hooks;
  hooks.on_record = [&](const LogRecord& rec, bool applied, bool voided) {
    collector.OnRecord(rec, applied, voided);
    if (track_ob != kInvalidObject && rec.type == LogRecordType::kUpdate &&
        rec.object == track_ob) {
      fold.tracked.emplace_back(rec.lsn, rec.txn_id, rec.type);
    } else if (track_key != nullptr && IsTableWrite(rec.type) &&
               rec.key == *track_key) {
      fold.tracked.emplace_back(rec.lsn, rec.txn_id, rec.type);
    }
  };
  hooks.on_resolve = [&collector](const LogRecord& rec,
                                  const TxnAnalysis& info) {
    collector.OnResolve(rec, info);
  };

  ForwardPassOptions opts;
  opts.kind =
      materialize ? ForwardPassKind::kMerged : ForwardPassKind::kAnalysisOnly;
  opts.resolution = &resolution_;
  opts.table = fold.table.get();
  opts.scan_cut = cut;
  opts.hooks = &hooks;
  ARIESRH_ASSIGN_OR_RETURN(
      fold.fwd,
      ForwardPass(options_.delegation_mode, src.log, fold.pool.get(),
                  fold.stats.get(), src.anchored ? &src.ckpt : nullptr,
                  src.anchored ? src.ckpt_end_lsn : 0, opts));
  fold.ownership = collector.Finish(&fold.fwd, &resolution_, cut);
  for (TransferHop& hop : fold.ownership.hops) hop.shard = shard;
  if (!materialize) return fold;

  // Roll back every transaction open at the cut. Under kRH a loser answers
  // for every scope in its Ob_List (delegated-in updates included, possibly
  // older than its own first record); chain undo reaches back to each
  // loser's first record. Either bound must lie in the retained log.
  std::vector<UndoGroup> groups = BuildUndoGroups(fold.fwd, options_);
  Lsn stop = kInvalidLsn;
  for (const UndoGroup& group : groups) {
    for (const ScopeUndoTarget& target : group.targets) {
      stop = std::min(stop, target.scope.first);
    }
    if (!group.targets.empty()) continue;
    for (const auto& [txn, head] : group.heads) {
      stop = std::min(stop, fold.fwd.txns.at(txn).first_lsn);
    }
  }
  if (stop != kInvalidLsn && stop < src.first_retained) {
    return Status::OutOfRange(
        "rolling back transactions open at the cut needs LSN " +
        std::to_string(stop) + ", archived before the retained head LSN " +
        std::to_string(src.first_retained));
  }
  ScratchUndoSink sink(fold.pool.get(), fold.table.get());
  ARIESRH_RETURN_IF_ERROR(UndoGroups(options_, fold.fwd, &groups, src.log,
                                     fold.stats.get(), &sink));
  return fold;
}

// --- Reenactor: queries ---

Result<StateImage> Reenactor::StateAt(Lsn cut) {
  const uint64_t start_ns = obs::MonotonicNanos();
  StateImage img;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    Lsn eff = cut;
    ARIESRH_RETURN_IF_ERROR(ClampCut(shard, &eff));
    ARIESRH_ASSIGN_OR_RETURN(ShardFold fold,
                             FoldShard(shard, eff, /*materialize=*/true));
    ARIESRH_RETURN_IF_ERROR(ExtractObjects(fold.pool.get(), &img));
    ARIESRH_RETURN_IF_ERROR(fold.table->ExtractInto(&img.records));
    img.cuts.push_back(eff);
  }
  ObserveQuery(start_ns);
  return img;
}

Result<ResponsibilityAnswer> Reenactor::ResponsibleFor(ObjectId ob, Lsn cut) {
  return ResolveResponsibility(ob, nullptr, cut);
}

Result<ResponsibilityAnswer> Reenactor::ResponsibleForKey(
    const std::string& key, Lsn cut) {
  return ResolveResponsibility(table::TableRid(key), &key, cut);
}

Result<ResponsibilityAnswer> Reenactor::ResolveResponsibility(
    ObjectId ob, const std::string* key, Lsn cut) {
  const uint64_t start_ns = obs::MonotonicNanos();
  ResponsibilityAnswer ans;
  ans.object = ob;
  if (key != nullptr) ans.key = *key;
  ans.shard = ShardOf(ob);
  Lsn eff = cut;
  ARIESRH_RETURN_IF_ERROR(ClampCut(ans.shard, &eff));
  ans.cut = eff;
  ARIESRH_ASSIGN_OR_RETURN(
      ShardFold fold,
      FoldShard(ans.shard, eff, /*materialize=*/false,
                key == nullptr ? ob : kInvalidObject, key));

  // The value at the cut is the last forward write no CLR at or before the
  // cut had compensated.
  for (auto it = fold.tracked.rbegin(); it != fold.tracked.rend(); ++it) {
    const Lsn lsn = std::get<0>(*it);
    if (fold.fwd.compensated.contains(lsn)) continue;
    ans.value_lsn = lsn;
    ans.writer = std::get<1>(*it);
    break;
  }

  if (ans.value_lsn != kInvalidLsn) {
    const OwnedSpan* span =
        fold.ownership.Resolve(ob, ans.writer, ans.value_lsn);
    if (span != nullptr) {
      ans.responsible = span->owner;
      ans.responsible_committed = span->owner_committed;
      ans.responsible_terminated = span->owner_terminated;
    } else {
      // No covering scope: under kDisabled no scopes exist, and under kRH
      // a committed owner's spans freeze at its COMMIT — a write with no
      // span in the retained fold answers to its own invoker.
      ans.responsible = ans.writer;
      auto it = fold.fwd.txns.find(ans.writer);
      if (it != fold.fwd.txns.end()) {
        ans.responsible_committed = it->second.committed;
        ans.responsible_terminated =
            it->second.committed || it->second.ended;
      } else {
        // Terminated and forgotten before the retained range: a surviving
        // write implies it committed (losers' writes are compensated).
        ans.responsible_committed = true;
        ans.responsible_terminated = true;
      }
    }
  } else {
    // No retained write (e.g. the value predates an archived prefix): the
    // best the retained history can say is the newest span mentioning the
    // object.
    const OwnedSpan* best = nullptr;
    for (const OwnedSpan& span : fold.ownership.spans) {
      if (span.object != ob) continue;
      if (best == nullptr || span.scope.last > best->scope.last) best = &span;
    }
    if (best != nullptr) {
      ans.writer = best->scope.invoker;
      ans.responsible = best->owner;
      ans.responsible_committed = best->owner_committed;
      ans.responsible_terminated = best->owner_terminated;
    }
  }
  ans.delegated =
      ans.responsible != kInvalidTxn && ans.responsible != ans.writer;

  for (const TransferHop& hop : fold.ownership.hops) {
    if (hop.Mentions(ob)) ans.chain.push_back(hop);
  }
  ARIESRH_ASSIGN_OR_RETURN(std::vector<TransferHop> peers,
                           PeerLegs(ans.shard, ans.chain));
  ans.chain.insert(ans.chain.end(), peers.begin(), peers.end());

  CiteTrace(trace_, &ans);
  ObserveQuery(start_ns);
  return ans;
}

Result<std::vector<TransferHop>> Reenactor::PeerLegs(
    size_t home_shard, const std::vector<TransferHop>& home_hops) {
  std::vector<TransferHop> peers;
  if (shards_.size() <= 1) return peers;
  std::set<uint64_t> csns;
  for (const TransferHop& hop : home_hops) {
    if (hop.csn != 0) csns.insert(hop.csn);
  }
  if (csns.empty()) return peers;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (shard == home_shard) continue;
    Lsn eff = kInvalidLsn;
    ARIESRH_RETURN_IF_ERROR(ClampCut(shard, &eff));
    ARIESRH_ASSIGN_OR_RETURN(ShardFold fold,
                             FoldShard(shard, eff, /*materialize=*/false));
    for (const TransferHop& hop : fold.ownership.hops) {
      if (hop.csn != 0 && csns.contains(hop.csn)) peers.push_back(hop);
    }
  }
  return peers;
}

Result<std::vector<TransferHop>> Reenactor::ChainFor(ObjectId ob) {
  const uint64_t start_ns = obs::MonotonicNanos();
  const size_t home = ShardOf(ob);
  Lsn eff = kInvalidLsn;
  ARIESRH_RETURN_IF_ERROR(ClampCut(home, &eff));
  ARIESRH_ASSIGN_OR_RETURN(ShardFold fold,
                           FoldShard(home, eff, /*materialize=*/false));
  std::vector<TransferHop> chain;
  for (const TransferHop& hop : fold.ownership.hops) {
    if (hop.Mentions(ob)) chain.push_back(hop);
  }
  ARIESRH_ASSIGN_OR_RETURN(std::vector<TransferHop> peers,
                           PeerLegs(home, chain));
  chain.insert(chain.end(), peers.begin(), peers.end());
  ObserveQuery(start_ns);
  return chain;
}

Result<std::vector<TransferHop>> Reenactor::TransferChain(ObjectId ob) {
  return ChainFor(ob);
}

Result<std::vector<TransferHop>> Reenactor::TransferChainKey(
    const std::string& key) {
  return ChainFor(table::TableRid(key));
}

Result<ReplayResult> Reenactor::ReplayTxn(TxnId txn, Lsn cut) {
  const uint64_t start_ns = obs::MonotonicNanos();
  if (txn == kInvalidTxn) return Status::InvalidArgument("invalid txn id");
  ReplayResult out;
  out.txn = txn;
  bool found = false;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    ShardSource& src = *shards_[shard];
    Lsn eff = cut;
    ARIESRH_RETURN_IF_ERROR(ClampCut(shard, &eff));
    if (src.anchored) {
      // A transaction already active at the anchoring checkpoint began
      // before the retained history — its full effect cannot be reenacted.
      for (const auto& snap : src.ckpt.active_txns) {
        if (snap.id != txn) continue;
        return Status::OutOfRange(
            "transaction " + std::to_string(txn) +
            " begins before the archived log prefix on shard " +
            std::to_string(shard) + "; open a fuller archive to replay it");
      }
    }

    Lsn first = kInvalidLsn;
    std::vector<LogRecord> mine;
    LogCursor cursor(*src.log, src.first_retained, eff);
    while (cursor.Next()) {
      const LogRecord& rec = cursor.record();
      if (rec.txn_id != txn) continue;
      if (first == kInvalidLsn) first = cursor.lsn();
      if (IsStateRecord(rec.type)) mine.push_back(rec);
    }
    ARIESRH_RETURN_IF_ERROR(cursor.status());
    if (first == kInvalidLsn) continue;
    found = true;
    out.begin_lsns[shard] = first;
    if (mine.empty()) continue;

    // Base: the committed state at the begin point. A fold at the first
    // record's LSN classifies the transaction itself (and everything else
    // still open there) as a loser, so the base excludes their effects.
    Lsn base_cut = first;
    ARIESRH_RETURN_IF_ERROR(ClampCut(shard, &base_cut));
    ARIESRH_ASSIGN_OR_RETURN(ShardFold fold,
                             FoldShard(shard, base_cut, /*materialize=*/true));

    std::set<ObjectId> touched_objects;
    std::set<std::string> touched_keys;
    for (const LogRecord& rec : mine) {
      if (rec.type == LogRecordType::kUpdate ||
          rec.type == LogRecordType::kClr) {
        touched_objects.insert(rec.object);
      } else {
        touched_keys.insert(rec.key);
      }
    }
    for (ObjectId touched : touched_objects) {
      ARIESRH_ASSIGN_OR_RETURN(Page * page, fold.pool->Fetch(PageOf(touched)));
      out.objects[touched] = {page->Get(SlotOf(touched)), 0};
    }
    for (const std::string& touched : touched_keys) {
      ARIESRH_ASSIGN_OR_RETURN(std::optional<std::string> before,
                               fold.table->Read(touched));
      out.records[touched] = {std::move(before), std::nullopt};
    }

    // Reenact only this transaction's records, in log order, CLRs included
    // (a partial rollback replays as it happened).
    for (const LogRecord& rec : mine) {
      ARIESRH_RETURN_IF_ERROR(ApplyRecordToPage(fold.pool.get(), rec,
                                                /*check_page_lsn=*/false,
                                                nullptr, fold.table.get()));
      ++out.records_applied;
    }

    for (ObjectId touched : touched_objects) {
      ARIESRH_ASSIGN_OR_RETURN(Page * page, fold.pool->Fetch(PageOf(touched)));
      out.objects[touched].second = page->Get(SlotOf(touched));
    }
    for (const std::string& touched : touched_keys) {
      ARIESRH_ASSIGN_OR_RETURN(out.records[touched].second,
                               fold.table->Read(touched));
    }
  }
  if (!found) {
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " left no records in the retained log");
  }
  ObserveQuery(start_ns);
  return out;
}

void Reenactor::ObserveQuery(uint64_t start_ns) const {
  if (registry_ == nullptr) return;
  registry_->GetCounter("ariesrh_reenact_queries")->Inc();
  registry_->GetHistogram("ariesrh_reenact_replay_ns")
      ->Observe(obs::MonotonicNanos() - start_ns);
}

// --- the oracle's side of the comparison ---

Result<StateImage> CaptureCommittedState(Database* db) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (db->NeedsRecovery()) {
    return Status::IllegalState("database needs recovery");
  }
  StateImage img;
  for (size_t s = 0; s < db->num_shards(); ++s) {
    EngineShard* shard = db->shard(s);
    ARIESRH_RETURN_IF_ERROR(ExtractObjects(shard->buffer_pool(), &img));
    // The live heap visits its records in key order, so each lands next to
    // the one before it (other shards' keys aside): the hint saves the map
    // a descent per record.
    auto hint = img.records.end();
    ARIESRH_RETURN_IF_ERROR(shard->table_heap()->ForEachRecord(
        "", [&](std::string_view key, std::string_view value) {
          hint = std::next(img.records.emplace_hint(hint, key, value));
          return true;
        }));
    img.cuts.push_back(shard->log_manager()->flushed_lsn());
  }
  return img;
}

}  // namespace ariesrh::reenact
