#include "reenact/fold_table.h"

#include <algorithm>

#include "table/heap_page.h"

namespace ariesrh::reenact {

namespace {

Status PageCorruption(PageId id, const std::string& what) {
  return Status::Corruption("heap page " + std::to_string(id) + " " + what);
}

uint64_t KeyPrefix(std::string_view key) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < sizeof(prefix); ++i) {
    prefix = prefix << 8 |
             (i < key.size() ? static_cast<unsigned char>(key[i]) : 0u);
  }
  return prefix;
}

}  // namespace

Status FoldTable::ApplyLogical(const LogRecord& rec) {
  const table::RecordOp op = table::ReplayOpOf(rec.type, rec.table_remove);
  if (op == table::RecordOp::kNone) {
    return Status::IllegalState("not a table log record");
  }
  auto it = overlay_.lower_bound(rec.key);
  if (it == overlay_.end() || it->first != rec.key) {
    it = overlay_.emplace_hint(it, rec.key, std::nullopt);
  }
  if (op == table::RecordOp::kUpsert) {
    it->second.emplace(rec.after_image);
  } else {
    it->second.reset();
  }
  return Status::OK();
}

Result<std::optional<std::string>> FoldTable::Read(
    std::string_view key) const {
  std::vector<BaseRecord> chain;
  ARIESRH_RETURN_IF_ERROR(
      ReadBase(table::BucketOfRid(table::TableRid(key)), &chain));
  if (const auto it = overlay_.find(key); it != overlay_.end()) {
    return it->second;
  }
  const auto it = std::lower_bound(
      chain.begin(), chain.end(), key,
      [](const BaseRecord& rec, std::string_view k) { return rec.key < k; });
  if (it == chain.end() || it->key != key) {
    return std::optional<std::string>();
  }
  return std::optional<std::string>(it->value);
}

Status FoldTable::ExtractInto(std::map<std::string, std::string>* out) const {
  std::vector<BaseRecord> base;
  ARIESRH_RETURN_IF_ERROR(ReadBase(std::nullopt, &base));
  // Two runs in key order, merged. Each record lands next to the one before
  // it (other shards' keys aside), so the hint saves the map a descent.
  auto hint = out->end();
  const auto emit = [&](std::string_view key, std::string_view value) {
    hint = std::next(out->emplace_hint(hint, key, value));
  };
  auto rec = base.begin();
  for (const auto& [key, action] : overlay_) {
    for (; rec != base.end() && rec->key < key; ++rec) {
      emit(rec->key, rec->value);
    }
    // The overlay's action shadows the base record: an upsert replaces it,
    // a drop removes it.
    if (rec != base.end() && rec->key == key) ++rec;
    if (action) emit(key, *action);
  }
  for (; rec != base.end(); ++rec) emit(rec->key, rec->value);
  return Status::OK();
}

Status FoldTable::ReadBase(std::optional<size_t> bucket,
                           std::vector<BaseRecord>* out) const {
  if (base_ == nullptr) return Status::OK();
  for (const auto& [id, image] : *base_) {
    if (id < table::kHeapPageBase) continue;  // a plain fixed-cell page
    // Page ids encode their bucket (see TableHeap::Bucket).
    const size_t chain = (id - table::kHeapPageBase) % table::kTableBuckets;
    if (bucket.has_value() && chain != *bucket) continue;
    Result<table::HeapImageCursor> opened =
        table::HeapImageCursor::Open(*image);
    if (!opened.ok()) return PageCorruption(id, opened.status().message());
    table::HeapImageCursor& cursor = *opened;
    if (cursor.page_id() != id) {
      return PageCorruption(
          id, "holds the image of page " + std::to_string(cursor.page_id()));
    }
    while (cursor.Next()) {
      const size_t of = table::BucketOfRid(table::TableRid(cursor.key()));
      if (of != chain) {
        return PageCorruption(id, "of bucket " + std::to_string(chain) +
                                      " holds a key of bucket " +
                                      std::to_string(of));
      }
      out->push_back({KeyPrefix(cursor.key()), cursor.key(), cursor.value(),
                      id});
    }
    if (!cursor.status().ok()) {
      return PageCorruption(id, cursor.status().message());
    }
  }
  // Equal keys order by page, so a key stable twice names the later page of
  // its chain.
  std::sort(out->begin(), out->end(),
            [](const BaseRecord& a, const BaseRecord& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              const int order = a.key.compare(b.key);
              return order != 0 ? order < 0 : a.page < b.page;
            });
  for (size_t i = 1; i < out->size(); ++i) {
    if ((*out)[i].key == (*out)[i - 1].key) {
      return PageCorruption((*out)[i].page,
                            "holds a key already stable in its chain");
    }
  }
  return Status::OK();
}

}  // namespace ariesrh::reenact
