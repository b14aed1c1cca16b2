#include "storage/memory_store.h"

namespace remus::storage {

void memory_store::store(record_key key, const bytes& record) { put(key, record); }

void memory_store::put(record_key key, std::span<const std::uint8_t> record) {
  ++stores_;
  // operator[] inserts 0 for a fresh key; slot 0 is disambiguated by an
  // explicit key compare (a dead slot's area never matches).
  std::uint32_t& slot = index_[key];
  if (slot < records_.size() && records_[slot].key == key) {
    records_[slot].record.assign(record.begin(), record.end());  // reuses the buffer
    return;
  }
  slot = static_cast<std::uint32_t>(records_.size());
  records_.push_back({key, bytes(record.begin(), record.end())});
}

const bytes* memory_store::find(record_key key) const {
  const std::uint32_t* slot = index_.find(key);
  return slot == nullptr ? nullptr : &records_[*slot].record;
}

std::optional<bytes> memory_store::retrieve(record_key key) const {
  const bytes* record = find(key);
  if (record == nullptr) return std::nullopt;
  return *record;
}

void memory_store::for_each(record_area area,
                            const std::function<void(register_id, const bytes&)>& fn) const {
  for (const auto& e : records_) {
    if (e.key.area == area) fn(e.key.reg, e.record);
  }
}

void memory_store::for_each_record(
    const std::function<void(record_key, const bytes&)>& fn) const {
  for (const auto& e : records_) {
    if (e.key.area != dead_area) fn(e.key, e.record);
  }
}

void memory_store::erase(record_key key) {
  const std::uint32_t* slot = index_.find(key);
  if (slot == nullptr) return;
  // Tombstone, not compaction: shifting the record vector and re-pointing
  // every moved index slot would make erase O(live records). A later
  // store() of the key appends a fresh entry, so the dead one's buffer is
  // released now.
  entry& e = records_[*slot];
  e.key.area = dead_area;
  e.record = bytes{};
  ++dead_;
  index_.erase(key);
  if (dead_ > records_.size() / 2 && records_.size() >= 64) compact();
}

void memory_store::compact() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < records_.size(); ++r) {
    if (records_[r].key.area == dead_area) continue;
    if (w != r) records_[w] = std::move(records_[r]);
    ++w;
  }
  records_.resize(w);
  dead_ = 0;
  index_.clear();
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    index_[records_[i].key] = i;
  }
}

void memory_store::wipe() {
  records_.clear();
  index_.clear();
  dead_ = 0;
}

}  // namespace remus::storage
