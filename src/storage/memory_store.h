// In-memory stable store used by the simulator (the object outlives the
// simulated process's crashes, which is exactly what "stable" means there)
// and by wal_store as its live record index.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "storage/stable_store.h"

namespace remus::storage {

class memory_store final : public stable_store {
 public:
  void store(record_key key, const bytes& record) override;
  [[nodiscard]] std::optional<bytes> retrieve(record_key key) const override;
  void for_each(record_area area,
                const std::function<void(register_id, const bytes&)>& fn) const override;
  void erase(record_key key) override;
  void wipe() override;
  [[nodiscard]] std::uint64_t store_count() const override { return stores_; }

  /// store() from a byte view (a replayed frame's payload), without first
  /// building a `bytes`.
  void put(record_key key, std::span<const std::uint8_t> record);

  /// The record under `key`, or nullptr; valid until the next mutation.
  [[nodiscard]] const bytes* find(record_key key) const;

  /// Every live record of every area, in first-store order.
  void for_each_record(const std::function<void(record_key, const bytes&)>& fn) const;

 private:
  struct key_hash {
    std::size_t operator()(record_key k) const noexcept {
      return static_cast<std::size_t>(
          mix_u64((static_cast<std::uint64_t>(k.area) << 32) | k.reg));
    }
  };

  /// An erased entry keeps its slot with area 0 (no record_area has that
  /// value, and no WAL frame decodes to it): for_each skips it, and
  /// compact() reclaims dead slots in bulk once they outnumber the living.
  /// That keeps erase O(1) on the lease-expiry and migration-evict paths
  /// while survivors enumerate in first-store order.
  struct entry {
    record_key key;
    bytes record;
  };
  static constexpr record_area dead_area = record_area{0};

  void compact();

  // Insertion-ordered record vector (for_each enumerates in first-store
  // order — deterministic across identically-driven runs) with a flat-hash
  // index keyed by record_key, so the per-log store path stays O(1) even
  // with thousands of registers — and allocation-free in steady state (the
  // value buffer is reused in place).
  std::vector<entry> records_;
  flat_hash_map<record_key, std::uint32_t, key_hash> index_;
  std::uint32_t dead_ = 0;
  std::uint64_t stores_ = 0;
};

}  // namespace remus::storage
