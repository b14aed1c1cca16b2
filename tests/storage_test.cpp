// Unit tests for stable storage backends (keyed by (area, register)).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/value.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"

namespace remus::storage {
namespace {

bytes b(std::initializer_list<std::uint8_t> xs) { return bytes(xs); }

constexpr record_key written0{record_area::written, 0};
constexpr record_key written7{record_area::written, 7};
constexpr record_key writing0{record_area::writing, 0};
constexpr record_key recovered{record_area::recovered, 0};

template <typename Store>
void exercise_basic(Store& st) {
  EXPECT_FALSE(st.retrieve(written0).has_value());
  st.store(written0, b({1, 2, 3}));
  ASSERT_TRUE(st.retrieve(written0).has_value());
  EXPECT_EQ(*st.retrieve(written0), b({1, 2, 3}));
  // Overwrite in place (records replace their predecessor).
  st.store(written0, b({9}));
  EXPECT_EQ(*st.retrieve(written0), b({9}));
  // Independent areas.
  st.store(writing0, b({4, 5}));
  EXPECT_EQ(*st.retrieve(writing0), b({4, 5}));
  EXPECT_EQ(*st.retrieve(written0), b({9}));
  // Independent registers of the same area.
  st.store(written7, b({7, 7}));
  EXPECT_EQ(*st.retrieve(written7), b({7, 7}));
  EXPECT_EQ(*st.retrieve(written0), b({9}));
  EXPECT_EQ(st.store_count(), 4u);
}

template <typename Store>
void exercise_for_each(Store& st) {
  st.store(written0, b({1}));
  st.store(record_key{record_area::written, 42}, b({42}));
  st.store(written7, b({7}));
  st.store(writing0, b({100}));  // different area: not enumerated
  st.store(recovered, b({5}));

  std::vector<std::pair<register_id, bytes>> seen;
  st.for_each(record_area::written,
              [&](register_id reg, const bytes& rec) { seen.emplace_back(reg, rec); });
  ASSERT_EQ(seen.size(), 3u);
  // Deterministic order (memory store: insertion; file store: ascending reg).
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen[0], (std::pair<register_id, bytes>{0, b({1})}));
  EXPECT_EQ(seen[1], (std::pair<register_id, bytes>{7, b({7})}));
  EXPECT_EQ(seen[2], (std::pair<register_id, bytes>{42, b({42})}));
}

TEST(RecordKey, EncodedSizeMatchesRenderedName) {
  for (const record_key k :
       {written0, written7, writing0, recovered, record_key{record_area::written, 10},
        record_key{record_area::writing, 123456}, record_key{record_area::written, 9}}) {
    EXPECT_EQ(k.encoded_size(), to_string(k).size()) << to_string(k);
  }
}

TEST(MemoryStore, BasicRoundTrip) {
  memory_store st;
  exercise_basic(st);
}

TEST(MemoryStore, ForEachEnumeratesArea) {
  memory_store st;
  exercise_for_each(st);
}

TEST(MemoryStore, WipeClearsRecords) {
  memory_store st;
  st.store(written0, b({1}));
  st.wipe();
  EXPECT_FALSE(st.retrieve(written0).has_value());
}

TEST(MemoryStore, FootprintTracksContent) {
  memory_store st;
  EXPECT_EQ(st.footprint(), 0u);
  st.store(written0, b({1, 2, 3}));
  EXPECT_EQ(st.footprint(), sizeof(record_key) + 3u);
}

TEST(MemoryStore, EmptyRecordAllowed) {
  memory_store st;
  st.store(written0, {});
  ASSERT_TRUE(st.retrieve(written0).has_value());
  EXPECT_TRUE(st.retrieve(written0)->empty());
}

template <typename Store>
void exercise_store_and_obsolete(Store& st) {
  // The stable_store default decomposes into store() + erase(); entries
  // equal to the stored key are inert, absent keys are no-ops.
  st.store(writing0, b({1}));
  st.store(written7, b({2}));
  const record_key obsolete[] = {writing0, written7, written0, recovered};
  static_cast<stable_store&>(st).store_and_obsolete(written0, b({5}), obsolete);
  EXPECT_EQ(*st.retrieve(written0), b({5}));
  EXPECT_FALSE(st.retrieve(writing0).has_value());
  EXPECT_FALSE(st.retrieve(written7).has_value());
}

TEST(MemoryStore, StoreAndObsoleteDefaultDecomposes) {
  memory_store st;
  exercise_store_and_obsolete(st);
}

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("remus_fs_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  static inline int counter_ = 0;
};

TEST_F(FileStoreTest, BasicRoundTrip) {
  file_store st(dir_, /*fsync_enabled=*/false);
  exercise_basic(st);
}

TEST_F(FileStoreTest, ForEachEnumeratesArea) {
  file_store st(dir_, false);
  exercise_for_each(st);
}

TEST_F(FileStoreTest, SurvivesReopen) {
  {
    file_store st(dir_, false);
    st.store(written0, b({7, 7, 7}));
    st.store(written7, b({8}));
  }
  file_store st2(dir_, false);
  ASSERT_TRUE(st2.retrieve(written0).has_value());
  EXPECT_EQ(*st2.retrieve(written0), b({7, 7, 7}));
  EXPECT_EQ(*st2.retrieve(written7), b({8}));
}

TEST_F(FileStoreTest, FsyncPathWorks) {
  file_store st(dir_, true);
  st.store(written0, b({1}));
  EXPECT_EQ(*st.retrieve(written0), b({1}));
}

TEST_F(FileStoreTest, KeyedRecordsUseDistinctFiles) {
  file_store st(dir_, false);
  st.store(written0, b({1}));
  st.store(written7, b({2}));
  st.store(recovered, b({3}));
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(e.path().parent_path(), dir_);
    ++files;
  }
  EXPECT_EQ(files, 3u);
  EXPECT_EQ(*st.retrieve(written0), b({1}));
  EXPECT_EQ(*st.retrieve(written7), b({2}));
}

TEST_F(FileStoreTest, WipeRemovesFiles) {
  file_store st(dir_, false);
  st.store(written0, b({1}));
  st.store(written7, b({2}));
  st.wipe();
  EXPECT_FALSE(st.retrieve(written0).has_value());
  EXPECT_FALSE(st.retrieve(written7).has_value());
}

TEST_F(FileStoreTest, StoreAndObsoleteDefaultDecomposes) {
  file_store st(dir_, false);
  exercise_store_and_obsolete(st);
}

TEST_F(FileStoreTest, StrayTmpFilesAreSweptAtConstruction) {
  // A crash between tmp-write and rename leaves "<record>.tmp"; the next
  // start must remove it so it can never shadow or resurrect a record.
  std::filesystem::create_directories(dir_);
  {
    std::ofstream f(dir_ / "written-0.tmp");
    f << "half-written record from a crashed store";
  }
  file_store st(dir_, false);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "written-0.tmp"));
  EXPECT_FALSE(st.retrieve(written0).has_value());
  st.store(written0, b({1}));
  EXPECT_EQ(*st.retrieve(written0), b({1}));
}

TEST_F(FileStoreTest, LargeRecordRoundTrip) {
  file_store st(dir_, false);
  const value big = value_of_size(64 * 1024);
  const bytes record(big.data.begin(), big.data.end());
  st.store(written0, record);
  EXPECT_EQ(*st.retrieve(written0), record);
}

}  // namespace
}  // namespace remus::storage
