/// \file test_pipeline_artifact_store.cpp
/// \brief Content-addressed artifact store: integrity, addressing, and
/// degradation semantics (docs/architecture.md).
///
/// The contract under test: put() is atomic and CRC-sealed; try_get() never
/// throws and returns the exact payload only when the blob passes magic,
/// CRC, kind-echo, fingerprint, and length checks — every other outcome is
/// a miss that degrades to recomputation.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"

namespace finser::pipeline {
namespace {

/// Fresh store rooted in a unique temp directory, removed on scope exit.
class TempStore {
 public:
  explicit TempStore(const char* name)
      : root_((std::filesystem::temp_directory_path() / name).string()),
        store_(root_) {
    std::filesystem::remove_all(root_);
  }
  ~TempStore() { std::filesystem::remove_all(root_); }

  const ArtifactStore& operator*() const { return store_; }
  const ArtifactStore* operator->() const { return &store_; }
  const std::string& root() const { return root_; }

 private:
  std::string root_;
  ArtifactStore store_;
};

std::vector<std::uint8_t> payload_bytes() {
  return {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
}

TEST(ArtifactStore, PutThenGetRoundTrips) {
  const TempStore store("finser_art_roundtrip");
  const ArtifactKey key{"unit_test", 0x1234abcdu};

  std::string error;
  ASSERT_TRUE(store->put(key, payload_bytes(), &error)) << error;

  std::vector<std::uint8_t> out;
  std::string reason;
  ASSERT_TRUE(store->try_get(key, out, &reason)) << reason;
  EXPECT_EQ(out, payload_bytes());
}

TEST(ArtifactStore, EmptyPayloadRoundTrips) {
  const TempStore store("finser_art_empty");
  const ArtifactKey key{"unit_test", 7};
  ASSERT_TRUE(store->put(key, {}));
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_TRUE(store->try_get(key, out));
  EXPECT_TRUE(out.empty());
}

TEST(ArtifactStore, MissingArtifactIsAQuietMiss) {
  const TempStore store("finser_art_missing");
  std::vector<std::uint8_t> out;
  std::string reason;
  EXPECT_FALSE(store->try_get(ArtifactKey{"unit_test", 99}, out, &reason));
  EXPECT_EQ(reason, "no artifact");
}

TEST(ArtifactStore, DifferentFingerprintAddressesDifferentBlob) {
  const TempStore store("finser_art_addr");
  ASSERT_TRUE(store->put(ArtifactKey{"k", 1}, {0x01}));
  ASSERT_TRUE(store->put(ArtifactKey{"k", 2}, {0x02}));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(store->try_get(ArtifactKey{"k", 1}, out));
  EXPECT_EQ(out, std::vector<std::uint8_t>{0x01});
  ASSERT_TRUE(store->try_get(ArtifactKey{"k", 2}, out));
  EXPECT_EQ(out, std::vector<std::uint8_t>{0x02});
}

TEST(ArtifactStore, CorruptBlobIsRejectedByCrc) {
  const TempStore store("finser_art_corrupt");
  const ArtifactKey key{"unit_test", 5};

  // cache_flip corrupts one byte of the first put (offset mod file size).
  util::fault_configure("cache_flip:21");
  ASSERT_TRUE(store->put(key, payload_bytes()));
  util::fault_configure("");

  std::vector<std::uint8_t> out;
  std::string reason;
  EXPECT_FALSE(store->try_get(key, out, &reason));
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;

  // A clean rewrite heals the entry.
  ASSERT_TRUE(store->put(key, payload_bytes()));
  EXPECT_TRUE(store->try_get(key, out));
  EXPECT_EQ(out, payload_bytes());
}

TEST(ArtifactStore, BlobRenamedToAnotherFingerprintIsStale) {
  const TempStore store("finser_art_stale");
  const ArtifactKey original{"unit_test", 10};
  const ArtifactKey other{"unit_test", 11};
  ASSERT_TRUE(store->put(original, payload_bytes()));

  // Simulate a mis-filed blob: valid envelope, wrong address.
  std::filesystem::rename(store->path_for(original), store->path_for(other));

  std::vector<std::uint8_t> out;
  std::string reason;
  EXPECT_FALSE(store->try_get(other, out, &reason));
  EXPECT_NE(reason.find("fingerprint mismatch"), std::string::npos) << reason;
}

TEST(ArtifactStore, BlobRenamedToAnotherKindIsMisKeyed) {
  const TempStore store("finser_art_kind");
  const ArtifactKey original{"kind_a", 10};
  const ArtifactKey other{"kind_b", 10};
  ASSERT_TRUE(store->put(original, payload_bytes()));
  std::filesystem::rename(store->path_for(original), store->path_for(other));

  std::vector<std::uint8_t> out;
  std::string reason;
  EXPECT_FALSE(store->try_get(other, out, &reason));
  EXPECT_NE(reason.find("kind mismatch"), std::string::npos) << reason;
}

TEST(ArtifactStore, GarbageFileNeverThrows) {
  const TempStore store("finser_art_garbage");
  const ArtifactKey key{"unit_test", 3};
  std::filesystem::create_directories(store.root());
  {
    std::ofstream os(store->path_for(key), std::ios::binary);
    os << "this is not an artifact";
  }
  std::vector<std::uint8_t> out;
  std::string reason;
  EXPECT_FALSE(store->try_get(key, out, &reason));
  EXPECT_NE(reason.find("magic"), std::string::npos) << reason;

  // Truncated-below-header file.
  {
    std::ofstream os(store->path_for(key), std::ios::binary);
    os << "FN";
  }
  EXPECT_FALSE(store->try_get(key, out, &reason));
  EXPECT_NE(reason.find("too short"), std::string::npos) << reason;

  // A valid blob cut at 30/60/90% of its length (a torn copy): every cut
  // is a CRC reject, never an exception or a partial payload.
  std::vector<std::uint8_t> payload(1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(store->put(key, payload));
  std::vector<std::uint8_t> full;
  ASSERT_TRUE(util::read_file(store->path_for(key), full, nullptr));
  for (const double frac : {0.3, 0.6, 0.9}) {
    const auto cut = static_cast<std::size_t>(frac * static_cast<double>(full.size()));
    ASSERT_TRUE(util::atomic_write_file(store->path_for(key), full.data(), cut));
    bool hit = true;
    EXPECT_NO_THROW(hit = store->try_get(key, out, &reason)) << frac;
    EXPECT_FALSE(hit) << frac;
    EXPECT_NE(reason.find("CRC"), std::string::npos) << frac << ": " << reason;
  }
}

/// A failed write is a lost cache entry, not a failed run — but never a
/// silent one: put() names the path and the cause on stderr.
TEST(ArtifactStore, FailedPutWarnsOnStderr) {
  const TempStore store("finser_art_write_fail");
  const ArtifactKey key{"unit_test", 9};

  util::fault_configure("io_write_fail:1");
  testing::internal::CaptureStderr();
  std::string error;
  const bool stored = store->put(key, payload_bytes(), &error);
  const std::string err = testing::internal::GetCapturedStderr();
  util::fault_configure("");

  EXPECT_FALSE(stored);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(err.find("[finser:pipeline] warning"), std::string::npos) << err;
  EXPECT_NE(err.find(store->path_for(key)), std::string::npos) << err;
  EXPECT_NE(err.find(error), std::string::npos) << err;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store->try_get(key, out));
}

TEST(ArtifactStore, ConcurrentWritersSameKeyConverge) {
  const TempStore store("finser_art_race");
  const ArtifactKey key{"unit_test", 77};
  // Content-addressed: every writer of a key writes the same bytes, so any
  // interleaving of the atomic rename leaves a valid blob behind.
  std::vector<std::uint8_t> payload(512);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31u);
  }

  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) store->put(key, payload);
    });
  }
  for (std::thread& t : writers) t.join();

  std::vector<std::uint8_t> out;
  std::string reason;
  ASSERT_TRUE(store->try_get(key, out, &reason)) << reason;
  EXPECT_EQ(out, payload);
}

TEST(ArtifactStore, ObsCountersClassifyOutcomes) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const TempStore store("finser_art_obs");
  const ArtifactKey key{"unit_test", 1};

  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store->try_get(key, out));  // quiet miss
  ASSERT_TRUE(store->put(key, payload_bytes()));
  EXPECT_TRUE(store->try_get(key, out));  // hit

  util::fault_configure("cache_flip:13");
  ASSERT_TRUE(store->put(key, payload_bytes()));
  util::fault_configure("");
  EXPECT_FALSE(store->try_get(key, out));  // loud reject

  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("pipeline.artifact.misses").total(), 1u);
  EXPECT_EQ(reg.counter("pipeline.artifact.hits").total(), 1u);
  EXPECT_EQ(reg.counter("pipeline.artifact.rejects").total(), 1u);
  EXPECT_EQ(reg.counter("pipeline.artifact.writes").total(), 2u);

  obs::set_enabled(false);
  obs::Registry::global().reset();
}

/// A crash between temp-file creation and rename leaves a `*.tmp` orphan;
/// opening a store over that directory must sweep it (and count the sweep)
/// while leaving committed blobs untouched.
TEST(ArtifactStore, OpeningSweepsOrphanedTmpFiles) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "finser_art_orphans").string();
  std::filesystem::remove_all(root);
  const ArtifactKey key{"unit_test", 5};
  {
    const ArtifactStore writer(root);
    ASSERT_TRUE(writer.put(key, payload_bytes()));
  }
  // Plant what a mid-write kill would leave behind.
  {
    std::ofstream os(root + "/torn_blob.art.tmp", std::ios::binary);
    os << "half-written";
    std::ofstream os2(root + "/another.tmp", std::ios::binary);
  }

  obs::Registry::global().reset();
  obs::set_enabled(true);
  const ArtifactStore reopened(root);
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("pipeline.artifact.orphans_swept").total(), 2u);
  obs::set_enabled(false);
  obs::Registry::global().reset();

  EXPECT_FALSE(std::filesystem::exists(root + "/torn_blob.art.tmp"));
  EXPECT_FALSE(std::filesystem::exists(root + "/another.tmp"));
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(reopened.try_get(key, out)) << "sweep must keep real blobs";
  EXPECT_EQ(out, payload_bytes());

  // Sweeping a directory that does not exist is a quiet no-op.
  EXPECT_EQ(ArtifactStore::sweep_orphans(root + "/nope"), 0u);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace finser::pipeline
