/// \file test_pipeline_artifact_store.cpp
/// \brief Content-addressed artifact store: integrity, addressing, and
/// degradation semantics (docs/architecture.md).
///
/// The contract under test: put() is atomic and CRC-sealed; try_get() never
/// throws and returns the exact payload only when the blob passes magic,
/// CRC, kind-echo, fingerprint, and length checks — every other outcome is
/// a miss that degrades to recomputation.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"
#include "finser/util/sealed_record.hpp"

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

/// A CRC-valid blob whose kind echo claims more bytes than the blob holds
/// is rejected before anything is allocated, naming the claimed length.
TEST(ArtifactStore, ClaimedKindLengthPastThePayloadIsRejected) {
  const TempStore store("finser_art_huge_kind");
  const ArtifactKey key{"unit_test", 4};
  std::filesystem::create_directories(store.root());
  util::ByteWriter body;
  body.u64(std::uint64_t{1} << 40);
  body.bytes("unit_test", 9);
  const std::vector<std::uint8_t> sealed = util::seal_record(
      {'F', 'N', 'S', 'R', 'A', 'R', 'T', '1'}, body.take());
  ASSERT_TRUE(util::atomic_write_file(store->path_for(key), sealed.data(),
                                      sealed.size()));

  std::vector<std::uint8_t> out;
  std::string reason;
  bool hit = true;
  EXPECT_NO_THROW(hit = store->try_get(key, out, &reason));
  EXPECT_FALSE(hit);
  EXPECT_NE(reason.find("1099511627776"), std::string::npos) << reason;
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

/// The temp-file name atomic_write_file() gives a write of \p blob by
/// process \p pid.
std::string temp_name(const std::string& blob, pid_t pid, int n) {
  return blob + "." + std::to_string(pid) + "." + std::to_string(n) + ".tmp";
}

/// A pid no process holds: a child that has exited and been reaped.
pid_t dead_pid() {
  const pid_t pid = fork();
  if (pid == 0) _exit(0);
  waitpid(pid, nullptr, 0);
  return pid;
}

// Another process's store opening mid-write (a second campaign, a
// replacement worker) must leave a live writer's temp file alone, and sweep
// the temp of a writer that died.
TEST(ArtifactStore, LiveWritersTempSurvivesAnotherOpen) {
  const TempStore store("finser_art_live_tmp");
  std::filesystem::create_directories(store.root());
  const std::string live =
      store.root() + "/" + temp_name("unit_test-01.art", getpid(), 3);
  const std::string dead =
      store.root() + "/" + temp_name("unit_test-02.art", dead_pid(), 0);
  for (const std::string& p : {live, dead}) {
    std::ofstream os(p, std::ios::binary);
    os << "in flight";
  }
  EXPECT_EQ(ArtifactStore::sweep_orphans(store.root()), 1u);
  EXPECT_TRUE(std::filesystem::exists(live));
  EXPECT_FALSE(std::filesystem::exists(dead));
  const ArtifactStore reopened(store.root());
  EXPECT_TRUE(std::filesystem::exists(live));
}

TEST(ArtifactStore, OrphanedTempFileNames) {
  EXPECT_FALSE(util::orphaned_temp_file("unit_test-01.art"));
  EXPECT_FALSE(util::orphaned_temp_file(temp_name("a.art", getpid(), 0) + "x"));
  EXPECT_FALSE(util::orphaned_temp_file(temp_name("a.art", getpid(), 12)));
  EXPECT_TRUE(util::orphaned_temp_file(temp_name("a.art", dead_pid(), 12)));
  // Names that carry no writer: the debris of an older writer.
  EXPECT_TRUE(util::orphaned_temp_file("a.art.tmp"));
  EXPECT_TRUE(util::orphaned_temp_file("a.tmp"));
  EXPECT_TRUE(util::orphaned_temp_file("a.art.7.tmp"));
  EXPECT_TRUE(util::orphaned_temp_file("a.art.x7.7.tmp"));
}

// Writers of one key that each open their own store on the shared
// directory — and so sweep it — while the others are mid-write: every put
// lands (a failed put would return false and print a warning) and the blob
// left behind is valid.
TEST(ArtifactStore, ConcurrentPutsOfOneKeyAllLand) {
  const TempStore store("finser_art_shared");
  const ArtifactKey key{"unit_test", 78};
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7u);
  }
  std::atomic<int> failed{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      for (int rep = 0; rep < 50; ++rep) {
        const ArtifactStore mine(store.root());
        std::string error;
        if (!mine.put(key, payload, &error)) {
          ADD_FAILURE() << error;
          ++failed;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failed.load(), 0);
  std::vector<std::uint8_t> out;
  std::string reason;
  ASSERT_TRUE(store->try_get(key, out, &reason)) << reason;
  EXPECT_EQ(out, payload);
  for (const auto& e : std::filesystem::directory_iterator(store.root())) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
}

}  // namespace
}  // namespace finser::pipeline
