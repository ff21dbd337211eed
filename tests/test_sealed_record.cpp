/// \file test_sealed_record.cpp
/// \brief The one sealed-record framing (util/sealed_record.hpp): frame
/// checks in order, parser rejects, and a mutation sweep of the artifact
/// blob built on it — every truncation and every single-bit flip must read
/// as a reject, never as a record and never as an exception.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "finser/pipeline/artifact_store.hpp"
#include "finser/util/error.hpp"
#include "finser/util/io.hpp"
#include "finser/util/sealed_record.hpp"

namespace finser::util {
namespace {

constexpr RecordMagic kTestMagic = {'F', 'N', 'S', 'R', 'T', 'E', 'S', 'T'};

/// Unique temp dir removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> sample_body() {
  ByteWriter w;
  w.u64(0xFEEDFACEDEADBEEFull);
  w.str("sealed");
  return w.take();
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b,
                 std::size_t size) {
  ASSERT_TRUE(atomic_write_file(path, b.data(), size));
}

/// Accepts exactly sample_body().
std::string parse_sample(ByteReader& r) {
  if (r.u64() != 0xFEEDFACEDEADBEEFull) return "wrong word";
  if (r.str() != "sealed") return "wrong string";
  return r.exhausted() ? "" : "trailing bytes";
}

TEST(SealedRecord, RoundTripsTheBody) {
  const TempDir dir("finser_sealed_roundtrip");
  const std::string path = dir.path() + "/rec";
  const std::vector<std::uint8_t> sealed =
      seal_record(kTestMagic, sample_body());
  // magic | body | crc: nothing else on disk.
  EXPECT_EQ(sealed.size(), 8 + sample_body().size() + 4);
  write_bytes(path, sealed, sealed.size());

  std::string reason;
  EXPECT_EQ(read_sealed_record(path, kTestMagic, "a test record",
                               parse_sample, &reason),
            RecordStatus::kOk)
      << reason;
}

TEST(SealedRecord, MissingFileIsReportedAsMissing) {
  const TempDir dir("finser_sealed_missing");
  std::string reason;
  EXPECT_EQ(read_sealed_record(dir.path() + "/absent", kTestMagic,
                               "a test record", parse_sample, &reason),
            RecordStatus::kMissing);
}

TEST(SealedRecord, BitFlipIsRejectedByCrc) {
  const TempDir dir("finser_sealed_flip");
  const std::string path = dir.path() + "/rec";
  std::vector<std::uint8_t> sealed = seal_record(kTestMagic, sample_body());
  sealed[sealed.size() / 2] ^= 0x01;
  write_bytes(path, sealed, sealed.size());

  std::string reason;
  EXPECT_EQ(read_sealed_record(path, kTestMagic, "a test record",
                               parse_sample, &reason),
            RecordStatus::kRejected);
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;
}

TEST(SealedRecord, TruncationIsRejected) {
  const TempDir dir("finser_sealed_trunc");
  const std::string path = dir.path() + "/rec";
  const std::vector<std::uint8_t> sealed =
      seal_record(kTestMagic, sample_body());
  std::string reason;

  write_bytes(path, sealed, sealed.size() - 5);
  EXPECT_EQ(read_sealed_record(path, kTestMagic, "a test record",
                               parse_sample, &reason),
            RecordStatus::kRejected);
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;

  write_bytes(path, sealed, 5);
  EXPECT_EQ(read_sealed_record(path, kTestMagic, "a test record",
                               parse_sample, &reason),
            RecordStatus::kRejected);
  EXPECT_EQ(reason, "too short to be a test record (5 bytes)");
}

TEST(SealedRecord, ForeignMagicIsRejected) {
  const TempDir dir("finser_sealed_magic");
  const std::string path = dir.path() + "/rec";
  const std::vector<std::uint8_t> sealed =
      seal_record(RecordMagic{'F', 'N', 'S', 'R', 'O', 'T', 'H', 'R'},
                  sample_body());
  write_bytes(path, sealed, sealed.size());

  std::string reason;
  EXPECT_EQ(read_sealed_record(path, kTestMagic, "a test record",
                               parse_sample, &reason),
            RecordStatus::kRejected);
  EXPECT_EQ(reason, "bad magic (not a test record)");
}

/// Past the CRC the parser decides: its reason, and the message of anything
/// it throws, become the reject reason — the reader itself never throws.
TEST(SealedRecord, ParserRejectsAndThrowsBecomeReasons) {
  const TempDir dir("finser_sealed_parse");
  const std::string path = dir.path() + "/rec";
  const std::vector<std::uint8_t> sealed =
      seal_record(kTestMagic, sample_body());
  write_bytes(path, sealed, sealed.size());

  std::string reason;
  EXPECT_EQ(read_sealed_record(
                path, kTestMagic, "a test record",
                [](ByteReader&) { return std::string("stale key"); },
                &reason),
            RecordStatus::kRejected);
  EXPECT_EQ(reason, "stale key");

  RecordStatus status = RecordStatus::kOk;
  EXPECT_NO_THROW(status = read_sealed_record(
                      path, kTestMagic, "a test record",
                      [](ByteReader& r) -> std::string {
                        r.u64();
                        r.u64();
                        r.u64();  // Past the body.
                        return "";
                      },
                      &reason));
  EXPECT_EQ(status, RecordStatus::kRejected);
  EXPECT_NE(reason.find("truncated payload"), std::string::npos) << reason;
}

/// Rewrites \p path with every proper prefix and every single-bit flip of
/// \p good and requires \p read to reject each one without throwing.
template <typename ReadFn>
void expect_every_mutation_rejected(const std::string& path,
                                    const std::vector<std::uint8_t>& good,
                                    ReadFn read) {
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_bytes(path, good, len);
    bool hit = true;
    std::string reason;
    EXPECT_NO_THROW(hit = read(reason)) << "truncated to " << len;
    EXPECT_FALSE(hit) << "truncated to " << len << " bytes was accepted";
    EXPECT_FALSE(reason.empty()) << "truncated to " << len;
  }
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    write_bytes(path, bad, bad.size());
    bool hit = true;
    std::string reason;
    EXPECT_NO_THROW(hit = read(reason)) << "bit " << bit;
    EXPECT_FALSE(hit) << "flip of bit " << bit << " was accepted";
    EXPECT_FALSE(reason.empty()) << "bit " << bit;
  }
  // The pristine record still reads: the sweep proved the checks, not a
  // broken reader.
  write_bytes(path, good, good.size());
  std::string reason;
  EXPECT_TRUE(read(reason)) << reason;
}

TEST(SealedRecord, ArtifactRejectsEveryTruncationAndBitFlip) {
  const TempDir dir("finser_sealed_artifact_mutation");
  const pipeline::ArtifactStore store(dir.path());
  const pipeline::ArtifactKey key{"mut", 0x5EA1ED};
  ASSERT_TRUE(store.put(key, {0x01, 0x02, 0x03, 0x04}));
  std::vector<std::uint8_t> good;
  ASSERT_TRUE(read_file(store.path_for(key), good, nullptr));

  expect_every_mutation_rejected(
      store.path_for(key), good, [&](std::string& reason) {
        std::vector<std::uint8_t> out;
        return store.try_get(key, out, &reason);
      });
}

}  // namespace
}  // namespace finser::util
