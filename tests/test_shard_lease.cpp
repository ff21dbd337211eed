/// \file test_shard_lease.cpp
/// \brief Lease records: integrity, staleness, and reclaim semantics
/// (docs/sharding.md).
///
/// The contract under test mirrors the artifact store's: write_lease is
/// atomic and CRC-sealed; try_read_lease never throws and yields a record
/// only when the blob passes magic, CRC, version and campaign-fingerprint
/// checks — every other outcome (truncated, bit-flipped, stale-campaign,
/// garbage, torn-by-fault) reads as "absent", i.e. the lease is
/// reclaimable by a supervisor.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/shard/lease.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"
#include "finser/util/sealed_record.hpp"

namespace finser::shard {
namespace {

constexpr std::uint64_t kCampaign = 0xABCDEF0123456789ull;

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

LeaseRecord sample_record() {
  LeaseRecord rec;
  rec.kind = LeaseKind::kTask;
  rec.state = LeaseState::kAssign;
  rec.campaign = kCampaign;
  rec.worker = 3;
  rec.attempt = 2;
  rec.seq = 41;
  rec.stage = "5-sweep-nominal";
  rec.message = "";
  return rec;
}

TEST(ShardLease, PathHelpersEmbedRoleAndId) {
  EXPECT_EQ(task_path("/d", 2), "/d/task-2");
  EXPECT_EQ(heartbeat_path("/d", 7), "/d/hb-7");
  EXPECT_EQ(done_path("/d", "0-characterize-ab12cd34"),
            "/d/done-0-characterize-ab12cd34");
}

TEST(ShardLease, WriteThenReadRoundTrips) {
  const TempDir dir("finser_lease_roundtrip");
  const std::string path = task_path(dir.path(), 3);
  std::string error;
  ASSERT_TRUE(write_lease(path, sample_record(), &error)) << error;

  LeaseRecord out;
  std::string reason;
  ASSERT_TRUE(try_read_lease(path, kCampaign, out, &reason)) << reason;
  EXPECT_EQ(out.kind, LeaseKind::kTask);
  EXPECT_EQ(out.state, LeaseState::kAssign);
  EXPECT_EQ(out.campaign, kCampaign);
  EXPECT_EQ(out.worker, 3u);
  EXPECT_EQ(out.attempt, 2u);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_EQ(out.stage, "5-sweep-nominal");
  EXPECT_TRUE(out.message.empty());
}

TEST(ShardLease, MissingLeaseIsAQuietMiss) {
  const TempDir dir("finser_lease_missing");
  LeaseRecord out;
  std::string reason;
  EXPECT_FALSE(try_read_lease(heartbeat_path(dir.path(), 0), kCampaign, out,
                              &reason));
  EXPECT_EQ(reason, "no lease");
}

TEST(ShardLease, TruncatedLeaseIsReclaimable) {
  const TempDir dir("finser_lease_trunc");
  const std::string path = task_path(dir.path(), 0);
  ASSERT_TRUE(write_lease(path, sample_record()));

  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(util::read_file(path, raw));
  // Chop mid-body: magic survives, CRC cannot.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(raw.data()),
             static_cast<std::streamsize>(raw.size() / 2));
  }
  LeaseRecord out;
  std::string reason;
  EXPECT_FALSE(try_read_lease(path, kCampaign, out, &reason));
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;

  // Reclaimable: a clean rewrite heals the slot.
  ASSERT_TRUE(write_lease(path, sample_record()));
  EXPECT_TRUE(try_read_lease(path, kCampaign, out, &reason)) << reason;
}

TEST(ShardLease, CrcFlippedLeaseIsReclaimable) {
  const TempDir dir("finser_lease_flip");
  const std::string path = heartbeat_path(dir.path(), 1);
  LeaseRecord rec = sample_record();
  rec.kind = LeaseKind::kHeartbeat;
  rec.state = LeaseState::kRunning;
  ASSERT_TRUE(write_lease(path, rec));

  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(util::read_file(path, raw));
  raw[raw.size() / 2] ^= 0x01;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(raw.data()),
             static_cast<std::streamsize>(raw.size()));
  }
  LeaseRecord out;
  std::string reason;
  EXPECT_FALSE(try_read_lease(path, kCampaign, out, &reason));
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;
}

TEST(ShardLease, StaleCampaignFingerprintIsReclaimable) {
  const TempDir dir("finser_lease_stale");
  const std::string path = done_path(dir.path(), "5-sweep-nominal");
  LeaseRecord rec = sample_record();
  rec.kind = LeaseKind::kDone;
  rec.state = LeaseState::kDone;
  ASSERT_TRUE(write_lease(path, rec));

  // A supervisor running an *edited* campaign must not trust the marker.
  LeaseRecord out;
  std::string reason;
  EXPECT_FALSE(try_read_lease(path, kCampaign + 1, out, &reason));
  EXPECT_NE(reason.find("stale"), std::string::npos) << reason;
}

TEST(ShardLease, GarbageFileNeverThrows) {
  const TempDir dir("finser_lease_garbage");
  const std::string path = task_path(dir.path(), 0);
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a lease";
  }
  LeaseRecord out;
  std::string reason;
  EXPECT_FALSE(try_read_lease(path, kCampaign, out, &reason));
  EXPECT_NE(reason.find("magic"), std::string::npos) << reason;

  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "FN";
  }
  EXPECT_FALSE(try_read_lease(path, kCampaign, out, &reason));
  EXPECT_NE(reason.find("too short"), std::string::npos) << reason;
}

/// A CRC-valid record whose stage length claims more bytes than the record
/// holds (here 4 GiB and 2^40) is rejected before anything is allocated,
/// with a reason that names the claimed length — never a multi-gigabyte
/// allocation, never std::bad_alloc.
TEST(ShardLease, ClaimedStringLengthPastThePayloadIsRejected) {
  const TempDir dir("finser_lease_huge_len");
  const std::string path = task_path(dir.path(), 0);
  for (const std::uint64_t claimed : {std::uint64_t{1} << 32,
                                      std::uint64_t{1} << 40}) {
    util::ByteWriter body;
    body.u32(1);  // version
    body.u32(static_cast<std::uint32_t>(LeaseKind::kTask));
    body.u64(kCampaign);
    body.u64(0);  // worker
    body.u64(0);  // attempt
    body.u64(0);  // seq
    body.u32(static_cast<std::uint32_t>(LeaseState::kAssign));
    body.u32(0);  // reserved
    body.u64(claimed);
    body.bytes("0-x", 3);
    const std::vector<std::uint8_t> sealed = util::seal_record(
        {'F', 'N', 'S', 'R', 'L', 'S', 'E', '1'}, body.take());
    ASSERT_TRUE(util::atomic_write_file(path, sealed.data(), sealed.size()));

    LeaseRecord out;
    std::string reason;
    bool hit = true;
    EXPECT_NO_THROW(hit = try_read_lease(path, kCampaign, out, &reason))
        << claimed;
    EXPECT_FALSE(hit) << claimed;
    EXPECT_NE(reason.find(std::to_string(claimed)), std::string::npos)
        << reason;
  }
}

TEST(ShardLease, TornWriteFaultSiteLandsARejectableRecord) {
  const TempDir dir("finser_lease_torn");
  const std::string path = task_path(dir.path(), 4);

  // lease_torn drops the atomic rename and writes only a prefix — the
  // worst a crashed writer could leave behind.
  util::fault_configure("lease_torn:1");
  ASSERT_TRUE(write_lease(path, sample_record()));
  util::fault_configure("");

  LeaseRecord out;
  std::string reason;
  EXPECT_FALSE(try_read_lease(path, kCampaign, out, &reason));
  EXPECT_TRUE(reason.find("CRC") != std::string::npos ||
              reason.find("too short") != std::string::npos)
      << reason;

  // The supervisor's heal path is a plain rewrite.
  ASSERT_TRUE(write_lease(path, sample_record()));
  EXPECT_TRUE(try_read_lease(path, kCampaign, out, &reason)) << reason;
}

TEST(ShardLease, ObsCountersClassifyOutcomes) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const TempDir dir("finser_lease_obs");
  const std::string path = task_path(dir.path(), 0);

  LeaseRecord out;
  EXPECT_FALSE(try_read_lease(path, kCampaign, out));  // quiet miss
  ASSERT_TRUE(write_lease(path, sample_record()));
  EXPECT_TRUE(try_read_lease(path, kCampaign, out));  // valid read

  util::fault_configure("lease_torn:1");
  ASSERT_TRUE(write_lease(path, sample_record()));  // torn
  util::fault_configure("");
  EXPECT_FALSE(try_read_lease(path, kCampaign, out));  // reject

  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("shard.lease.writes").total(), 1u);  // torn ≠ write
  EXPECT_EQ(reg.counter("shard.lease.reads").total(), 1u);
  EXPECT_EQ(reg.counter("shard.lease.rejects").total(), 1u);

  obs::set_enabled(false);
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace finser::shard
