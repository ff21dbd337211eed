#include "finser/shard/lease.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"
#include "finser/util/sealed_record.hpp"

namespace finser::shard {

namespace {

// Format v1, a sealed record (util/sealed_record.hpp) whose body is
// u32 version | u32 kind | u64 campaign | u64 worker | u64 attempt | u64 seq |
// u32 state | u32 reserved | u64 stage_len | stage bytes | u64 msg_len |
// msg bytes. The campaign fingerprint inside the CRC'd region is the
// staleness key — same role the (kind, fingerprint) echo plays in an
// artifact blob.
constexpr util::RecordMagic kMagic = {'F', 'N', 'S', 'R', 'L', 'S', 'E', '1'};
constexpr std::uint32_t kVersion = 1;

std::vector<std::uint8_t> encode(const LeaseRecord& rec) {
  util::ByteWriter body;
  body.u32(kVersion);
  body.u32(static_cast<std::uint32_t>(rec.kind));
  body.u64(rec.campaign);
  body.u64(rec.worker);
  body.u64(rec.attempt);
  body.u64(rec.seq);
  body.u32(static_cast<std::uint32_t>(rec.state));
  body.u32(0);  // reserved
  body.str(rec.stage);
  body.str(rec.message);
  return util::seal_record(kMagic, body.take());
}

/// Deliberately land a torn record: the first half of the encoded bytes,
/// written straight to the final path with no temp-and-rename. This is what
/// a crash mid-write on a non-atomic filesystem would leave behind; every
/// reader must bounce it off the CRC.
bool write_torn(const std::string& path,
                const std::vector<std::uint8_t>& bytes, std::string* error) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const std::size_t half = bytes.size() / 2;
  (void)!::write(fd, bytes.data(), half);
  ::close(fd);
  return true;
}

}  // namespace

std::string task_path(const std::string& lease_dir, std::uint64_t worker) {
  return lease_dir + "/task-" + std::to_string(worker);
}

std::string heartbeat_path(const std::string& lease_dir,
                           std::uint64_t worker) {
  return lease_dir + "/hb-" + std::to_string(worker);
}

std::string done_path(const std::string& lease_dir,
                      const std::string& stage_id) {
  return lease_dir + "/done-" + stage_id;
}

bool write_lease(const std::string& path, const LeaseRecord& rec,
                 std::string* error) {
  const std::vector<std::uint8_t> bytes = encode(rec);
  if (util::fault_fire(util::FaultSite::kLeaseTorn)) {
    return write_torn(path, bytes, error);
  }
  if (!util::atomic_write_file(path, bytes.data(), bytes.size(), error)) {
    return false;
  }
  FINSER_OBS_COUNT("shard.lease.writes", 1);
  return true;
}

bool try_read_lease(const std::string& path, std::uint64_t expected_campaign,
                    LeaseRecord& out, std::string* reason) {
  std::string why;
  const util::RecordStatus status = util::read_sealed_record(
      path, kMagic, "a lease record",
      [&out, expected_campaign](util::ByteReader& r) -> std::string {
        const std::uint32_t version = r.u32();
        if (version != kVersion) {
          return "unknown lease version " + std::to_string(version);
        }
        const std::uint32_t kind = r.u32();
        if (kind > static_cast<std::uint32_t>(LeaseKind::kDone)) {
          return "unknown lease kind " + std::to_string(kind);
        }
        out.kind = static_cast<LeaseKind>(kind);
        out.campaign = r.u64();
        out.worker = r.u64();
        out.attempt = r.u64();
        out.seq = r.u64();
        const std::uint32_t state = r.u32();
        if (state > static_cast<std::uint32_t>(LeaseState::kShutdown)) {
          return "unknown lease state " + std::to_string(state);
        }
        out.state = static_cast<LeaseState>(state);
        r.u32();  // reserved
        out.stage = r.str();
        out.message = r.str();
        if (r.remaining() != 0) return "trailing bytes in lease record";
        if (out.campaign != expected_campaign) {
          return "campaign fingerprint mismatch (stale lease)";
        }
        return "";
      },
      &why);
  switch (status) {
    case util::RecordStatus::kOk:
      FINSER_OBS_COUNT("shard.lease.reads", 1);
      return true;
    case util::RecordStatus::kMissing:
      // The normal polling case — quiet, uncounted.
      if (reason != nullptr) *reason = "no lease";
      return false;
    case util::RecordStatus::kRejected:
      break;
  }
  if (reason != nullptr) *reason = why;
  FINSER_OBS_COUNT("shard.lease.rejects", 1);
  return false;
}

}  // namespace finser::shard
