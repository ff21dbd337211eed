#include "finser/pipeline/artifact_store.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>

#include "finser/obs/obs.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"
#include "finser/util/sealed_record.hpp"

namespace finser::pipeline {

namespace {

// Format v1, a sealed record (util/sealed_record.hpp) whose body is
// u64 kind_len | kind bytes | u64 fingerprint | u64 payload_len | payload.
// The key echo inside the CRC'd region means a blob renamed onto another
// key's path is rejected as mis-keyed, not served as that key's content.
constexpr util::RecordMagic kMagic = {'F', 'N', 'S', 'R', 'A', 'R', 'T', '1'};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root, bool sweep_on_open)
    : root_(std::move(root)) {
  if (sweep_on_open) sweep_orphans(root_);
}

std::size_t ArtifactStore::sweep_orphans(const std::string& dir) {
  std::size_t swept = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;  // Missing dir: nothing to sweep (normal cold start).
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const std::filesystem::path& p = entry.path();
    if (!util::orphaned_temp_file(p.filename().string())) continue;
    if (std::filesystem::remove(p, entry_ec) && !entry_ec) ++swept;
  }
  if (swept > 0) {
    FINSER_OBS_COUNT("pipeline.artifact.orphans_swept",
                     static_cast<std::uint64_t>(swept));
  }
  return swept;
}

std::string ArtifactStore::path_for(const ArtifactKey& key) const {
  return root_ + "/" + key.kind + "-" + hex16(key.fingerprint) + ".art";
}

bool ArtifactStore::put(const ArtifactKey& key,
                        const std::vector<std::uint8_t>& payload,
                        std::string* error) const {
  util::ByteWriter body;
  body.str(key.kind);
  body.u64(key.fingerprint);
  body.u64(payload.size());
  body.bytes(payload.data(), payload.size());

  // Fault-injection hook: corrupt one byte so tests can prove a flipped blob
  // is rejected by CRC and recomputed, never loaded.
  std::vector<std::uint8_t> bytes = util::seal_record(kMagic, body.take());
  if (util::fault_fire(util::FaultSite::kCacheFlip)) {
    const std::size_t off = static_cast<std::size_t>(util::fault_arg(
                                util::FaultSite::kCacheFlip)) %
                            bytes.size();
    bytes[off] ^= 0x01;
  }

  const std::string path = path_for(key);
  std::string write_error;
  if (!util::atomic_write_file(path, bytes.data(), bytes.size(), &write_error)) {
    // A lost artifact costs a later run a recompute, never this one — warn
    // and continue (docs/robustness.md).
    std::fprintf(stderr,
                 "[finser:pipeline] warning: artifact %s not written: %s\n",
                 path.c_str(), write_error.c_str());
    if (error != nullptr) *error = write_error;
    return false;
  }
  FINSER_OBS_COUNT("pipeline.artifact.writes", 1);
  // The kill-and-resume tests SIGKILL the process *after* a put has safely
  // landed on disk — the artifact must survive exactly this death.
  if (util::fault_fire(util::FaultSite::kKillAfterFlush)) std::raise(SIGKILL);
  return true;
}

bool ArtifactStore::try_get(const ArtifactKey& key,
                            std::vector<std::uint8_t>& out,
                            std::string* reason) const {
  const std::string path = path_for(key);
  std::string why;
  const util::RecordStatus status = util::read_sealed_record(
      path, kMagic, "an artifact",
      [&key, &out](util::ByteReader& r) -> std::string {
        if (r.str() != key.kind) return "artifact kind mismatch";
        if (r.u64() != key.fingerprint) {
          return "fingerprint mismatch (stale artifact)";
        }
        const std::uint64_t payload_len = r.u64();
        if (payload_len != r.remaining()) return "payload length mismatch";
        out.resize(payload_len);
        r.bytes(out.data(), payload_len);
        return "";
      },
      &why);
  switch (status) {
    case util::RecordStatus::kOk:
      FINSER_OBS_COUNT("pipeline.artifact.hits", 1);
      return true;
    case util::RecordStatus::kMissing:
      // The normal cold-run case — no log, no warning.
      if (reason != nullptr) *reason = "no artifact";
      FINSER_OBS_COUNT("pipeline.artifact.misses", 1);
      return false;
    case util::RecordStatus::kRejected:
      break;
  }
  if (reason != nullptr) *reason = why;
  std::fprintf(stderr,
               "[finser:pipeline] artifact %s not used: %s; recomputing\n",
               path.c_str(), why.c_str());
  FINSER_OBS_COUNT("pipeline.artifact.rejects", 1);
  return false;
}

std::vector<ArtifactStore::Entry> ArtifactStore::list() const {
  std::vector<Entry> entries;
  std::error_code ec;
  std::filesystem::directory_iterator it(root_, ec);
  if (ec) return entries;  // Missing root: an empty store, not an error.
  for (const auto& de : it) {
    std::error_code fec;
    if (!de.is_regular_file(fec) || fec) continue;
    const std::filesystem::path& p = de.path();
    if (p.extension() != ".art") continue;
    Entry e;
    e.bytes = de.file_size(fec);
    if (fec) e.bytes = 0;

    // Filename shape: `<kind>-<16 hex digits>.art` (path_for). Kind slugs
    // may themselves contain '-', so split at the *last* dash.
    const std::string stem = p.stem().string();
    const std::size_t dash = stem.rfind('-');
    bool parsed = dash != std::string::npos && stem.size() == dash + 17;
    std::uint64_t fp = 0;
    for (std::size_t i = dash + 1; parsed && i < stem.size(); ++i) {
      const char c = stem[i];
      if (c >= '0' && c <= '9') {
        fp = (fp << 4) | static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        fp = (fp << 4) | static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        parsed = false;
      }
    }
    if (!parsed || dash == 0) {
      e.key.kind = p.filename().string();
      e.status = "unrecognized artifact filename";
      entries.push_back(std::move(e));
      continue;
    }
    e.key.kind = stem.substr(0, dash);
    e.key.fingerprint = fp;
    std::vector<std::uint8_t> blob;
    std::string reason;
    e.ok = try_get(e.key, blob, &reason);
    e.status = e.ok ? "ok" : reason;
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.key.kind != b.key.kind) return a.key.kind < b.key.kind;
    return a.key.fingerprint < b.key.fingerprint;
  });
  return entries;
}

}  // namespace finser::pipeline
