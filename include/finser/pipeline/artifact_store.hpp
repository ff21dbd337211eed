#pragma once
/// \file artifact_store.hpp
/// \brief Content-addressed store for expensive pipeline artifacts.
///
/// The paper's Fig.-6 flow is a pipeline of cacheable stages: device e–h-pair
/// LUTs → cell POF LUTs → per-(species, energy) array-MC results → FIT. Each
/// stage's output is a pure function of a configuration subset, so it can be
/// addressed by a 64-bit FNV-1a fingerprint of exactly those knobs
/// (util::Fnv1a) and reused by every later run or campaign scenario that
/// shares them.
///
/// It is the one persisted form of every stage product, the characterized
/// cell model included, under one discipline for all artifact kinds:
///  * **Addressing** — key = (kind slug, fingerprint); the blob's path is a
///    pure function of the key, so two processes computing the same artifact
///    converge on the same file.
///  * **Integrity first** — every blob is a sealed record
///    (util/sealed_record.hpp): magic, the key echo and a CRC-32 over the
///    body; load verifies all three *before* any payload byte is parsed.
///  * **Crash safety** — writes go through util::atomic_write_file (temp +
///    fsync + rename), so readers only ever see an old or a complete new
///    blob; concurrent writers of one key race benignly (identical content).
///  * **Never-throw loads** — a missing, torn, corrupted or stale blob is a
///    cache miss, not an error: try_get returns false with a reason and the
///    caller recomputes (docs/robustness.md).
///
/// Cache traffic is counted on the obs registry ("pipeline.artifact.hits" /
/// ".misses" / ".rejects" / ".writes") — the campaign tests and the
/// warm-vs-cold benchmark assert stage reuse through these counters.

#include <cstdint>
#include <string>
#include <vector>

namespace finser::pipeline {

/// Address of one artifact: a short path-safe kind slug ("cell_model",
/// "device_lut", "mc_bin", ...) plus the FNV-1a fingerprint of everything
/// the content depends on. Equal keys ⇒ interchangeable content.
struct ArtifactKey {
  std::string kind;
  std::uint64_t fingerprint = 0;
};

/// Content-addressed blob store rooted at one directory.
///
/// Thread-safe: the store keeps no mutable state; concurrent put/try_get on
/// any keys (including the same key) are safe through the atomic-write /
/// whole-file-read primitives.
class ArtifactStore {
 public:
  /// \param root directory for the blobs (created lazily on first put).
  /// Opening sweeps orphaned `*.tmp` files left in \p root by writers that
  /// died between temp-write and rename (see sweep_orphans), unless
  /// \p sweep_on_open is false (read-only inspection, e.g. `artifacts ls`,
  /// must not mutate the directory).
  explicit ArtifactStore(std::string root, bool sweep_on_open = true);

  const std::string& root() const { return root_; }

  /// Delete the orphaned `*.tmp` files directly inside \p dir
  /// (util::orphaned_temp_file): the debris of util::atomic_write_file
  /// calls whose process died before their rename. They are invisible to
  /// readers but accumulate across crashes. The temp file of a writer that
  /// is still running — another campaign or worker on the same store — is
  /// left alone. Counted as "pipeline.artifact.orphans_swept". A missing or
  /// unreadable \p dir is a no-op. Returns the number of files removed.
  static std::size_t sweep_orphans(const std::string& dir);

  /// Blob path of \p key: `<root>/<kind>-<fingerprint hex>.art`.
  std::string path_for(const ArtifactKey& key) const;

  /// Atomically persist \p payload under \p key. On I/O failure prints one
  /// `[finser:pipeline] warning` line naming the path and the cause and
  /// returns false (cause also in \p error if non-null) — the store is a
  /// cache, so callers continue. Honors the io_write_fail, cache_flip and
  /// kill_after_flush fault-injection sites (util/fault.hpp).
  bool put(const ArtifactKey& key, const std::vector<std::uint8_t>& payload,
           std::string* error = nullptr) const;

  /// Load the blob of \p key into \p out. Returns false on miss; a torn,
  /// corrupted, mis-keyed or truncated blob is a miss with a diagnostic in
  /// \p reason, never an exception. A plain missing file (the normal cold
  /// path) reports "no artifact".
  bool try_get(const ArtifactKey& key, std::vector<std::uint8_t>& out,
               std::string* reason = nullptr) const;

  /// One store entry as reported by list().
  struct Entry {
    ArtifactKey key;            ///< Parsed from the filename; for an
                                ///< unrecognized name, kind holds the
                                ///< filename and fingerprint is 0.
    std::uintmax_t bytes = 0;   ///< On-disk size.
    bool ok = false;            ///< Full envelope check (magic, CRC, key
                                ///< echo, payload length) passed.
    std::string status;         ///< "ok" or the try_get reject reason.
  };

  /// Read-only inventory of every `*.art` blob directly under root():
  /// filename-parsed key, size, and integrity status through the same
  /// never-throw load path try_get uses. Deterministic order (kind, then
  /// fingerprint). A missing or unreadable root yields an empty list.
  std::vector<Entry> list() const;

 private:
  std::string root_;
};

}  // namespace finser::pipeline
