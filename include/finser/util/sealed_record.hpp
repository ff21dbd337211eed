#pragma once
/// \file sealed_record.hpp
/// \brief The one framing of finser's on-disk binary records.
///
/// Artifact blobs (`FNSRART1`, pipeline/artifact_store.hpp) are sealed
/// records:
///
///   magic   8 bytes: the format and its version
///   body    the format's fields (util/bytes.hpp encoding)
///   crc     u32 CRC-32 of body
///
/// A reader checks, in this order and before any body byte is trusted: the
/// file exists, it reads, it is long enough to hold magic and CRC, the magic
/// matches, and the CRC matches. Only then is the body parsed, and a parse
/// failure — a length field past the payload, a mismatched key echo — is
/// one more reject. Nothing on this path throws: a bad record is a reason
/// string, and the caller recomputes (docs/robustness.md).

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "finser/util/bytes.hpp"

namespace finser::util {

/// Format tag at the head of a sealed record.
using RecordMagic = std::array<char, 8>;

/// Frame \p body as magic | body | CRC-32(body).
std::vector<std::uint8_t> seal_record(const RecordMagic& magic,
                                      const std::vector<std::uint8_t>& body);

/// Outcome of read_sealed_record().
enum class RecordStatus {
  kOk,        ///< Frame valid and the parser accepted the body.
  kMissing,   ///< No file at the path (the normal cold or polling case).
  kRejected,  ///< Unreadable, torn, corrupted or refused by the parser.
};

/// Parses a CRC-valid body. Returns "" to accept the record, else the reject
/// reason. An exception it throws (a ByteReader overrun) is a reject too,
/// with the exception's message as the reason.
using RecordParser = std::function<std::string(ByteReader& body)>;

/// Read and validate the sealed record at \p path, then hand its body to
/// \p parse. \p noun names the record in reject reasons: "too short to be
/// <noun> (N bytes)", "bad magic (not <noun>)", "CRC mismatch (torn or
/// corrupted record)". The reason of a kRejected read goes to \p reason
/// (if non-null). Never throws.
RecordStatus read_sealed_record(const std::string& path,
                                const RecordMagic& magic,
                                const std::string& noun,
                                const RecordParser& parse,
                                std::string* reason = nullptr);

}  // namespace finser::util
