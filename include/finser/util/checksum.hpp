#pragma once
/// \file checksum.hpp
/// \brief CRC-32 payload checksums for on-disk artifacts.
///
/// Artifacts are binary files that long campaigns write and re-read across
/// process lifetimes; a torn write, a truncated copy or a flipped bit must be
/// *detected* (and the artifact regenerated) rather than silently parsed into
/// garbage statistics. Every finser binary record is therefore sealed with a
/// CRC-32 (the reflected 0xEDB88320 polynomial, as used by zlib/PNG) over its
/// body — by util/sealed_record.hpp, the one caller of crc32().

#include <cstddef>
#include <cstdint>

namespace finser::util {

/// CRC-32 of \p size bytes at \p data, continuing from \p seed (pass the
/// previous return value to checksum a payload in pieces; start with 0).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

}  // namespace finser::util
