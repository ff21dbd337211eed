#include "finser/util/sealed_record.hpp"

#include <cstring>
#include <exception>
#include <filesystem>

#include "finser/util/checksum.hpp"
#include "finser/util/io.hpp"

namespace finser::util {

std::vector<std::uint8_t> seal_record(const RecordMagic& magic,
                                      const std::vector<std::uint8_t>& body) {
  ByteWriter file;
  file.bytes(magic.data(), magic.size());
  file.bytes(body.data(), body.size());
  file.u32(crc32(body.data(), body.size()));
  return file.take();
}

RecordStatus read_sealed_record(const std::string& path,
                                const RecordMagic& magic,
                                const std::string& noun,
                                const RecordParser& parse,
                                std::string* reason) {
  const auto reject = [reason](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return RecordStatus::kRejected;
  };

  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return RecordStatus::kMissing;

  std::vector<std::uint8_t> raw;
  std::string io_error;
  if (!read_file(path, raw, &io_error)) return reject(io_error);

  if (raw.size() < magic.size() + sizeof(std::uint32_t)) {
    return reject("too short to be " + noun + " (" +
                  std::to_string(raw.size()) + " bytes)");
  }
  if (std::memcmp(raw.data(), magic.data(), magic.size()) != 0) {
    return reject("bad magic (not " + noun + ")");
  }

  // Integrity first, parsing second: the CRC over the whole body rejects
  // truncation and bit flips before any length field is trusted.
  const std::size_t body_size =
      raw.size() - magic.size() - sizeof(std::uint32_t);
  const std::uint8_t* body = raw.data() + magic.size();
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, body + body_size, sizeof(stored_crc));
  if (stored_crc != crc32(body, body_size)) {
    return reject("CRC mismatch (torn or corrupted record)");
  }

  try {
    ByteReader r(body, body_size);
    const std::string why = parse(r);
    if (!why.empty()) return reject(why);
  } catch (const std::exception& e) {
    // A corrupt length field that slipped past the CRC must degrade to a
    // reject, never crash the reader.
    return reject(e.what());
  }
  return RecordStatus::kOk;
}

}  // namespace finser::util
