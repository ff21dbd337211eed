#pragma once
/// \file bytes.hpp
/// \brief Bounds-checked little-endian byte codec for binary artifacts.
///
/// Artifacts and their payloads share one encoding discipline: raw IEEE-754
/// doubles and 64-bit counters, written in host order (finser artifacts are
/// machine-local caches, not interchange files). The reader is bounds-checked so a truncated or corrupted payload
/// surfaces as a typed util::Error instead of reading past the buffer —
/// the robustness layer turns that error into "regenerate", never a crash.
///
/// Round-tripping through this codec is bit-exact for doubles, which is what
/// makes a run resumed from the artifact store reproduce an uninterrupted
/// run to the last bit (docs/robustness.md).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "finser/util/error.hpp"

namespace finser::util {

/// Append-only byte buffer with typed writers.
class ByteWriter {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }

  void bytes(const void* data, std::size_t size) { raw(data, size); }

  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }

  /// Length-prefixed string: u64 length, then the bytes.
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span; throws util::Error on overrun.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size)
      : p_(static_cast<const std::uint8_t*>(data)), end_(p_ + size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  double f64() { return read<double>(); }

  void bytes(void* out, std::size_t size) {
    require(size);
    std::memcpy(out, p_, size);
    p_ += size;
  }

  std::vector<double> f64_vec() {
    const std::uint64_t n = u64();
    // An implausible length means corruption upstream of the CRC check (or a
    // format bug); refuse before attempting a multi-gigabyte allocation.
    FINSER_REQUIRE(n <= remaining() / sizeof(double),
                   "ByteReader: vector length exceeds remaining payload");
    std::vector<double> v(n);
    bytes(v.data(), n * sizeof(double));
    return v;
  }

  /// Length-prefixed string (ByteWriter::str). The claimed length is checked
  /// against the remaining payload before anything is allocated.
  std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining()) {
      throw Error("ByteReader: string length " + std::to_string(n) +
                  " exceeds remaining payload (" +
                  std::to_string(remaining()) + " bytes)");
    }
    std::string s(n, '\0');
    bytes(s.data(), n);
    return s;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool exhausted() const { return p_ == end_; }

 private:
  template <typename T>
  T read() {
    T v;
    bytes(&v, sizeof(T));
    return v;
  }

  void require(std::size_t size) {
    if (remaining() < size) {
      throw Error("ByteReader: truncated payload (need " + std::to_string(size) +
                  " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace finser::util
