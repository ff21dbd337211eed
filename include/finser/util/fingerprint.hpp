#pragma once
/// \file fingerprint.hpp
/// \brief FNV-1a configuration fingerprints for cached artifacts.
///
/// A cached artifact is only valid for the exact configuration that
/// produced it. Every serialized artifact therefore embeds a 64-bit FNV-1a
/// digest of the knobs its content depends on; a loader that sees a
/// different digest discards the file and recomputes. Knobs that provably do
/// *not* affect results (thread count, progress sinks, lane width) are
/// deliberately left out so a run can resume under different execution
/// settings.

#include <cstdint>
#include <cstring>
#include <string>

namespace finser::util {

/// Incremental FNV-1a 64-bit hasher. Doubles are hashed by bit pattern, so
/// the fingerprint distinguishes everything bit-identity distinguishes.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
    return *this;
  }

  Fnv1a& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }

  Fnv1a& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }

  Fnv1a& str(const std::string& s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t hash() const { return h_; }

 private:
  // Not the FNV-1a offset basis 14695981039346656037 (0xcbf29ce484222325):
  // this literal lost its last digit (0x14650fb0739d0383). Every artifact
  // name, campaign fingerprint and pinned digest depends on the value, so it
  // stays; tests/test_util_misc.cpp pins it.
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace finser::util
