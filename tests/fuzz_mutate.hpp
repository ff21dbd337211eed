#pragma once
/// \file fuzz_mutate.hpp
/// \brief The fuzz suites' deterministic mutation scheme: byte flips,
/// truncations, random-byte and dictionary insertions and duplicated spans,
/// drawn from a seeded stats::Rng (ConfigFuzz.*, ServeFuzz.*).

#include <cstdio>
#include <string>
#include <vector>

#include "finser/stats/rng.hpp"

namespace finser::fuzz {

/// Fragments that steer mutants toward the parsers' edge cases: structure
/// characters, escapes, numbers out of range, non-finite spellings and
/// stray punctuation.
inline const std::vector<std::string>& dictionary() {
  static const std::vector<std::string> tokens = {
      "{",      "}",     "[",      "]",     "\"",     ",",       ":",
      "\\",     "\\u",   "\\ud83d", "1e999", "-1e999", "1e-400",  "-",
      "+",      ".",     "e",      "0x1p3", "nan",   "inf",     "-0",
      "null",   "true",  "false",  "=",     "#",     ";",       "\n",
      "\r",     "\t",    " ",      "\"name\"", "\"scenarios\"",
      "18446744073709551616",      "-9223372036854775809",
      std::string(1, '\0'),        "\xff",  "\xc3\xa9"};
  return tokens;
}

inline std::string mutate(const std::string& seed, stats::Rng& rng) {
  std::string s = seed;
  const std::size_t rounds = 1 + rng.uniform_index(4);
  for (std::size_t m = 0; m < rounds; ++m) {
    const auto at = [&] { return rng.uniform_index(s.size() + 1); };
    switch (rng.uniform_index(5)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          const std::size_t i = rng.uniform_index(s.size());
          s[i] = static_cast<char>(s[i] ^ (1u << rng.uniform_index(8)));
        }
        break;
      case 1:  // truncate
        s.resize(at());
        break;
      case 2:  // insert random bytes
        s.insert(at(), std::string(1 + rng.uniform_index(4),
                                   static_cast<char>(rng.uniform_index(256))));
        break;
      case 3: {  // insert a dictionary token
        const auto& dict = dictionary();
        s.insert(at(), dict[rng.uniform_index(dict.size())]);
        break;
      }
      default: {  // duplicate a span
        const std::size_t a = at();
        const std::size_t b = a + rng.uniform_index(s.size() - a + 1);
        s.insert(at(), s.substr(a, b - a));
        break;
      }
    }
  }
  return s;
}

/// Printable form of a mutant for a failure message.
inline std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

}  // namespace finser::fuzz
