#pragma once
/// \file config.hpp
/// \brief "Did you mean ...?" suggestions for configuration diagnostics.
///
/// The campaign parser rejects every unknown key and enum name; these
/// helpers turn the rejection into "unknown key `strikse` (did you mean
/// `strikes`?)" — a configuration that silently ignores a misspelled knob
/// is how wrong simulation campaigns get published.

#include <string>
#include <vector>

namespace finser::util {

/// Levenshtein edit distance (insert / delete / substitute, unit costs).
std::size_t edit_distance(const std::string& a, const std::string& b);

/// Nearest candidate within edit distance ≤ 2 of \p unknown, or "" when no
/// candidate is that close. Ties break toward the smaller distance, then the
/// first candidate in list order — deterministic, so error messages are
/// stable across runs.
std::string nearest_key(const std::string& unknown,
                        const std::vector<std::string>& candidates);

}  // namespace finser::util
