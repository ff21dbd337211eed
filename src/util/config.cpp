#include "finser/util/config.hpp"

#include <algorithm>

namespace finser::util {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Two-row Wagner-Fischer; row[j] = distance(a[0..i), b[0..j)).
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string nearest_key(const std::string& unknown,
                        const std::vector<std::string>& candidates) {
  constexpr std::size_t kMaxDistance = 2;
  std::string best;
  std::size_t best_d = kMaxDistance + 1;
  for (const std::string& c : candidates) {
    if (c == unknown) continue;
    const std::size_t d = edit_distance(unknown, c);
    if (d < best_d) {
      best = c;
      best_d = d;
    }
  }
  return best_d <= kMaxDistance ? best : std::string();
}

}  // namespace finser::util
