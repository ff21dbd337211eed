#include <gtest/gtest.h>

#include "finser/util/config.hpp"

namespace finser::util {
namespace {

TEST(Config, EditDistanceIsLevenshtein) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("strikes", "strikse"), 2u);  // transpose = 2 edits
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("seed", "sed"), 1u);
}

TEST(Config, NearestKeyCapsDistanceAtTwo) {
  const std::vector<std::string> keys = {"strikes", "seed", "rows"};
  EXPECT_EQ(nearest_key("strikse", keys), "strikes");
  EXPECT_EQ(nearest_key("sed", keys), "seed");
  EXPECT_EQ(nearest_key("completely_different", keys), "");
  // An exact match is not a suggestion.
  EXPECT_EQ(nearest_key("seed", {"seed"}), "");
  // Deterministic tie-break: smaller distance first, then list order.
  EXPECT_EQ(nearest_key("ac", std::vector<std::string>{"ab", "ac1", "ad"}),
            "ab");
}

}  // namespace
}  // namespace finser::util
