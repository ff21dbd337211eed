/// \file test_shard_report.cpp
/// \brief The shard report-line grammar (shard/worker.hpp): the supervisor
/// trusts `hb` and the `done`/`failed` lines of the assignment a worker
/// holds, and nothing else — another stage, another attempt, a truncated or
/// mutated line is malformed, never a completion.

#include <gtest/gtest.h>

#include <string>

#include "finser/shard/worker.hpp"

namespace finser::shard {
namespace {

const std::string kHeld = "2-sweep-a 1";  // "<stage-id> <attempt>"

TEST(ShardReport, HeartbeatIsTrustedIdleOrBusy) {
  EXPECT_EQ(classify_report("hb", ""), Report::kHeartbeat);
  EXPECT_EQ(classify_report("hb", kHeld), Report::kHeartbeat);
}

TEST(ShardReport, DoneAndFailedNameTheHeldAssignment) {
  EXPECT_EQ(classify_report("done 2-sweep-a 1", kHeld), Report::kDone);

  std::string why;
  EXPECT_EQ(classify_report("failed 2-sweep-a 1 solver gave up: step 3",
                            kHeld, &why),
            Report::kFailed);
  EXPECT_EQ(why, "solver gave up: step 3");
  EXPECT_EQ(classify_report("failed 2-sweep-a 1", kHeld, &why),
            Report::kFailed);
  EXPECT_EQ(why, "");
}

TEST(ShardReport, EveryOtherLineIsMalformed) {
  for (const char* line :
       {"", "HB", "hb ", " hb", "done", "done 2-sweep-a", "done 2-sweep-a 2",
        "done 2-sweep-a 12", "done 2-sweep-ab 1", "done 3-sweep-b 1",
        "done 2-sweep-a 1 ", "done  2-sweep-a 1", "failed 2-sweep-a 12 x",
        "failed 3-sweep-b 1 x", "failed", "running 2-sweep-a 1", "ok"}) {
    EXPECT_EQ(classify_report(line, kHeld), Report::kMalformed)
        << "`" << line << "`";
  }
  // An idle worker has nothing to report on but its liveness.
  EXPECT_EQ(classify_report("done 2-sweep-a 1", ""), Report::kMalformed);
  EXPECT_EQ(classify_report("failed 2-sweep-a 1 x", ""), Report::kMalformed);
}

TEST(ShardReport, EveryTruncationAndBitFlipOfDoneIsMalformed) {
  const std::string done = "done " + kHeld;
  for (std::size_t n = 0; n < done.size(); ++n) {
    EXPECT_EQ(classify_report(done.substr(0, n), kHeld), Report::kMalformed)
        << "prefix of " << n << " bytes";
  }
  for (std::size_t bit = 0; bit < 8 * done.size(); ++bit) {
    std::string bad = done;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_EQ(classify_report(bad, kHeld), Report::kMalformed)
        << "flip of bit " << bit;
  }
}

}  // namespace
}  // namespace finser::shard
