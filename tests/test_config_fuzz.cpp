/// \file test_config_fuzz.cpp
/// \brief Deterministic mutation fuzzing of the campaign parser.
///
/// Every mutant of a small corpus of campaign documents — byte flips,
/// truncations, insertions and duplicated spans, drawn from a seeded
/// stats::Rng — must either parse or be rejected with
/// util::InvalidArgument, the exception the CLI maps to exit 2. Any other
/// exception (a bare util::Error, std::out_of_range, std::bad_alloc, ...)
/// would surface as an internal error for what is a configuration mistake.
/// The suite is part of the `unit` label, so the sanitizer jobs run it too.
/// The mutation scheme lives in fuzz_mutate.hpp, shared with ServeFuzz.*.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <typeinfo>
#include <vector>

#include "finser/pipeline/campaign.hpp"
#include "finser/stats/rng.hpp"
#include "fuzz_mutate.hpp"
#include "finser/util/error.hpp"

namespace finser {
namespace {

using fuzz::escaped;
using fuzz::mutate;

/// Run \p parse on \p mutants of every corpus entry; collect every mutant
/// that escapes with an exception other than util::InvalidArgument.
template <typename Parse>
std::vector<std::string> fuzz(const std::vector<std::string>& corpus,
                              std::uint64_t seed, std::size_t mutants,
                              Parse parse, std::size_t& accepted) {
  std::vector<std::string> escapes;
  stats::Rng rng(seed);
  for (const std::string& doc : corpus) {
    for (std::size_t k = 0; k < mutants; ++k) {
      const std::string mutant = mutate(doc, rng);
      try {
        parse(mutant);
        ++accepted;
      } catch (const util::InvalidArgument&) {
      } catch (const std::exception& e) {
        escapes.push_back(std::string(typeid(e).name()) + ": " + e.what() +
                          "\n  mutant: " + escaped(mutant));
      }
    }
  }
  return escapes;
}

std::vector<std::string> campaign_corpus() {
  // A minimal document, its full --print-config expansion, one with a
  // defaults block folding sampling and cluster settings into scenarios,
  // and one writing its counts in exponent form (integers only when exact
  // and in range).
  const std::string minimal = R"({"scenarios": [{"name": "a"}]})";
  return {
      minimal,
      pipeline::campaign_to_json(pipeline::parse_campaign_text(minimal))
          .dump(2),
      R"({
  "campaign": "fuzz", "seed": 7, "threads": 2,
  "artifact_dir": "art", "output_dir": "out",
  "defaults": {
    "rows": 3, "cols": 3, "vdds": [0.7, 0.8], "pv_samples": 12,
    "strikes": 4000, "pattern": "random", "pattern_seed": 9,
    "sampling": {"position": "importance", "qmc": "sobol",
                 "ci_target": 0.2, "ci_min_chunks": 4, "ci_growth": 1.5},
    "cluster": {"mode": "2x2", "share_fraction": 0.1, "pv_samples": 4,
                "quantum_fc": 0.005}
  },
  "scenarios": [
    {"name": "a", "species": ["alpha", "proton"], "sigma_vt": 0.04},
    {"name": "b", "seed": 11, "cnode_f": 2e-16, "temp_k": 350.0,
     "histories": 100, "species": ["neutron"], "cell_w_nm": 80.5}
  ]
})",
      R"({"seed": 2e7, "threads": 1e0,
  "scenarios": [{"name": "e", "rows": 3E0, "cols": 4e0, "strikes": 6e4,
                 "pv_samples": 2e2, "histories": 1.5e3, "pattern_seed": 1e1,
                 "seed": 1.8e19}]})"};
}

TEST(ConfigFuzz, CampaignMutantsParseOrThrowInvalidArgument) {
  std::size_t accepted = 0;
  const auto escapes =
      fuzz(campaign_corpus(), 20140601, 3000,
           [](const std::string& text) {
             (void)pipeline::parse_campaign_text(text);
           },
           accepted);
  EXPECT_TRUE(escapes.empty())
      << escapes.size() << " mutants escaped; first: " << escapes.front();
  // Some mutants (a flipped digit, a duplicated array element) stay
  // well-formed: the fuzzer also reaches the schema checks past the syntax.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace finser
