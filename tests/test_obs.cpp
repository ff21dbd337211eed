/// \file test_obs.cpp
/// \brief finser::obs unit tests: metric primitives, the registry, the JSON
/// layer's round-trip guarantees, the RunReport schema, and the headline
/// contract — the report's "metrics" section is byte-identical across
/// thread counts for the same seed.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>

#include "finser/core/array_mc.hpp"
#include "finser/obs/obs.hpp"
#include "finser/obs/report.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace finser::obs {
namespace {

/// Every test runs with a clean registry and leaves collection off, so the
/// tests compose in one process in any order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_trace_enabled(false);
    set_enabled(false);
    Registry::global().reset();
  }
};

TEST_F(ObsTest, CounterAccumulatesAcrossThreads) {
  Counter& c = Registry::global().counter("t.counter");
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.total(), 8 * kPerThread);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST_F(ObsTest, IntHistogramBucketsByBitWidth) {
  IntHistogram& h = Registry::global().int_histogram("t.hist");
  h.record(0);   // bit_width 0 -> bucket 0
  h.record(1);   // bucket 1
  h.record(2);   // bucket 2
  h.record(3);   // bucket 2
  h.record(7);   // bucket 3
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 13u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  const auto b = h.buckets();
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 2u);
  EXPECT_EQ(b[3], 1u);
}

TEST_F(ObsTest, MacrosAreNoOpsWhenDisabled) {
  set_enabled(false);
  FINSER_OBS_COUNT("t.disabled", 5);
  FINSER_OBS_RECORD("t.disabled_hist", 5);
  set_enabled(true);
  const Snapshot s = Registry::global().snapshot();
  for (const auto& c : s.counters) EXPECT_NE(c.name, "t.disabled");
  for (const auto& h : s.histograms) EXPECT_NE(h.name, "t.disabled_hist");
}

TEST_F(ObsTest, ScopedSpanRecordsDuration) {
  { ScopedSpan span("t.span"); }
  { ScopedSpan span("t.span"); }
  // reset() zeroes rows but keeps their names, so spans that tests run
  // earlier in this process registered are listed with count 0.
  const Snapshot s = Registry::global().snapshot();
  const Snapshot::DurationRow* span = nullptr;
  for (const Snapshot::DurationRow& d : s.durations) {
    if (d.name == "t.span") {
      span = &d;
    } else {
      EXPECT_EQ(d.count, 0u) << d.name;
    }
  }
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 2u);
  EXPECT_GE(span->max_ns, span->min_ns);
}

TEST_F(ObsTest, UnsetGaugeReportsItsValueAsMax) {
  Gauge& g = Registry::global().gauge("t.gauge");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.max(), 7);
  Registry::global().reset();
  const Snapshot s = Registry::global().snapshot();
  const Snapshot::GaugeRow* row = nullptr;
  for (const Snapshot::GaugeRow& r : s.gauges) {
    if (r.name == "t.gauge") row = &r;
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->value, 0);
  EXPECT_EQ(row->max, 0);  // Not the INT64_MIN sentinel.
}

TEST_F(ObsTest, TraceEventsBufferOnlyWhenTracing) {
  { ScopedSpan span("t.untraced"); }
  EXPECT_TRUE(Registry::global().trace_events().empty());

  set_trace_enabled(true);
  { ScopedSpan span("t.traced", "t.traced label=1"); }
  const auto events = Registry::global().trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "t.traced label=1");

  // The aggregate stat keys off the static name, not the trace label.
  bool found = false;
  for (const auto& d : Registry::global().snapshot().durations) {
    found = found || d.name == "t.traced";
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, ChromeTraceDocumentShape) {
  set_trace_enabled(true);
  { ScopedSpan span("t.ev"); }
  const util::JsonValue doc = build_chrome_trace(Registry::global());
  ASSERT_TRUE(doc.contains("traceEvents"));
  const util::JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 1u);
  const util::JsonValue& e = events.at(0);
  EXPECT_EQ(e.at("ph").as_string(), "X");
  EXPECT_EQ(e.at("name").as_string(), "t.ev");
  EXPECT_GE(e.at("dur").as_double(), 0.0);
  for (const char* key : {"ts", "pid", "tid"}) EXPECT_TRUE(e.contains(key));
  // The serialized document must survive a parse round-trip unchanged.
  EXPECT_EQ(util::JsonValue::parse(doc.dump(0)), doc);
}

TEST_F(ObsTest, JsonRoundTripPreservesDocument) {
  util::JsonValue doc = util::JsonValue::object();
  doc["int"] = std::int64_t{-42};
  doc["uint"] = std::uint64_t{0xFFFFFFFFFFFFFFFFull};
  doc["pi"] = 3.141592653589793;
  doc["tiny"] = 4.9e-324;  // Denormal min: stresses %.17g fidelity.
  doc["flag"] = true;
  doc["none"] = util::JsonValue();
  doc["text"] = "quote \" slash \\ newline \n unicode é";
  util::JsonValue arr = util::JsonValue::array();
  for (int i = 0; i < 4; ++i) arr.push_back(i);
  doc["arr"] = std::move(arr);

  for (const int indent : {0, 2}) {
    const util::JsonValue back = util::JsonValue::parse(doc.dump(indent));
    EXPECT_EQ(back, doc) << "indent=" << indent;
    EXPECT_EQ(back.at("uint").as_uint(), 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(back.at("int").as_int(), -42);
    EXPECT_EQ(back.at("pi").as_double(), 3.141592653589793);
  }
}

TEST_F(ObsTest, JsonParserRejectsMalformedInput) {
  EXPECT_THROW(util::JsonValue::parse("{\"a\": 1,}"), util::Error);
  EXPECT_THROW(util::JsonValue::parse("{\"a\": 1} junk"), util::Error);
  EXPECT_THROW(util::JsonValue::parse("{\"a\": 1, \"a\": 2}"), util::Error);
  EXPECT_THROW(util::JsonValue::parse("[1, 2"), util::Error);
  EXPECT_THROW(util::JsonValue::parse(""), util::Error);
}

// Numbers follow RFC 8259's grammar: no plus sign, no bare or trailing
// decimal point, no leading zero.
TEST_F(ObsTest, JsonParserRejectsNumbersOutsideRfc8259) {
  for (const char* bad : {"+1", ".5", "1.", "01", "-01", "1.e5"}) {
    const std::string doc = std::string("{\"id\": ") + bad + "}";
    try {
      util::JsonValue::parse(doc);
      ADD_FAILURE() << doc << " parsed";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid number at byte 7"),
                std::string::npos)
          << doc << ": " << e.what();
    }
  }
  using Kind = util::JsonValue::Kind;
  EXPECT_EQ(util::JsonValue::parse("-0").kind(), Kind::kInt);
  EXPECT_EQ(util::JsonValue::parse("0").kind(), Kind::kUint);
  EXPECT_EQ(util::JsonValue::parse("-9223372036854775808").as_int(), INT64_MIN);
  EXPECT_EQ(util::JsonValue::parse("18446744073709551616").kind(), Kind::kDouble);
  EXPECT_EQ(util::JsonValue::parse("-0.5e-3").as_double(), -0.5e-3);
  EXPECT_EQ(util::JsonValue::parse("1E+2").as_double(), 100.0);
  EXPECT_EQ(util::JsonValue::parse("[0,-1e0]").size(), 2u);
  EXPECT_THROW(util::JsonValue::parse("1e400"), util::Error);
  EXPECT_THROW(util::JsonValue::parse("-"), util::Error);
}

/// "" when std::to_chars(v, general, 17) prints what snprintf("%.17g")
/// prints and util::append_json_double prints what the JSON writer printed
/// when it formatted with printf; else the printf text.
std::string g17_mismatch(double v) {
  char want[40], got[40];
  std::snprintf(want, sizeof want, "%.17g", v);
  char* const end =
      std::to_chars(got, got + sizeof got, v, std::chars_format::general, 17)
          .ptr;
  std::string printed = want;
  if (std::strpbrk(want, ".eEn") == nullptr) printed += ".0";
  std::string appended;
  util::append_json_double(appended, v);
  if (std::string(got, end) == want && appended == printed) return {};
  return want;
}

// The JSON writer's doubles are std::to_chars text, which must be exactly
// what printf's %.17g prints: at ±0, subnormals, the normal range's ends,
// integers up to 2^53, powers of ten on both sides of the switch between
// fixed and exponent form, and a million random bit patterns.
TEST(JsonNumbers, ToCharsPrintsWhatPrintfG17Prints) {
  std::vector<double> corners = {0.0,      -0.0,     5e-324,   -5e-324,
                                 DBL_MIN,  -DBL_MIN, DBL_MAX,  -DBL_MAX,
                                 std::nextafter(DBL_MIN, 0.0), 0.1, 1.0 / 3.0};
  for (int e = 0; e <= 53; ++e) {
    const double p = std::ldexp(1.0, e);
    corners.insert(corners.end(), {p, p - 1.0, -p, p + 1.0});
  }
  for (int k = -12; k <= 22; ++k) {
    const double t = std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
    corners.insert(corners.end(), {t, -t, std::nextafter(t, 0.0),
                                   std::nextafter(t, HUGE_VAL), 9.5 * t});
  }
  std::size_t mismatches = 0;
  std::string first;
  const auto check = [&](double v) {
    const std::string m = g17_mismatch(v);
    if (!m.empty() && mismatches++ == 0) first = m;
  };
  for (const double v : corners) check(v);
  std::mt19937_64 bits(20140601);
  std::size_t random = 0;
  while (random < 1000000) {
    const double v = std::bit_cast<double>(static_cast<std::uint64_t>(bits()));
    if (!std::isfinite(v)) continue;
    check(v);
    ++random;
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

// The parser reads every number as strtod does (from_chars on the common
// path), and rejects what strtod reads as ±inf: printf texts of random
// doubles at every precision, and the underflow and overflow edges.
TEST(JsonNumbers, ParserReadsWhatStrtodReads) {
  const auto same = [](const std::string& text) {
    const double want = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(want)) {
      try {
        util::JsonValue::parse(text);
        return false;
      } catch (const util::Error&) {
        return true;
      }
    }
    const double got = util::JsonValue::parse(text).as_double();
    return std::bit_cast<std::uint64_t>(got) ==
           std::bit_cast<std::uint64_t>(want);
  };
  for (const char* text :
       {"2e-324", "1e-400", "-1e-400", "2.4703282292062328e-324",
        "2.4703282292062327e-324", "4.9406564584124654e-324",
        "1.7976931348623157e308", "-2.2250738585072011e-308", "1e22", "1e23",
        "9007199254740993", "18446744073709551616", "1.7976931348623159e308",
        "-1e400"}) {
    EXPECT_TRUE(same(text)) << text;
  }
  std::mt19937_64 bits(7);
  std::size_t mismatches = 0;
  std::string first;
  for (int i = 0; i < 200000;) {
    const double v = std::bit_cast<double>(static_cast<std::uint64_t>(bits()));
    if (!std::isfinite(v)) continue;
    char text[40];
    std::snprintf(text, sizeof text, "%.*g", 1 + i % 17, v);
    if (!same(text) && mismatches++ == 0) first = text;
    ++i;
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

// as_uint and as_int read a double only when it is an exact integer in
// range, and check the range before casting (the cast of an out-of-range
// double is undefined behaviour): at 2^64, 2^63 and -2^63 and one step
// inside each.
TEST(JsonNumbers, IntegerAccessorsRejectOutOfRangeDoubles) {
  const auto value = [](double v) { return util::JsonValue(v); };
  EXPECT_THROW(value(0x1p64).as_uint(), util::Error);
  EXPECT_THROW(value(1e20).as_uint(), util::Error);
  EXPECT_THROW(util::JsonValue::parse("18446744073709551616").as_uint(),
               util::Error);
  EXPECT_EQ(value(std::nextafter(0x1p64, 0.0)).as_uint(),
            0xFFFFFFFFFFFFF800ull);
  EXPECT_EQ(value(1e19).as_uint(), 10000000000000000000ull);

  EXPECT_THROW(value(0x1p63).as_int(), util::Error);
  EXPECT_EQ(value(std::nextafter(0x1p63, 0.0)).as_int(),
            std::int64_t{0x7FFFFFFFFFFFFC00});
  EXPECT_EQ(value(-0x1p63).as_int(), INT64_MIN);
  EXPECT_THROW(value(std::nextafter(-0x1p63, -HUGE_VAL)).as_int(),
               util::Error);
  EXPECT_THROW(value(1e300).as_int(), util::Error);
}

TEST_F(ObsTest, RunReportValidatesAndRoundTrips) {
  FINSER_OBS_COUNT("t.report_counter", 7);
  FINSER_OBS_RECORD("t.report_hist", 12);
  { ScopedSpan span("t.report_span"); }

  RunInfo info;
  info.tool = "test";
  info.command = "unit";
  info.seed = 99;
  info.threads = 4;
  info.mc_scale = 0.5;
  info.config_fingerprint = 0xDEADBEEFCAFEF00Dull;
  const util::JsonValue doc =
      build_run_report(Registry::global().snapshot(), info);

  EXPECT_EQ(validate_run_report(doc), "");
  EXPECT_EQ(doc.at("run").at("config_fingerprint").as_string(),
            "0xdeadbeefcafef00d");
  EXPECT_EQ(doc.at("run").at("seed").as_uint(), 99u);
  EXPECT_EQ(
      doc.at("metrics").at("counters").at("t.report_counter").as_uint(), 7u);

  // Serialized round trip: parse(dump) is the same document and still valid.
  const util::JsonValue back = util::JsonValue::parse(doc.dump(2));
  EXPECT_EQ(back, doc);
  EXPECT_EQ(validate_run_report(back), "");

  // Validation rejects structural damage.
  util::JsonValue broken = doc;
  broken["schema"] = "not.a.run.report";
  EXPECT_NE(validate_run_report(broken), "");
  EXPECT_NE(validate_run_report(util::JsonValue::parse("{}")), "");
}

// ---------------------------------------------------------------------------
// The determinism contract: same seed, different thread counts, identical
// "metrics" JSON bytes. Exercises the full wired pipeline (exec + geom +
// core counters) through ArrayMc with a synthetic SPICE-free cell model.
// ---------------------------------------------------------------------------

sram::CellSoftErrorModel threshold_model(double vdd, double q_thresh_fc) {
  sram::PofTable t;
  t.vdd_v = vdd;
  t.q_max_fc = 0.4;
  for (auto& s : t.singles) {
    s.nominal_qcrit_fc = q_thresh_fc;
    s.total_samples = 2;
    s.qcrit_samples_fc = {0.8 * q_thresh_fc, 1.2 * q_thresh_fc};
  }
  const util::Axis axis({0.0, q_thresh_fc, 0.4});
  std::vector<double> v2(9, 1.0);
  v2[0] = 0.0;
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v2);
    t.pairs_nominal[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v2);
  }
  std::vector<double> v3(27, 1.0);
  v3[0] = 0.0;
  t.triple_pv = util::Grid3(axis, axis, axis, v3);
  t.triple_nominal = util::Grid3(axis, axis, axis, v3);
  sram::CellSoftErrorModel m;
  m.tables.push_back(std::move(t));
  return m;
}

std::string metrics_bytes_at(std::size_t threads) {
  Registry::global().reset();
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  const sram::CellSoftErrorModel model = threshold_model(0.8, 0.05);
  core::ArrayMcConfig cfg;
  cfg.strikes = 6000;
  cfg.threads = threads;
  core::ArrayMc mc(layout, model, cfg);
  (void)mc.run(phys::Species::kAlpha, 2.0, 20140601);
  return metrics_json(Registry::global().snapshot()).dump(2);
}

TEST_F(ObsTest, MetricsSectionByteIdenticalAcrossThreadCounts) {
  const std::string at1 = metrics_bytes_at(1);
  const std::string at4 = metrics_bytes_at(4);
  EXPECT_EQ(at1, at4);

  // And the section is non-trivial: the wired counters actually fired.
  const util::JsonValue m = util::JsonValue::parse(at1);
  const util::JsonValue& counters = m.at("counters");
  EXPECT_EQ(counters.at("core.array_mc.strikes").as_uint(), 6000u);
  EXPECT_GT(counters.at("core.array_mc.strike_hits").as_uint(), 0u);
  EXPECT_GT(counters.at("exec.chunks").as_uint(), 0u);
  EXPECT_EQ(counters.at("exec.items").as_uint(), 6000u);
  EXPECT_GT(counters.at("geom.grid_queries").as_uint(), 0u);
}

}  // namespace
}  // namespace finser::obs
