#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "finser/util/constants.hpp"
#include "finser/util/csv.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fingerprint.hpp"
#include "finser/util/units.hpp"

namespace finser::util {
namespace {

// ---------------------------------------------------------------------------
// Units / constants
// ---------------------------------------------------------------------------

TEST(Units, LengthRoundTrips) {
  EXPECT_DOUBLE_EQ(cm_to_nm(nm_to_cm(123.0)), 123.0);
  EXPECT_DOUBLE_EQ(nm_to_um(um_to_nm(0.25)), 0.25);
  EXPECT_DOUBLE_EQ(cm_to_um(um_to_cm(42.0)), 42.0);
}

TEST(Units, EnergyConversions) {
  EXPECT_DOUBLE_EQ(mev_to_ev(1.0), 1e6);
  EXPECT_DOUBLE_EQ(ev_to_mev(3.6), 3.6e-6);
  EXPECT_DOUBLE_EQ(kev_to_mev(80.0), 0.08);
  EXPECT_DOUBLE_EQ(mev_to_kev(0.08), 80.0);
}

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(fs_to_s(10.0), 1e-14);
  EXPECT_DOUBLE_EQ(s_to_fs(1e-14), 10.0);
  EXPECT_DOUBLE_EQ(hour_to_s(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(s_to_hour(7200.0), 2.0);
}

TEST(Units, ChargeAndFit) {
  EXPECT_DOUBLE_EQ(fc_to_c(1.0), 1e-15);
  EXPECT_DOUBLE_EQ(c_to_fc(1e-15), 1.0);
  EXPECT_DOUBLE_EQ(per_hour_to_fit(1e-9), 1.0);
}

TEST(Constants, ElectronChargeMatchesEv) {
  // 1 eV in J equals the elementary charge in C by definition.
  EXPECT_DOUBLE_EQ(kElementaryChargeC, kElectronVoltJ);
}

TEST(Constants, SiliconEhPairYield) {
  // 1 MeV deposited => ~278k pairs at 3.6 eV/pair.
  EXPECT_NEAR(mev_to_ev(1.0) / kSiliconEhPairEnergyEV, 277778.0, 1.0);
}

TEST(Constants, MassOrdering) {
  EXPECT_GT(kAlphaMassMeV, 3.9 * kProtonMassMeV);
  EXPECT_LT(kAlphaMassMeV, 4.0 * kProtonMassMeV);  // Binding energy deficit.
}

// ---------------------------------------------------------------------------
// Error machinery
// ---------------------------------------------------------------------------

TEST(Error, RequireThrowsWithContext) {
  try {
    FINSER_REQUIRE(1 == 2, "custom message");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_util_misc.cpp"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw DomainError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw Error("x"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, HeaderAndRows) {
  CsvTable t({"a", "b"});
  t.add_row({1.5, std::string("x")});
  t.add_row({2.0, std::string("y")});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1.5,x\n2,y\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvTable t({"c"});
  t.add_row({std::string("hello, \"world\"")});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "c\n\"hello, \"\"world\"\"\"\n");
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), InvalidArgument);
}

TEST(Csv, EmptyColumnsThrow) {
  EXPECT_THROW(CsvTable({}), InvalidArgument);
}

TEST(Csv, WritesFileWithParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "finser_csv_test";
  std::filesystem::remove_all(dir);
  CsvTable t({"x"});
  t.add_row({1.0});
  const std::string path = (dir / "sub" / "out.csv").string();
  t.write_csv_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::filesystem::remove_all(dir);
}

TEST(Csv, PrettyAlignsColumns) {
  CsvTable t({"col", "v"});
  t.add_row({std::string("long-entry"), 1.0});
  std::ostringstream os;
  t.write_pretty(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("long-entry"), std::string::npos);
}

TEST(Csv, CountsRowsAndColumns) {
  CsvTable t({"a", "b", "c"});
  EXPECT_EQ(t.column_count(), 3u);
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({1.0, 2.0, 3.0});
  EXPECT_EQ(t.row_count(), 1u);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Fnv1a starts from 0x14650fb0739d0383, not the FNV-1a offset basis
/// 0xcbf29ce484222325. Artifact names, campaign fingerprints and the pinned
/// fixture and benchmark digests all hash from this start, so "fixing" it
/// would orphan every store and fail those pins far from the cause.
TEST(Fnv1a, StartsFromTheHistoricalBasis) {
  EXPECT_EQ(Fnv1a().hash(), 0x14650fb0739d0383ull);
}

}  // namespace
}  // namespace finser::util
