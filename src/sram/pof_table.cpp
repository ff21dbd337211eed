#include "finser/sram/pof_table.hpp"

#include <algorithm>
#include <cmath>

#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {

// ---------------------------------------------------------------------------
// SingleCdf
// ---------------------------------------------------------------------------

double SingleCdf::pof(double q_fc) const {
  if (total_samples == 0) return 0.0;
  const auto it = std::upper_bound(qcrit_samples_fc.begin(), qcrit_samples_fc.end(),
                                   q_fc);
  return static_cast<double>(it - qcrit_samples_fc.begin()) /
         static_cast<double>(total_samples);
}

double SingleCdf::pof_nominal(double q_fc) const {
  return q_fc >= nominal_qcrit_fc ? 1.0 : 0.0;
}

double SingleCdf::mean_qcrit_fc() const {
  if (qcrit_samples_fc.empty()) return kNeverFlips;
  double acc = 0.0;
  for (double q : qcrit_samples_fc) acc += q;
  return acc / static_cast<double>(qcrit_samples_fc.size());
}

double SingleCdf::stddev_qcrit_fc() const {
  const std::size_t n = qcrit_samples_fc.size();
  if (n < 2) return 0.0;
  const double mu = mean_qcrit_fc();
  double acc = 0.0;
  for (double q : qcrit_samples_fc) acc += (q - mu) * (q - mu);
  return std::sqrt(acc / static_cast<double>(n - 1));
}

// ---------------------------------------------------------------------------
// PofTable
// ---------------------------------------------------------------------------

double PofTable::pof(const StrikeCharges& c, bool with_pv) const {
  const bool has1 = c.i1_fc > kChargeEpsFc;
  const bool has2 = c.i2_fc > kChargeEpsFc;
  const bool has3 = c.i3_fc > kChargeEpsFc;
  const int mask = (has1 ? 1 : 0) | (has2 ? 2 : 0) | (has3 ? 4 : 0);

  switch (mask) {
    case 0:
      return 0.0;
    case 1:
      return with_pv ? singles[0].pof(c.i1_fc) : singles[0].pof_nominal(c.i1_fc);
    case 2:
      return with_pv ? singles[1].pof(c.i2_fc) : singles[1].pof_nominal(c.i2_fc);
    case 4:
      return with_pv ? singles[2].pof(c.i3_fc) : singles[2].pof_nominal(c.i3_fc);
    case 3: {  // I1 + I2
      const double p = with_pv ? pairs_pv[0](c.i1_fc, c.i2_fc)
                               : pairs_nominal[0](c.i1_fc, c.i2_fc);
      return with_pv ? p : std::round(p);
    }
    case 5: {  // I1 + I3
      const double p = with_pv ? pairs_pv[1](c.i1_fc, c.i3_fc)
                               : pairs_nominal[1](c.i1_fc, c.i3_fc);
      return with_pv ? p : std::round(p);
    }
    case 6: {  // I2 + I3
      const double p = with_pv ? pairs_pv[2](c.i2_fc, c.i3_fc)
                               : pairs_nominal[2](c.i2_fc, c.i3_fc);
      return with_pv ? p : std::round(p);
    }
    case 7: {
      const double p = with_pv ? triple_pv(c.i1_fc, c.i2_fc, c.i3_fc)
                               : triple_nominal(c.i1_fc, c.i2_fc, c.i3_fc);
      return with_pv ? p : std::round(p);
    }
    default:
      return 0.0;
  }
}

// ---------------------------------------------------------------------------
// CellSoftErrorModel
// ---------------------------------------------------------------------------

const PofTable& CellSoftErrorModel::at_vdd(double vdd_v) const {
  for (const PofTable& t : tables) {
    if (std::abs(t.vdd_v - vdd_v) < 1e-3) return t;
  }
  throw util::DomainError("CellSoftErrorModel: no table characterized at Vdd = " +
                          std::to_string(vdd_v));
}

double CellSoftErrorModel::pof(double vdd_v, const StrikeCharges& charges,
                               bool with_pv) const {
  return at_vdd(vdd_v).pof(charges, with_pv);
}

std::vector<double> CellSoftErrorModel::vdds() const {
  std::vector<double> out;
  out.reserve(tables.size());
  for (const PofTable& t : tables) out.push_back(t.vdd_v);
  return out;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void write_grid2(util::ByteWriter& w, const util::Grid2& g) {
  w.f64_vec(g.x_axis().points());
  w.f64_vec(g.y_axis().points());
  std::vector<double> vals;
  vals.reserve(g.x_axis().size() * g.y_axis().size());
  for (std::size_t i = 0; i < g.x_axis().size(); ++i) {
    for (std::size_t j = 0; j < g.y_axis().size(); ++j) vals.push_back(g.at(i, j));
  }
  w.f64_vec(vals);
}

util::Grid2 read_grid2(util::ByteReader& r) {
  auto xs = r.f64_vec();
  auto ys = r.f64_vec();
  auto vals = r.f64_vec();
  return util::Grid2(util::Axis(std::move(xs)), util::Axis(std::move(ys)),
                     std::move(vals));
}

void write_grid3(util::ByteWriter& w, const util::Grid3& g) {
  w.f64_vec(g.x_axis().points());
  w.f64_vec(g.y_axis().points());
  w.f64_vec(g.z_axis().points());
  std::vector<double> vals;
  vals.reserve(g.x_axis().size() * g.y_axis().size() * g.z_axis().size());
  for (std::size_t i = 0; i < g.x_axis().size(); ++i) {
    for (std::size_t j = 0; j < g.y_axis().size(); ++j) {
      for (std::size_t k = 0; k < g.z_axis().size(); ++k) {
        vals.push_back(g.at(i, j, k));
      }
    }
  }
  w.f64_vec(vals);
}

util::Grid3 read_grid3(util::ByteReader& r) {
  auto xs = r.f64_vec();
  auto ys = r.f64_vec();
  auto zs = r.f64_vec();
  auto vals = r.f64_vec();
  return util::Grid3(util::Axis(std::move(xs)), util::Axis(std::move(ys)),
                     util::Axis(std::move(zs)), std::move(vals));
}

void write_single(util::ByteWriter& w, const SingleCdf& s) {
  w.f64(s.nominal_qcrit_fc);
  w.u64(s.total_samples);
  w.u64(s.failed_samples);
  w.f64_vec(s.qcrit_samples_fc);
}

SingleCdf read_single(util::ByteReader& r) {
  SingleCdf s;
  s.nominal_qcrit_fc = r.f64();
  s.total_samples = static_cast<std::size_t>(r.u64());
  s.failed_samples = static_cast<std::size_t>(r.u64());
  s.qcrit_samples_fc = r.f64_vec();
  return s;
}

}  // namespace

void PofTable::write(util::ByteWriter& w) const {
  w.f64(vdd_v);
  w.f64(q_max_fc);
  w.u64(attempted_samples);
  w.u64(failed_samples);
  for (const auto& s : singles) write_single(w, s);
  for (const auto& g : pairs_pv) write_grid2(w, g);
  for (const auto& g : pairs_nominal) write_grid2(w, g);
  write_grid3(w, triple_pv);
  write_grid3(w, triple_nominal);
}

PofTable PofTable::read(util::ByteReader& r) {
  PofTable t;
  t.vdd_v = r.f64();
  t.q_max_fc = r.f64();
  t.attempted_samples = static_cast<std::size_t>(r.u64());
  t.failed_samples = static_cast<std::size_t>(r.u64());
  for (auto& s : t.singles) s = read_single(r);
  for (auto& g : t.pairs_pv) g = read_grid2(r);
  for (auto& g : t.pairs_nominal) g = read_grid2(r);
  t.triple_pv = read_grid3(r);
  t.triple_nominal = read_grid3(r);
  return t;
}

std::size_t CellSoftErrorModel::attempted_samples() const {
  std::size_t n = 0;
  for (const PofTable& t : tables) n += t.attempted_samples;
  return n;
}

std::size_t CellSoftErrorModel::failed_samples() const {
  std::size_t n = 0;
  for (const PofTable& t : tables) n += t.failed_samples;
  return n;
}

// GCC at -O3 misanalyzes the inlined vector growth inside ByteWriter as a
// zero-size-destination memmove (stringop-overflow false positive); every
// copy is bounds-checked by the writer itself.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
std::vector<std::uint8_t> encode_cell_model(const CellSoftErrorModel& model) {
  util::ByteWriter w;
  w.u64(model.tables.size());
  for (const PofTable& t : model.tables) t.write(w);
  return w.take();
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

CellSoftErrorModel decode_cell_model(const std::vector<std::uint8_t>& blob,
                                     std::uint64_t fingerprint) {
  util::ByteReader r(blob);
  CellSoftErrorModel model;
  const std::uint64_t count = r.u64();
  model.tables.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    model.tables.push_back(PofTable::read(r));
  }
  FINSER_REQUIRE(r.exhausted(), "cell model artifact: trailing bytes");
  model.config_fingerprint = fingerprint;
  return model;
}

}  // namespace finser::sram
