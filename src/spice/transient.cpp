#include "finser/spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "finser/util/error.hpp"

namespace finser::spice {

// ---------------------------------------------------------------------------
// Waveform
// ---------------------------------------------------------------------------

Waveform::Waveform(std::vector<std::string> names, std::vector<std::size_t> nodes)
    : names_(std::move(names)), nodes_(std::move(nodes)), data_(nodes_.size()) {
  FINSER_REQUIRE(names_.size() == nodes_.size(), "Waveform: name/node mismatch");
}

void Waveform::append(double t, const std::vector<double>& x) {
  times_.push_back(t);
  for (std::size_t p = 0; p < nodes_.size(); ++p) {
    const std::size_t n = nodes_[p];
    data_[p].push_back(n == kGround ? 0.0 : x[n]);
  }
}

void Waveform::clear() {
  times_.clear();
  for (std::vector<double>& d : data_) d.clear();
}

std::size_t Waveform::probe(const std::string& name) const {
  for (std::size_t p = 0; p < names_.size(); ++p) {
    if (names_[p] == name) return p;
  }
  throw util::InvalidArgument("Waveform::probe: no probe named " + name);
}

double Waveform::at(std::size_t p, double t) const {
  FINSER_REQUIRE(p < data_.size(), "Waveform::at: probe out of range");
  FINSER_REQUIRE(!times_.empty(), "Waveform::at: empty waveform");
  if (t <= times_.front()) return data_[p].front();
  if (t >= times_.back()) return data_[p].back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double f = (t - times_[lo]) / (times_[hi] - times_[lo]);
  return data_[p][lo] + f * (data_[p][hi] - data_[p][lo]);
}

double Waveform::final_value(std::size_t p) const {
  FINSER_REQUIRE(p < data_.size() && !data_[p].empty(),
                 "Waveform::final_value: empty probe");
  return data_[p].back();
}

double Waveform::min_value(std::size_t p) const {
  FINSER_REQUIRE(p < data_.size() && !data_[p].empty(),
                 "Waveform::min_value: empty probe");
  return *std::min_element(data_[p].begin(), data_[p].end());
}

double Waveform::max_value(std::size_t p) const {
  FINSER_REQUIRE(p < data_.size() && !data_[p].empty(),
                 "Waveform::max_value: empty probe");
  return *std::max_element(data_[p].begin(), data_[p].end());
}

void Waveform::write_csv(std::ostream& os) const {
  os << "time_s";
  for (const std::string& name : names_) os << ',' << name;
  os << '\n';
  char buf[40];
  for (std::size_t i = 0; i < times_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.9g", times_[i]);
    os << buf;
    for (std::size_t p = 0; p < data_.size(); ++p) {
      std::snprintf(buf, sizeof(buf), "%.9g", data_[p][i]);
      os << ',' << buf;
    }
    os << '\n';
  }
}

bool LatchStop::holds(double va, double vb) const {
  const double band = kLatchMargin * rail;
  const auto near = [band](double v, double level) {
    return std::abs(v - level) <= band;
  };
  return (near(va, rail) && near(vb, 0.0)) || (near(va, 0.0) && near(vb, rail));
}

}  // namespace finser::spice
