/// \file ledger.cpp
/// \brief Workload names and the order statistics of the ledger.

#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perf_ledger {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdCampaign: return "cold_campaign";
    case Workload::kSweepWarmModel: return "sweep_warm_model";
    case Workload::kCluster2x2: return "cluster_2x2";
    case Workload::kServeMixed: return "serve_mixed";
  }
  throw std::logic_error("unknown workload");
}

bool workload_from_name(const std::string& name, Workload& out) {
  for (Workload w : kAllWorkloads) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive"), n = 4, in exact integer math.
  const std::size_t m = ld + 1;
  std::vector<double> out;
  for (std::size_t i = 1; i < 4; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out.push_back((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0);
  }
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace perf_ledger
