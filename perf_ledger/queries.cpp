/// \file queries.cpp
/// \brief Serve query generation and reply checks (see queries.hpp).

#include "queries.hpp"

#include <cmath>
#include <cstdio>

#include "finser/util/json.hpp"

namespace perf_ledger {

Query draw_query(stats::Rng& rng,
                 const std::vector<const surface::ResponseSurface*>& surfs) {
  Query q;
  q.pof = rng.uniform_index(4) != 0;
  q.surf = surfs[rng.uniform_index(surfs.size())];
  const surface::ResponseSurface& s = *q.surf;
  if (rng.uniform_index(10) == 0) {
    q.vdd = s.vdds[rng.uniform_index(s.vdds.size())];
    q.energy_mev = s.bins[rng.uniform_index(s.bins.size())].e_rep_mev;
  } else {
    // The paper's supply range; points off the surface's grid clamp.
    q.vdd = rng.uniform(0.7, 1.1);
    const double lo = std::log(s.bins.front().e_lo_mev);
    const double hi = std::log(s.bins.back().e_hi_mev);
    q.energy_mev = std::exp(rng.uniform(lo, hi));
  }
  q.with_pv = rng.uniform_index(4) != 0;
  return q;
}

std::string format_query(std::uint64_t id, const std::string& scenario,
                         const Query& q) {
  char buf[320];
  if (q.pof) {
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%llu,\"op\":\"pof\",\"scenario\":\"%s\","
                  "\"species\":\"%s\",\"vdd\":%.17g,\"energy_mev\":%.17g,"
                  "\"with_pv\":%s}",
                  static_cast<unsigned long long>(id), scenario.c_str(),
                  q.surf->species.c_str(), q.vdd, q.energy_mev,
                  q.with_pv ? "true" : "false");
  } else {
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%llu,\"op\":\"fit\",\"scenario\":\"%s\","
                  "\"species\":\"%s\",\"vdd\":%.17g,\"with_pv\":%s}",
                  static_cast<unsigned long long>(id), scenario.c_str(),
                  q.surf->species.c_str(), q.vdd,
                  q.with_pv ? "true" : "false");
  }
  return buf;
}

bool reply_matches(const std::string& line, const Query& q) {
  try {
    const util::JsonValue r = util::JsonValue::parse(line);
    if (r.at("status").as_string() != "ok") return false;
    const surface::ResponseSurface& s = *q.surf;
    if (q.pof) {
      const surface::PofSample p = s.pof(q.vdd, q.energy_mev, q.with_pv);
      return r.at("pof_tot").as_double() == p.tot &&
             r.at("pof_seu").as_double() == p.seu &&
             r.at("pof_mbu").as_double() == p.mbu &&
             r.at("pof_tot_se").as_double() == p.tot_se &&
             r.at("grid_point").as_bool() ==
                 (s.is_grid_vdd(q.vdd) && s.is_grid_energy(q.energy_mev));
    }
    const surface::FitSample f = s.fit(q.vdd, q.with_pv);
    return r.at("fit_tot").as_double() == f.tot &&
           r.at("fit_seu").as_double() == f.seu &&
           r.at("fit_mbu").as_double() == f.mbu &&
           r.at("grid_point").as_bool() == s.is_grid_vdd(q.vdd);
  } catch (const std::exception&) {
    return false;  // malformed or incomplete reply
  }
}

bool reply_ok(const std::string& line) {
  return line.find("\"status\":\"ok\"") != std::string::npos;
}

}  // namespace perf_ledger
