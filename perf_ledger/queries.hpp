#pragma once
/// \file queries.hpp
/// \brief The serve hit mix and the in-process check of a reply.

#include <cstdint>
#include <string>
#include <vector>

#include "finser/stats/rng.hpp"
#include "finser/surface/response_surface.hpp"
#include "ledger.hpp"

namespace perf_ledger {

/// One generated query and the surface that must answer it.
struct Query {
  bool pof = true;
  const surface::ResponseSurface* surf = nullptr;
  double vdd = 0.0;
  double energy_mev = 0.0;
  bool with_pv = true;
};

/// The hit mix: pof:fit 3:1, species uniform over \p surfs, Vdd uniform
/// over 0.7-1.1 V, energy log-uniform over the species' bins, 10% exactly
/// on grid nodes, a quarter without process variation.
Query draw_query(stats::Rng& rng,
                 const std::vector<const surface::ResponseSurface*>& surfs);

/// NDJSON request line for \p q; the id comes first (the client matches
/// replies on it).
std::string format_query(std::uint64_t id, const std::string& scenario,
                         const Query& q);

/// True iff reply \p line is `ok` and carries exactly the in-process answer,
/// bit for bit (serve formats doubles with %.17g, which round-trips).
bool reply_matches(const std::string& line, const Query& q);

/// Cheap status test for replies that are not fully checked.
bool reply_ok(const std::string& line);

}  // namespace perf_ledger
