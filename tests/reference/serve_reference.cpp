/// \file serve_reference.cpp
/// \brief The document-building serve loop (see serve_reference.hpp).

#include "serve_reference.hpp"

#include <istream>
#include <ostream>
#include <utility>

#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace finser::surface {

namespace {

bool is_finite_number(const util::JsonValue& v) {
  if (!v.is_number()) return false;
  const double d = v.as_double();
  return d == d && d - d == 0.0;  // finite: not NaN, not ±inf
}

}  // namespace

struct ReferenceServeSession::Request {
  util::JsonValue id;
  bool has_id = false;
  std::string op;  ///< "fit" or "pof".
  std::string scenario;
  std::string species;
  double vdd = 0.0;
  double energy_mev = 0.0;
  bool with_pv = true;
};

ReferenceServeSession::ReferenceServeSession(std::vector<ServeScenario> catalog,
                                             ServeConfig config, LookupFn lookup,
                                             RefineFn refine,
                                             const exec::CancelToken* cancel)
    : catalog_(std::move(catalog)),
      config_(std::move(config)),
      lookup_(std::move(lookup)),
      refine_(std::move(refine)),
      cancel_(cancel) {
  FINSER_REQUIRE(!catalog_.empty(), "serve: empty scenario catalog");
  FINSER_REQUIRE(config_.max_pending > 0, "serve: max_pending must be >= 1");
}

void ReferenceServeSession::respond(std::ostream& out, const std::string& line) {
  out << line << '\n';
}

void ReferenceServeSession::flush(std::vector<Request>& pending, std::ostream& out,
                         bool cache_only) {
  if (!pending.empty()) FINSER_OBS_COUNT("serve.batches", 1);
  for (const Request& q : pending) {
    const ResponseSurface* s = lookup_ ? lookup_(q.scenario, q.species) : nullptr;
    if (s != nullptr) FINSER_OBS_COUNT("serve.cache_hits", 1);
    if (s == nullptr && !cache_only) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        cache_only = true;  // drain: no new simulations past this point
      } else {
        try {
          FINSER_OBS_COUNT("serve.refines", 1);
          s = refine_(q.scenario, q.species);
        } catch (const util::Cancelled&) {
          cache_only = true;
        } catch (const std::exception& e) {
          util::JsonValue r = util::JsonValue::object();
          if (q.has_id) r["id"] = q.id;
          r["status"] = "error";
          r["reason"] = std::string("refinement failed: ") + e.what();
          respond(out, r.dump());
          degraded_ = true;
          FINSER_OBS_COUNT("serve.errors", 1);
          continue;
        }
      }
    }
    if (s == nullptr) {
      // Cache miss during a cache-only drain: the request is answered with
      // an explicit `cancelled` status rather than silently dropped.
      util::JsonValue r = util::JsonValue::object();
      if (q.has_id) r["id"] = q.id;
      r["status"] = "cancelled";
      r["reason"] = "draining: refinement not started";
      respond(out, r.dump());
      degraded_ = true;
      FINSER_OBS_COUNT("serve.cancelled", 1);
      continue;
    }
    util::JsonValue r = util::JsonValue::object();
    if (q.has_id) r["id"] = q.id;
    r["status"] = "ok";
    r["op"] = q.op;
    r["scenario"] = q.scenario;
    r["species"] = q.species;
    r["vdd"] = q.vdd;
    if (q.op == "pof") {
      r["energy_mev"] = q.energy_mev;
      r["with_pv"] = q.with_pv;
      r["grid_point"] =
          s->is_grid_vdd(q.vdd) && s->is_grid_energy(q.energy_mev);
      const PofSample p = s->pof(q.vdd, q.energy_mev, q.with_pv);
      r["pof_tot"] = p.tot;
      r["pof_seu"] = p.seu;
      r["pof_mbu"] = p.mbu;
      r["pof_tot_se"] = p.tot_se;
    } else {
      r["with_pv"] = q.with_pv;
      r["grid_point"] = s->is_grid_vdd(q.vdd);
      const FitSample f = s->fit(q.vdd, q.with_pv);
      r["fit_tot"] = f.tot;
      r["fit_seu"] = f.seu;
      r["fit_mbu"] = f.mbu;
    }
    respond(out, r.dump());
    FINSER_OBS_COUNT("serve.ok", 1);
  }
  pending.clear();
  out.flush();
}

int ReferenceServeSession::run(std::istream& in, std::ostream& out) {
  std::vector<Request> pending;
  pending.reserve(config_.max_pending);
  std::string line;
  bool shutdown = false;
  while (!shutdown) {
    if (cancel_ != nullptr && cancel_->cancelled()) break;
    // About to block on input with work queued? Resolve the batch first so
    // clients that wrote several requests in one burst get them answered by
    // one refinement pass, while a lone request never waits.
    if (!pending.empty() && in.rdbuf()->in_avail() <= 0) {
      flush(pending, out, /*cache_only=*/false);
      continue;  // re-check cancellation before blocking
    }
    if (!std::getline(in, line)) break;  // EOF, or EINTR after a signal
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    FINSER_OBS_COUNT("serve.requests", 1);
    util::JsonValue req;
    try {
      req = util::JsonValue::parse(line);
      if (!req.is_object()) throw util::Error("request must be a JSON object");
    } catch (const std::exception& e) {
      util::JsonValue r = util::JsonValue::object();
      r["status"] = "error";
      r["reason"] = std::string("bad request: ") + e.what();
      respond(out, r.dump());
      out.flush();
      degraded_ = true;
      FINSER_OBS_COUNT("serve.errors", 1);
      continue;
    }

    Request q;
    if (req.contains("id")) {
      q.has_id = true;
      q.id = req.at("id");
    }
    const std::string op =
        req.contains("op") && req.at("op").is_string()
            ? req.at("op").as_string()
            : std::string();

    if (op == "shutdown") {
      flush(pending, out, /*cache_only=*/false);
      util::JsonValue r = util::JsonValue::object();
      if (q.has_id) r["id"] = q.id;
      r["status"] = "ok";
      r["op"] = "shutdown";
      respond(out, r.dump());
      out.flush();
      shutdown = true;
      continue;
    }
    if (op == "stats") {
      // Flush first so the counters reflect every request received so far.
      flush(pending, out, /*cache_only=*/false);
      util::JsonValue r = util::JsonValue::object();
      if (q.has_id) r["id"] = q.id;
      r["status"] = "ok";
      r["op"] = "stats";
      util::JsonValue counters = util::JsonValue::object();
      for (const auto& row : obs::Registry::global().snapshot().counters) {
        counters[row.name] = row.total;
      }
      r["counters"] = std::move(counters);
      respond(out, r.dump());
      out.flush();
      continue;
    }

    // Query ops: validate against the catalog before queueing.
    const auto reject = [&](const std::string& reason) {
      util::JsonValue r = util::JsonValue::object();
      if (q.has_id) r["id"] = q.id;
      r["status"] = "error";
      r["reason"] = reason;
      respond(out, r.dump());
      out.flush();
      degraded_ = true;
      FINSER_OBS_COUNT("serve.errors", 1);
    };
    if (op != "fit" && op != "pof") {
      reject("unknown op (expected fit|pof|stats|shutdown)");
      continue;
    }
    q.op = op;
    q.scenario = req.contains("scenario") && req.at("scenario").is_string()
                     ? req.at("scenario").as_string()
                     : catalog_.front().name;
    const ServeScenario* scen = nullptr;
    for (const ServeScenario& c : catalog_) {
      if (c.name == q.scenario) scen = &c;
    }
    if (scen == nullptr) {
      reject("unknown scenario: " + q.scenario);
      continue;
    }
    if (!req.contains("species") || !req.at("species").is_string()) {
      reject("missing species");
      continue;
    }
    q.species = req.at("species").as_string();
    bool species_known = false;
    for (const std::string& sp : scen->species) {
      species_known = species_known || sp == q.species;
    }
    if (!species_known) {
      reject("scenario '" + q.scenario + "' has no species '" + q.species +
             "'");
      continue;
    }
    if (!req.contains("vdd") || !is_finite_number(req.at("vdd"))) {
      reject("missing or non-finite vdd");
      continue;
    }
    q.vdd = req.at("vdd").as_double();
    if (op == "pof") {
      if (!req.contains("energy_mev") ||
          !is_finite_number(req.at("energy_mev"))) {
        reject("missing or non-finite energy_mev");
        continue;
      }
      q.energy_mev = req.at("energy_mev").as_double();
    }
    if (req.contains("with_pv")) {
      if (!req.at("with_pv").is_bool()) {
        reject("with_pv must be a boolean");
        continue;
      }
      q.with_pv = req.at("with_pv").as_bool();
    }

    // Backpressure: a full pending queue sheds instead of buffering without
    // bound. Shed responses are immediate (they may interleave ahead of the
    // queued requests' answers).
    if (pending.size() >= config_.max_pending) {
      util::JsonValue r = util::JsonValue::object();
      if (q.has_id) r["id"] = q.id;
      r["status"] = "shed";
      r["reason"] = "pending queue full (max_pending=" +
                    std::to_string(config_.max_pending) + ")";
      respond(out, r.dump());
      out.flush();
      degraded_ = true;
      FINSER_OBS_COUNT("serve.shed", 1);
      continue;
    }
    pending.push_back(std::move(q));
  }

  // Drain: when cancelled, answer what the cache can and mark the rest
  // `cancelled`; on EOF/shutdown the queue resolves normally.
  const bool cancelled = cancel_ != nullptr && cancel_->cancelled();
  flush(pending, out, /*cache_only=*/cancelled);
  out.flush();
  return degraded_ ? 6 : 0;
}

}  // namespace finser::surface
