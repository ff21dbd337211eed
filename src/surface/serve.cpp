/// \file serve.cpp
/// \brief NDJSON serve loop: read, validate, batch, backpressure, drain.
///
/// A request line takes one of two readers. read_plain_request() takes the
/// common line — a flat object of known keys whose strings carry no escapes
/// and whose id is already in the form a reply prints — in one pass; every
/// other line goes through util::JsonValue::parse. Both fill the same
/// RequestFields, and validate() alone turns them into a queued Request or an
/// error reply. Replies are appended to one buffer with util's JSON writers
/// and written out at the points where a client must see them.

#include "finser/surface/serve.hpp"

#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <utility>

#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace finser::surface {

/// A request's known keys. A string or number field is set only when its
/// key is present with a value of that kind: validate() treats an absent
/// and a mistyped field alike, except `with_pv`, which must be a boolean
/// when present.
struct detail::RequestFields {
  std::string_view id;  ///< The id's reply text; empty when there is none.
  std::string_view op;  ///< Empty when absent or not a string.
  std::optional<std::string_view> scenario;
  std::optional<std::string_view> species;
  std::optional<double> vdd;
  std::optional<double> energy_mev;
  bool has_with_pv = false;
  std::optional<bool> with_pv;
};

struct ServeSession::Request {
  std::string id;  ///< Reply text of the id; empty when there is none.
  bool pof = true;  ///< `pof`, else `fit`.
  const ServeScenario* scenario = nullptr;  ///< Into catalog_.
  const std::string* species = nullptr;     ///< Into scenario->species.
  double vdd = 0.0;
  double energy_mev = 0.0;
  bool with_pv = true;
};

namespace {

/// Read \p line into \p f in one pass. Returns false — the line then goes
/// to util::JsonValue::parse — unless the line is a JSON object of distinct
/// known keys where `op`, `scenario` and `species` are strings without
/// escapes, `vdd` and `energy_mev` numbers, `with_pv` a boolean, and `id` a
/// string without escapes, a literal, or an integer other than `-0` (whose
/// text is then exactly what util::JsonValue::dump prints for it).
bool read_plain_request(std::string_view line, detail::RequestFields& f) {
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto skip_ws = [&] {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  };
  const auto next_is = [&](char c) { return p < end && *p == c; };
  const auto plain_string = [&](std::string_view& s) {
    if (!next_is('"')) return false;
    const char* const begin = ++p;
    for (; p < end; ++p) {
      const auto c = static_cast<unsigned char>(*p);
      if (c == '"') {
        s = std::string_view(begin, static_cast<std::size_t>(p++ - begin));
        return true;
      }
      if (c == '\\' || c < 0x20) return false;
    }
    return false;
  };
  const auto literal = [&](std::string_view word) {
    if (static_cast<std::size_t>(end - p) < word.size() ||
        std::string_view(p, word.size()) != word) {
      return false;
    }
    p += word.size();
    return true;
  };
  const auto number = [&](util::JsonNumber& n) {
    const char* const after = util::scan_json_number(p, end, n);
    if (after == nullptr) return false;
    p = after;
    return true;
  };

  enum Key : unsigned { kId, kOp, kScenario, kSpecies, kVdd, kEnergy, kWithPv };
  static constexpr std::string_view kKeys[] = {
      "id", "op", "scenario", "species", "vdd", "energy_mev", "with_pv"};
  unsigned seen = 0;
  util::JsonNumber num;
  skip_ws();
  if (!next_is('{')) return false;
  ++p;
  skip_ws();
  if (next_is('}')) {
    ++p;
  } else {
    for (;;) {
      skip_ws();
      std::string_view key;
      if (!plain_string(key)) return false;
      unsigned k = 0;
      while (k < std::size(kKeys) && kKeys[k] != key) ++k;
      if (k == std::size(kKeys) || (seen >> k & 1u) != 0) return false;
      seen |= 1u << k;
      skip_ws();
      if (!next_is(':')) return false;
      ++p;
      skip_ws();
      std::string_view s;
      switch (k) {
        case kId: {
          const char* const begin = p;
          if (next_is('"')) {
            if (!plain_string(s)) return false;
          } else if (!literal("true") && !literal("false") && !literal("null")) {
            if (!number(num) || num.kind == util::JsonValue::Kind::kDouble ||
                std::string_view(begin, static_cast<std::size_t>(p - begin)) ==
                    "-0") {
              return false;
            }
          }
          f.id = std::string_view(begin, static_cast<std::size_t>(p - begin));
          break;
        }
        case kOp:
          if (!plain_string(f.op)) return false;
          break;
        case kScenario:
          if (!plain_string(s)) return false;
          f.scenario = s;
          break;
        case kSpecies:
          if (!plain_string(s)) return false;
          f.species = s;
          break;
        case kVdd:
        case kEnergy:
          if (!number(num)) return false;
          (k == kVdd ? f.vdd : f.energy_mev) = num.d;
          break;
        default:  // kWithPv
          f.has_with_pv = true;
          if (literal("true")) {
            f.with_pv = true;
          } else if (literal("false")) {
            f.with_pv = false;
          } else {
            return false;
          }
      }
      skip_ws();
      if (next_is('}')) {
        ++p;
        break;
      }
      if (!next_is(',')) return false;
      ++p;
    }
  }
  skip_ws();
  return p == end;
}

/// Fill \p f from a parsed request object; \p id_text keeps the id's reply
/// text alive for f.id.
void read_document(const util::JsonValue& doc, detail::RequestFields& f,
                   std::string& id_text) {
  for (const auto& [key, v] : doc.items()) {
    if (key == "id") {
      id_text = v.dump();
      f.id = id_text;
    } else if (key == "op") {
      if (v.is_string()) f.op = v.as_string();
    } else if (key == "scenario") {
      if (v.is_string()) f.scenario = v.as_string();
    } else if (key == "species") {
      if (v.is_string()) f.species = v.as_string();
    } else if (key == "vdd") {
      if (v.is_number()) f.vdd = v.as_double();
    } else if (key == "energy_mev") {
      if (v.is_number()) f.energy_mev = v.as_double();
    } else if (key == "with_pv") {
      f.has_with_pv = true;
      if (v.is_bool()) f.with_pv = v.as_bool();
    }
  }
}

/// Reply bytes a batch accumulates before writing them to the stream.
constexpr std::size_t kWriteBlock = std::size_t{1} << 13;

/// `{["id":<id>,]"status":"<status>"` — the opening every reply shares.
/// The keys that follow are plain ASCII and need no escaping.
void open_reply(std::string& out, std::string_view id, const char* status) {
  out += '{';
  if (!id.empty()) {
    out += "\"id\":";
    out += id;
    out += ',';
  }
  out += "\"status\":\"";
  out += status;
  out += '"';
}

}  // namespace

ServeSession::ServeSession(std::vector<ServeScenario> catalog,
                           ServeConfig config, LookupFn lookup, RefineFn refine,
                           const exec::CancelToken* cancel)
    : catalog_(std::move(catalog)),
      config_(std::move(config)),
      lookup_(std::move(lookup)),
      refine_(std::move(refine)),
      cancel_(cancel) {
  FINSER_REQUIRE(!catalog_.empty(), "serve: empty scenario catalog");
  FINSER_REQUIRE(config_.max_pending > 0, "serve: max_pending must be >= 1");
}

std::string ServeSession::validate(const detail::RequestFields& f,
                                   Request& q) const {
  if (f.op != "fit" && f.op != "pof") {
    return "unknown op (expected fit|pof|stats|shutdown)";
  }
  q.pof = f.op == "pof";
  const std::string_view scenario =
      f.scenario ? *f.scenario : std::string_view(catalog_.front().name);
  q.scenario = nullptr;
  for (const ServeScenario& c : catalog_) {
    if (c.name == scenario) q.scenario = &c;
  }
  if (q.scenario == nullptr) {
    return "unknown scenario: " + std::string(scenario);
  }
  if (!f.species) return "missing species";
  q.species = nullptr;
  for (const std::string& sp : q.scenario->species) {
    if (sp == *f.species) q.species = &sp;
  }
  if (q.species == nullptr) {
    return "scenario '" + q.scenario->name + "' has no species '" +
           std::string(*f.species) + "'";
  }
  // The number readers reject NaN and ±inf, so a present number is finite.
  if (!f.vdd) return "missing or non-finite vdd";
  q.vdd = *f.vdd;
  if (q.pof) {
    if (!f.energy_mev) return "missing or non-finite energy_mev";
    q.energy_mev = *f.energy_mev;
  }
  if (f.has_with_pv) {
    if (!f.with_pv) return "with_pv must be a boolean";
    q.with_pv = *f.with_pv;
  }
  q.id = f.id;
  return {};
}

void ServeSession::write_status(std::string_view id, const char* status,
                                std::string_view reason) {
  open_reply(replies_, id, status);
  replies_ += ",\"reason\":";
  util::append_json_string(replies_, reason);
  replies_ += "}\n";
}

void ServeSession::write_answer(const Request& q, const ResponseSurface& s) {
  std::string& out = replies_;
  open_reply(out, q.id, "ok");
  out += q.pof ? ",\"op\":\"pof\",\"scenario\":" : ",\"op\":\"fit\",\"scenario\":";
  util::append_json_string(out, q.scenario->name);
  out += ",\"species\":";
  util::append_json_string(out, *q.species);
  out += ",\"vdd\":";
  util::append_json_double(out, q.vdd);
  if (q.pof) {
    out += ",\"energy_mev\":";
    util::append_json_double(out, q.energy_mev);
    out += q.with_pv ? ",\"with_pv\":true" : ",\"with_pv\":false";
    out += s.is_grid_vdd(q.vdd) && s.is_grid_energy(q.energy_mev)
               ? ",\"grid_point\":true,\"pof_tot\":"
               : ",\"grid_point\":false,\"pof_tot\":";
    const PofSample p = s.pof(q.vdd, q.energy_mev, q.with_pv);
    util::append_json_double(out, p.tot);
    out += ",\"pof_seu\":";
    util::append_json_double(out, p.seu);
    out += ",\"pof_mbu\":";
    util::append_json_double(out, p.mbu);
    out += ",\"pof_tot_se\":";
    util::append_json_double(out, p.tot_se);
  } else {
    out += q.with_pv ? ",\"with_pv\":true" : ",\"with_pv\":false";
    out += s.is_grid_vdd(q.vdd) ? ",\"grid_point\":true,\"fit_tot\":"
                                : ",\"grid_point\":false,\"fit_tot\":";
    const FitSample fit = s.fit(q.vdd, q.with_pv);
    util::append_json_double(out, fit.tot);
    out += ",\"fit_seu\":";
    util::append_json_double(out, fit.seu);
    out += ",\"fit_mbu\":";
    util::append_json_double(out, fit.mbu);
  }
  out += "}\n";
}

void ServeSession::write_stats(std::string_view id) {
  std::string& out = replies_;
  // `,"<key>":{"<name>":<row>,…}`: one section per kind of metric.
  const auto section = [&out](const char* key, const auto& rows,
                              const auto& write_row) {
    out += key;
    out += '{';
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out += ',';
      util::append_json_string(out, rows[i].name);
      out += ':';
      write_row(rows[i]);
    }
    out += '}';
  };
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  open_reply(out, id, "ok");
  out += ",\"op\":\"stats\"";
  section(",\"counters\":", snap.counters, [&out](const auto& row) {
    util::append_json_uint(out, row.total);
  });
  section(",\"histograms\":", snap.histograms, [&out](const auto& row) {
    out += "{\"count\":";
    util::append_json_uint(out, row.count);
    out += ",\"sum\":";
    util::append_json_uint(out, row.sum);
    out += ",\"min\":";
    util::append_json_uint(out, row.min);
    out += ",\"max\":";
    util::append_json_uint(out, row.max);
    out += '}';
  });
  section(",\"gauges\":", snap.gauges, [&out](const auto& row) {
    out += "{\"value\":";
    util::append_json_int(out, row.value);
    out += ",\"max\":";
    util::append_json_int(out, row.max);
    out += '}';
  });
  out += "}\n";
}

void ServeSession::send(std::ostream& out) {
  out.write(replies_.data(), static_cast<std::streamsize>(replies_.size()));
  out.flush();
  replies_.clear();
}

void ServeSession::flush(std::vector<Request>& pending, std::ostream& out,
                         bool cache_only) {
  if (pending.empty()) {
    send(out);
    return;
  }
  // One clock pair per batch, and the per-request counts added once.
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  bool refined = false;
  std::uint64_t hits = 0, answered = 0;
  FINSER_OBS_COUNT("serve.batches", 1);
  FINSER_OBS_RECORD("serve.batch_requests", pending.size());
  // The queue only grows between flushes, so its depth peaks here.
  FINSER_OBS_GAUGE("serve.pending", pending.size());
  for (const Request& q : pending) {
    const std::string& scenario = q.scenario->name;
    const ResponseSurface* s = lookup_ ? lookup_(scenario, *q.species) : nullptr;
    if (s != nullptr) ++hits;
    if (s == nullptr && !cache_only) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        cache_only = true;  // drain: no new simulations past this point
      } else {
        try {
          FINSER_OBS_COUNT("serve.refines", 1);
          refined = true;
          s = refine_(scenario, *q.species);
        } catch (const util::Cancelled&) {
          cache_only = true;
        } catch (const std::exception& e) {
          write_status(q.id, "error",
                       std::string("refinement failed: ") + e.what());
          degraded_ = true;
          FINSER_OBS_COUNT("serve.errors", 1);
          continue;
        }
      }
    }
    if (s == nullptr) {
      // Cache miss during a cache-only drain: the request is answered with
      // an explicit `cancelled` status rather than silently dropped.
      write_status(q.id, "cancelled", "draining: refinement not started");
      degraded_ = true;
      FINSER_OBS_COUNT("serve.cancelled", 1);
      continue;
    }
    write_answer(q, *s);
    ++answered;
    // A long batch hands its replies on in blocks, so the buffer stays
    // small; the stream is still flushed once, below.
    if (replies_.size() >= kWriteBlock) {
      out.write(replies_.data(), static_cast<std::streamsize>(replies_.size()));
      replies_.clear();
    }
  }
  pending.clear();
  send(out);
  if (hits > 0) FINSER_OBS_COUNT("serve.cache_hits", hits);
  if (answered > 0) FINSER_OBS_COUNT("serve.ok", answered);
  FINSER_OBS_GAUGE("serve.pending", 0);
  if (timed) {
    const std::uint64_t ns = obs::now_ns() - t0;
    if (refined) {
      FINSER_OBS_RECORD("serve.flush_refine_ms", ns / 1000000);
    } else {
      FINSER_OBS_RECORD("serve.flush_hit_us", ns / 1000);
    }
  }
}

int ServeSession::run(std::istream& in, std::ostream& out) {
  std::vector<Request> pending;
  pending.reserve(config_.max_pending);
  std::string line;
  util::JsonValue doc;  // a line the one-pass reader passed on, parsed
  std::string id_text;  // its id, in reply form
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
    detail::RequestFields f;
    if (!read_plain_request(line, f)) {
      FINSER_OBS_COUNT("serve.generic_parses", 1);
      try {
        doc = util::JsonValue::parse(line);
        if (!doc.is_object()) throw util::Error("request must be a JSON object");
      } catch (const std::exception& e) {
        write_status({}, "error", std::string("bad request: ") + e.what());
        send(out);
        degraded_ = true;
        FINSER_OBS_COUNT("serve.errors", 1);
        continue;
      }
      f = {};  // drop what the one-pass reader read before it gave up
      read_document(doc, f, id_text);
    }

    if (f.op == "shutdown") {
      flush(pending, out, /*cache_only=*/false);
      open_reply(replies_, f.id, "ok");
      replies_ += ",\"op\":\"shutdown\"}\n";
      send(out);
      shutdown = true;
      continue;
    }
    if (f.op == "stats") {
      // Flush first so the counters reflect every request received so far.
      flush(pending, out, /*cache_only=*/false);
      write_stats(f.id);
      send(out);
      continue;
    }

    // Query ops: validate against the catalog before queueing.
    Request q;
    const std::string reason = validate(f, q);
    if (!reason.empty()) {
      write_status(f.id, "error", reason);
      send(out);
      degraded_ = true;
      FINSER_OBS_COUNT("serve.errors", 1);
      continue;
    }

    // Backpressure: a full pending queue sheds instead of buffering without
    // bound. Shed responses are immediate (they may interleave ahead of the
    // queued requests' answers).
    if (pending.size() >= config_.max_pending) {
      write_status(f.id, "shed",
                   "pending queue full (max_pending=" +
                       std::to_string(config_.max_pending) + ")");
      send(out);
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
  return degraded_ ? 6 : 0;
}

}  // namespace finser::surface
