/// \file tracer.cpp
/// \brief Span recorder and Chrome-trace writer (see tracer.hpp).

#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

#include "finser/util/json.hpp"
#include "ledger.hpp"
#include "proc.hpp"

namespace perf_ledger {

namespace {

thread_local std::uint64_t t_current = 0;

unsigned this_tid() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned tid = next.fetch_add(1);
  return tid;
}

}  // namespace

Tracer::Tracer() : origin_s_(now_s()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : Scope(tracer, std::move(name), t_current) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t parent)
    : tracer_(tracer),
      id_(tracer.begin(std::move(name), parent)),
      saved_current_(t_current) {
  t_current = id_;
}

Tracer::Scope::~Scope() {
  tracer_.end(id_);
  t_current = saved_current_;
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.tid = this_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  s.start_s = now_s() - origin_s_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  const double t = now_s() - origin_s_;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_s = t;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::total_s(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans()) {
    if (s.name == name) sum += s.end_s - s.start_s;
  }
  return sum;
}

double Tracer::self_s(const std::string& name) const {
  const std::vector<Span> all = spans();
  double sum = 0.0;
  for (const Span& s : all) {
    if (s.name != name) continue;
    // Children may run concurrently on pool threads: subtract the union of
    // their intervals (clipped to the parent), not the sum of durations.
    std::vector<std::pair<double, double>> cover;
    for (const Span& c : all) {
      if (c.parent != s.id) continue;
      const double lo = std::max(c.start_s, s.start_s);
      const double hi = std::min(c.end_s, s.end_s);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s.start_s;
    for (const auto& [lo, hi] : cover) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    sum += (s.end_s - s.start_s) - covered;
  }
  return sum;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  util::JsonValue events = util::JsonValue::array();
  for (const Span& s : spans()) {
    util::JsonValue e = util::JsonValue::object();
    e["name"] = s.name;
    e["ph"] = "X";
    e["ts"] = 1e6 * s.start_s;
    e["dur"] = 1e6 * (s.end_s - s.start_s);
    e["pid"] = 1;
    e["tid"] = static_cast<std::uint64_t>(s.tid);
    util::JsonValue args = util::JsonValue::object();
    args["id"] = s.id;
    args["parent"] = s.parent;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  util::JsonValue doc = util::JsonValue::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  std::ofstream os(path);
  os << doc.dump(0) << "\n";
  return os.good();
}

}  // namespace perf_ledger
