/// \file main.cpp
/// \brief perf_ledger: finser's benchmark program (README.md).
///
///   perf_ledger [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
///               [--ledger-out FILE]
///   perf_ledger --compare A.json B.json
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics. Exit code 0 means every
/// correctness check passed; 2 means bad usage or a missing program.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sched.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "finser/spice/batch.hpp"
#include "finser/util/io.hpp"
#include "finser/util/json.hpp"
#include "ledger.hpp"
#include "proc.hpp"

namespace fs = std::filesystem;
using namespace perf_ledger;
using finser::util::JsonValue;

namespace {

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 20140601;
  double seconds = 10.0;
  bool trace = false;
  std::string ledger_out;
  std::vector<std::string> compare;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perf_ledger: %s\n"
               "usage: perf_ledger [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                   [--ledger-out FILE]\n"
               "       perf_ledger --compare A.json B.json\n"
               "workloads: cold_campaign sweep_warm_model cluster_2x2 "
               "serve_mixed\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a != "--workload" && a != "--seed" && a != "--seconds" &&
        a != "--trace" && a != "--ledger-out" && a != "--compare") {
      usage("unknown option " + a);
    }
    if (i + 1 >= argc) usage(a + " needs a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed " + v);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("bad --seconds " + v);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (a == "--ledger-out") {
      o.ledger_out = v;
    } else {  // --compare
      if (i + 1 >= argc) usage("--compare needs two ledger files");
      o.compare = {v, argv[++i]};
    }
  }
  return o;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

JsonValue read_json(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!finser::util::read_file(path, bytes)) {
    throw std::runtime_error("cannot read " + path);
  }
  return JsonValue::parse(std::string(bytes.begin(), bytes.end()));
}

/// Commit of the source tree when it is a git checkout, else "unknown".
std::string source_revision(const std::string& work_dir) {
  const std::string log = work_dir + "/git.log";
  const fs::path root = fs::path(PERF_LEDGER_DIR).parent_path();
  // The ceiling keeps git from searching directories above the tree.
  const ChildResult r = run_child(
      {"/usr/bin/env", "GIT_CEILING_DIRECTORIES=" + root.parent_path().string(),
       "git", "-C", root.string(), "rev-parse", "HEAD"},
      log, 10.0);
  std::vector<std::uint8_t> bytes;
  if (r.exit_code != 0 || !finser::util::read_file(log, bytes)) return "unknown";
  std::string sha(bytes.begin(), bytes.end());
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha;
}

JsonValue machine_json(const Context& ctx) {
  JsonValue m = JsonValue::object();
  m["hardware_concurrency"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  m["usable_cpus"] = static_cast<std::uint64_t>(usable_cpus());
  m["threads"] = static_cast<std::uint64_t>(ctx.threads);
  m["lanes"] = static_cast<std::uint64_t>(finser::spice::lane_width());
  double load[1] = {-1.0};
  m["loadavg_1min"] = getloadavg(load, 1) == 1 ? load[0] : -1.0;
  m["revision"] = source_revision(ctx.work_dir);
  return m;
}

JsonValue metrics_json(const std::vector<Metric>& metrics,
                       const std::string& prefix = "") {
  JsonValue m = JsonValue::object();
  for (const Metric& x : metrics) {
    JsonValue v = JsonValue::object();
    v["value"] = x.value;
    v["unit"] = x.unit;
    m[prefix + x.name] = std::move(v);
  }
  return m;
}

void append_ledger(const std::string& path, const Context& ctx,
                   const JsonValue& machine, Workload w, bool trace,
                   const Outcome& out) {
  JsonValue doc = JsonValue::object();
  if (fs::exists(path)) doc = read_json(path);
  if (!doc.contains("runs")) doc["runs"] = JsonValue::array();
  JsonValue run = JsonValue::object();
  run["workload"] = workload_name(w);
  run["seed"] = ctx.seed;
  run["trace"] = trace;
  run["seconds"] = ctx.seconds;
  run["machine"] = machine;
  run["correct"] = out.correct();
  run["attempted"] = out.attempted;
  run["failed"] = out.failed;
  run["metrics"] = metrics_json(out.metrics);
  run["info"] = out.info;
  doc["runs"].push_back(std::move(run));
  const std::string text = doc.dump(1) + "\n";
  if (!finser::util::atomic_write_file(path, text.data(), text.size())) {
    throw std::runtime_error("cannot write " + path);
  }
}

void print_summary(Workload w, bool trace, const Outcome& out) {
  std::fprintf(stderr, "\n== %s (%s) ==\n", workload_name(w),
               trace ? "traced, per-layer" : "end-to-end");
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  info: %s\n", out.info.dump(0).c_str());
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", p.c_str());
  }
}

// --- compare -----------------------------------------------------------------

struct Side {
  std::vector<double> values;
  std::string unit;
  std::string machine;  ///< hardware_concurrency/threads/lanes.
};

std::string machine_key(const JsonValue& run) {
  const JsonValue& m = run.at("machine");
  return "hw=" + m.at("hardware_concurrency").dump() +
         " threads=" + m.at("threads").dump() + " lanes=" + m.at("lanes").dump();
}

std::map<std::string, Side> collect(const JsonValue& ledger) {
  std::map<std::string, Side> out;
  const JsonValue& runs = ledger.at("runs");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JsonValue& run = runs.at(i);
    const std::string prefix = run.at("workload").as_string() + " ";
    for (const auto& [name, m] : run.at("metrics").items()) {
      Side& s = out[prefix + name];
      s.values.push_back(m.at("value").as_double());
      s.unit = m.at("unit").as_string();
      const std::string key = machine_key(run);
      if (s.machine.empty()) s.machine = key;
      if (s.machine != key) s.machine = "mixed";
    }
  }
  return out;
}

int compare(const Options& o) {
  const std::map<std::string, Side> a = collect(read_json(o.compare[0]));
  const std::map<std::string, Side> b = collect(read_json(o.compare[1]));
  std::map<std::string, std::pair<double, bool>> bounds;  // bound, lower-better
  const JsonValue bench =
      read_json(std::string(PERF_LEDGER_DIR) + "/../BENCHMARK.json");
  for (const char* section : {"end_to_end", "per_layer"}) {
    const JsonValue& list = bench.at(section);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const JsonValue& m = list.at(i);
      bounds[m.at("name").as_string()] = {
          m.contains("bound") ? m.at("bound").as_double() : -1.0,
          m.at("better").as_string() == "lower"};
    }
  }
  std::printf("%-46s %-24s %-24s %8s  %s\n", "workload metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "verdict");
  for (const auto& [key, sa] : a) {
    const auto it = b.find(key);
    if (it == b.end()) continue;
    const Side& sb = it->second;
    const std::string metric = key.substr(key.find(' ') + 1);
    const auto bd = bounds.find(metric);
    const std::vector<double> qa = quartiles(sa.values);
    const std::vector<double> qb = quartiles(sb.values);
    const double ma = median(sa.values), mb = median(sb.values);
    const double change = ma != 0.0 ? (mb - ma) / std::fabs(ma) : 0.0;
    const double spread =
        std::max(ma != 0.0 ? (qa[2] - qa[0]) / std::fabs(ma) : 0.0,
                 mb != 0.0 ? (qb[2] - qb[0]) / std::fabs(mb) : 0.0);
    std::string verdict;
    if (sa.machine != sb.machine || sa.machine == "mixed") {
      verdict = "not comparable (" + sa.machine + " vs " + sb.machine + ")";
    } else if (bd == bounds.end()) {
      verdict = "not in BENCHMARK.json";
    } else {
      const double gain = bd->second.second ? -change : change;
      const double bound = bd->second.first;
      if (bound < 0.0) {
        verdict = "per-layer (no bound)";
      } else if (spread > bound) {
        verdict = "unresolved: spread exceeds bound";
      } else if (-gain > bound) {
        verdict = "WORSE beyond bound";
      } else if (gain > spread && gain > 0.0) {
        verdict = "better";
      } else {
        verdict = "within bound";
      }
    }
    char ca[64], cb[64];
    std::snprintf(ca, sizeof ca, "%.4g [%.4g, %.4g]", ma, qa[0], qa[2]);
    std::snprintf(cb, sizeof cb, "%.4g [%.4g, %.4g]", mb, qb[0], qb[2]);
    std::printf("%-46s %-24s %-24s %+7.1f%%  %s\n",
                (key + " (" + sa.unit + ")").c_str(), ca, cb, 100.0 * change,
                verdict.c_str());
  }
  return 0;
}

/// Removes the per-process work directory however the run ends.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (!opt.compare.empty()) return compare(opt);

    scrub_environment();
    Context ctx;
    ctx.seed = opt.seed;
    ctx.seconds = opt.seconds;
    ctx.threads = std::min<std::size_t>(4, usable_cpus());
    ctx.cli = FINSER_CLI_PATH;
    if (access(ctx.cli.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "perf_ledger: finser_cli not found at %s\n",
                   ctx.cli.c_str());
      return 2;
    }
    std::vector<Workload> selected;
    if (opt.workload == "all") {
      selected.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
    } else {
      Workload w{};
      if (!workload_from_name(opt.workload, w)) {
        usage("unknown workload " + opt.workload);
      }
      selected.push_back(w);
    }
    const WorkDir work(std::string(PERF_LEDGER_WORK_DIR) + "/" +
                       std::to_string(getpid()));
    ctx.work_dir = work.path();
    const JsonValue machine = machine_json(ctx);
    std::fprintf(stderr, "perf_ledger: seed %llu, %zu threads, lanes %s\n",
                 static_cast<unsigned long long>(ctx.seed), ctx.threads,
                 machine.at("lanes").dump().c_str());

    // The set-up (reference seed store, built cold through the CLI) is
    // shared by every workload of this invocation.
    Outcome setup;
    double setup_s = 0.0;
    const std::string seed_dir = ctx.work_dir + "/seed";
    if (!opt.trace) setup_s = run_setup(ctx, seed_dir, setup);

    JsonValue metrics = JsonValue::object();
    bool correct = setup.correct();
    std::uint64_t attempted = setup.attempted, failed = setup.failed;
    for (const std::string& p : setup.problems) {
      std::fprintf(stderr, "  CHECK FAILED: %s\n", p.c_str());
    }
    for (Workload w : selected) {
      Outcome out;
      if (opt.trace) {
        run_traced(ctx, w,
                   std::string(PERF_LEDGER_WORK_DIR) + "/trace-" +
                       workload_name(w) + ".json",
                   out);
      } else {
        run_end_to_end(ctx, w, seed_dir, out);
        out.add("setup_s", setup_s, "s");
        out.info["setup"] = setup.info;
      }
      print_summary(w, opt.trace, out);
      if (!opt.ledger_out.empty()) {
        append_ledger(opt.ledger_out, ctx, machine, w, opt.trace, out);
      }
      correct = correct && out.correct();
      attempted += out.attempted;
      failed += out.failed;
      const std::string prefix =
          selected.size() > 1 ? std::string(workload_name(w)) + "." : "";
      const JsonValue these = metrics_json(out.metrics, prefix);
      for (const auto& [name, v] : these.items()) metrics[name] = v;
    }

    JsonValue result = JsonValue::object();
    result["correct"] = correct;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = std::move(metrics);
    std::cout << result.dump(0) << std::endl;
    return correct && failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 1;
  }
}
