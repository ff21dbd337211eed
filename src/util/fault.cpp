#include "finser/util/fault.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "finser/util/error.hpp"

namespace finser::util {

namespace {

constexpr std::size_t kSiteCount = static_cast<std::size_t>(FaultSite::kCount);

const char* site_name(std::size_t i) {
  constexpr const char* kNames[kSiteCount] = {
      "io_write_fail",           "cache_flip", "newton_diverge",
      "kill_after_flush",        "worker_kill_after_claim",
      "heartbeat_stall"};
  return kNames[i];
}

struct SiteState {
  std::atomic<std::uint64_t> trigger{0};  // First firing hit; 0 = disabled.
  std::atomic<std::uint64_t> count{1};    // Width of the firing window.
  std::atomic<std::uint64_t> arg{0};      // Raw N/OFFSET field of the spec.
  std::atomic<std::uint64_t> hits{0};
};

struct Registry {
  std::array<SiteState, kSiteCount> sites;
  std::atomic<bool> any_enabled{false};
  std::once_flag env_once;
};

Registry& registry() {
  static Registry r;
  return r;
}

void apply_spec(const std::string& spec) {
  Registry& r = registry();
  for (SiteState& s : r.sites) {
    s.trigger.store(0, std::memory_order_relaxed);
    s.count.store(1, std::memory_order_relaxed);
    s.arg.store(0, std::memory_order_relaxed);
    s.hits.store(0, std::memory_order_relaxed);
  }
  bool any = false;

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;

    const std::size_t c1 = item.find(':');
    FINSER_REQUIRE(c1 != std::string::npos,
                   "FINSER_FAULT spec `" + item + "` is not <site>:<n>[:<count>]");
    const std::string name = item.substr(0, c1);
    const std::string rest = item.substr(c1 + 1);
    const std::size_t c2 = rest.find(':');
    const std::string n_str = rest.substr(0, c2);
    const std::string k_str =
        c2 == std::string::npos ? std::string() : rest.substr(c2 + 1);

    std::size_t site = kSiteCount;
    for (std::size_t i = 0; i < kSiteCount; ++i) {
      if (name == site_name(i)) site = i;
    }
    FINSER_REQUIRE(site < kSiteCount, "FINSER_FAULT: unknown site `" + name + "`");

    const auto parse_u64 = [&item](const std::string& text) {
      char* endp = nullptr;
      const unsigned long long v = std::strtoull(text.c_str(), &endp, 10);
      FINSER_REQUIRE(endp != text.c_str() && *endp == '\0',
                     "FINSER_FAULT: bad number in `" + item + "`");
      return static_cast<std::uint64_t>(v);
    };
    const std::uint64_t n = parse_u64(n_str);
    const std::uint64_t k = k_str.empty() ? 1 : parse_u64(k_str);
    FINSER_REQUIRE(k >= 1, "FINSER_FAULT: count must be >= 1 in `" + item + "`");

    SiteState& s = r.sites[site];
    s.arg.store(n, std::memory_order_relaxed);
    // cache_flip's argument is a byte offset; its counter trigger is the
    // first save. Counted sites trigger on hit N (1-based).
    const std::uint64_t trig =
        site == static_cast<std::size_t>(FaultSite::kCacheFlip) ? 1 : n;
    FINSER_REQUIRE(trig >= 1, "FINSER_FAULT: hit index must be >= 1 in `" + item + "`");
    s.trigger.store(trig, std::memory_order_relaxed);
    s.count.store(k, std::memory_order_relaxed);
    any = true;
  }
  r.any_enabled.store(any, std::memory_order_release);
}

void init_from_env() {
  std::call_once(registry().env_once, [] {
    const char* raw = std::getenv("FINSER_FAULT");
    if (raw != nullptr && raw[0] != '\0') apply_spec(raw);
  });
}

SiteState& site_state(FaultSite site) {
  return registry().sites[static_cast<std::size_t>(site)];
}

}  // namespace

void fault_configure(const std::string& spec) {
  init_from_env();  // Consume the once-flag so the env never overrides later.
  apply_spec(spec);
}

bool fault_fire(FaultSite site) {
  Registry& r = registry();
  init_from_env();
  if (!r.any_enabled.load(std::memory_order_acquire)) return false;
  SiteState& s = site_state(site);
  const std::uint64_t trigger = s.trigger.load(std::memory_order_relaxed);
  if (trigger == 0) return false;
  const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  return hit >= trigger && hit < trigger + s.count.load(std::memory_order_relaxed);
}

std::uint64_t fault_arg(FaultSite site) {
  init_from_env();
  return site_state(site).arg.load(std::memory_order_relaxed);
}

std::uint64_t fault_count(FaultSite site) {
  return site_state(site).hits.load(std::memory_order_relaxed);
}

}  // namespace finser::util
