#pragma once
/// \file tracer.hpp
/// \brief In-memory spans recorded around the benchmark's calls into each
/// layer, written as Chrome-trace JSON when the run ends.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perf_ledger {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root.
    double start_s = 0.0;
    double end_s = 0.0;
    unsigned tid = 0;
  };

  /// RAII span. The parent defaults to the innermost open span of the
  /// calling thread; calls made on pool threads pass theirs explicitly.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    Scope(Tracer& tracer, std::string name, std::uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint64_t id_;
    std::uint64_t saved_current_;
  };

  Tracer();

  std::vector<Span> spans() const;
  /// Σ over spans named \p name of their duration.
  double total_s(const std::string& name) const;
  /// Σ over spans named \p name of their self time: duration minus the
  /// part of it that the union of their child spans covers.
  double self_s(const std::string& name) const;

  /// Chrome-trace ("traceEvents", complete events) file; false on error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::uint64_t begin(std::string name, std::uint64_t parent);
  void end(std::uint64_t id);

  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_; index = id - 1.
  double origin_s_;
};

}  // namespace perf_ledger
