#pragma once
/// \file serve.hpp
/// \brief Long-lived NDJSON query loop over ResponseSurfaces
/// (docs/serving.md).
///
/// The session reads line-delimited JSON requests, answers POF/FIT queries
/// from cached surfaces where possible, and batches cache misses: requests
/// are accumulated while more input is already buffered and resolved
/// together at the blocking boundary, so one refinement run (which sweeps a
/// whole scenario through the lane-batched characterizer) serves every
/// queued request touching that scenario. A bounded pending queue provides
/// backpressure — requests arriving while the queue is full receive an
/// immediate `shed` response instead of unbounded buffering. SIGINT/SIGTERM
/// (via exec::CancelToken) drains cleanly: pending requests still
/// answerable from cache are answered, the rest are replied `cancelled`,
/// and the loop exits without starting new simulations.
///
/// The session itself knows nothing about how surfaces are produced — cache
/// lookup and refinement are injected callbacks (pipeline::SurfaceProvider
/// in practice), which keeps `finser::surface` free of a pipeline
/// dependency.
///
/// The common request line (a flat object of the known keys) is read in
/// one pass without building a util::JsonValue, and replies are appended to
/// one reused buffer with util's JSON writers, so a cache hit costs little
/// beyond the surface lookup. Every other line goes through
/// util::JsonValue::parse; both readers end in one validation step.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/surface/response_surface.hpp"

namespace finser::surface {

/// One scenario the server can answer for, with its species in sweep order
/// (the order is part of the identity: SerFlow's Monte-Carlo seed cursor
/// advances serially across the species of a scenario).
struct ServeScenario {
  std::string name;
  std::vector<std::string> species;
  double temp_k = 0.0;
};

namespace detail {
struct RequestFields;  // a request's known keys, as either reader found them
}  // namespace detail

struct ServeConfig {
  /// Maximum unanswered requests held before shedding (backpressure bound).
  std::size_t max_pending = 64;
};

class ServeSession {
 public:
  /// Cache-only lookup (memory or artifact) — must never simulate.
  /// Returns nullptr on a miss. The pointer must stay valid for the
  /// session's lifetime.
  using LookupFn = std::function<const ResponseSurface*(
      const std::string& scenario, const std::string& species)>;

  /// Refinement: build (and cache) every surface of \p scenario, return the
  /// one for \p species. May throw (util::Cancelled on cooperative
  /// cancellation, util::Error on failure).
  using RefineFn = LookupFn;

  ServeSession(std::vector<ServeScenario> catalog, ServeConfig config,
               LookupFn lookup, RefineFn refine, const exec::CancelToken* cancel);

  /// Run the request loop until EOF, a `shutdown` request, or cancellation.
  /// Responses go to \p out (one JSON object per line; the stream is
  /// flushed at batch boundaries and after each immediate reply); \p out
  /// must carry protocol traffic only.
  /// \returns the process exit code: 0 for a clean drain (every request
  /// answered ok), 6 (degraded) when any request was shed, malformed, failed
  /// or cancelled.
  int run(std::istream& in, std::ostream& out);

 private:
  struct Request;  // validated pending query
  std::string validate(const detail::RequestFields& f, Request& q) const;
  void flush(std::vector<Request>& pending, std::ostream& out,
             bool cache_only);
  void write_answer(const Request& q, const ResponseSurface& s);
  void write_stats(std::string_view id);
  void write_status(std::string_view id, const char* status,
                    std::string_view reason);
  void send(std::ostream& out);

  std::vector<ServeScenario> catalog_;
  ServeConfig config_;
  LookupFn lookup_;
  RefineFn refine_;
  const exec::CancelToken* cancel_;
  bool degraded_ = false;
  std::string replies_;  ///< Reply lines not yet written to the output.
};

}  // namespace finser::surface
