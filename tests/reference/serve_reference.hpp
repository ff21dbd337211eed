#pragma once
/// \file serve_reference.hpp
/// \brief The document-building serve loop: the tests' reference oracle.
///
/// ReferenceServeSession implements the NDJSON protocol of docs/serving.md
/// the straightforward way: every request line goes through
/// util::JsonValue::parse and every reply is built as a util::JsonValue and
/// dumped. It is the oracle surface::ServeSession — which reads the common
/// line in one pass and appends replies to a buffer — is pinned to: the
/// same input and hooks must give the same reply bytes and exit code
/// (ServeReference.* in tests/test_surface.cpp). Its `stats` reply lists
/// the counters only. Only test executables link this library
/// (finser_serve_reference).

#include <iosfwd>
#include <string>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/surface/serve.hpp"

namespace finser::surface {

class ReferenceServeSession {
 public:
  using LookupFn = ServeSession::LookupFn;
  using RefineFn = ServeSession::RefineFn;

  ReferenceServeSession(std::vector<ServeScenario> catalog, ServeConfig config,
                        LookupFn lookup, RefineFn refine,
                        const exec::CancelToken* cancel);

  /// ServeSession::run's contract: replies to \p out, exit code 0 or 6.
  int run(std::istream& in, std::ostream& out);

 private:
  struct Request;
  void flush(std::vector<Request>& pending, std::ostream& out,
             bool cache_only);
  void respond(std::ostream& out, const std::string& line);

  std::vector<ServeScenario> catalog_;
  ServeConfig config_;
  LookupFn lookup_;
  RefineFn refine_;
  const exec::CancelToken* cancel_;
  bool degraded_ = false;
};

}  // namespace finser::surface
