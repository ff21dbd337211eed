#pragma once
/// \file client.hpp
/// \brief Closed-loop NDJSON client over a child's stdin/stdout pipes.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "proc.hpp"

namespace perf_ledger {

/// Keeps up to \p window requests in flight and sends the next request as
/// each reply arrives (a closed loop: a slow server receives less load).
/// Every request line must start with `{"id":N,`; replies must come back in
/// request order and echo that prefix. Appends one latency per request to
/// \p latency_s (reply read − request written) and calls \p on_reply with
/// the request index and reply line. Returns false on an I/O error, a
/// mismatched reply, or no reply within \p timeout_s.
class NdjsonClient {
 public:
  explicit NdjsonClient(Child& child) : child_(child) {}

  bool run(const std::vector<std::string>& requests, std::size_t window,
           std::vector<double>& latency_s,
           const std::function<void(std::size_t, const std::string&)>& on_reply,
           double timeout_s = 60.0);

 private:
  bool take_buffered(std::string& line);
  bool next_line(std::string& line, double timeout_s);

  Child& child_;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace perf_ledger
