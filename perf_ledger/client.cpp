/// \file client.cpp
/// \brief Closed-loop NDJSON client (see client.hpp).

#include "client.hpp"

#include <cerrno>

#include <poll.h>
#include <unistd.h>

namespace perf_ledger {

bool NdjsonClient::take_buffered(std::string& line) {
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) return false;
  line.assign(buf_, pos_, nl - pos_);
  pos_ = nl + 1;
  if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

bool NdjsonClient::next_line(std::string& line, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (!take_buffered(line)) {
    const double left = deadline - now_s();
    if (left <= 0.0) return false;
    pollfd p{child_.stdout_fd(), POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[1 << 16];
    const ssize_t n = ::read(child_.stdout_fd(), chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // the child closed its stdout
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

bool NdjsonClient::run(
    const std::vector<std::string>& requests, std::size_t window,
    std::vector<double>& latency_s,
    const std::function<void(std::size_t, const std::string&)>& on_reply,
    double timeout_s) {
  std::vector<double> sent_at(requests.size(), 0.0);
  std::size_t sent = 0;
  std::size_t done = 0;
  std::string batch;
  std::string line;
  // Replies are matched to requests by order and checked by id prefix.
  const auto handle = [&]() {
    const std::string& req = requests[done];
    const std::size_t prefix = req.find(',') + 1;
    if (line.compare(0, prefix, req, 0, prefix) != 0) return false;
    latency_s.push_back(now_s() - sent_at[done]);
    if (on_reply) on_reply(done, line);
    ++done;
    return true;
  };
  while (done < requests.size()) {
    // Top the window up in one write, so a burst of replies is answered by
    // a burst of requests (which is what the server batches on).
    batch.clear();
    const std::size_t first = sent;
    while (sent < requests.size() && sent - done < window) {
      batch += requests[sent];
      batch += '\n';
      ++sent;
    }
    if (!batch.empty()) {
      const double t = now_s();
      for (std::size_t i = first; i < sent; ++i) sent_at[i] = t;
      if (!write_all(child_.stdin_fd(), batch)) return false;
    }
    if (!next_line(line, timeout_s) || !handle()) return false;
    while (done < sent && take_buffered(line)) {
      if (!handle()) return false;
    }
  }
  return true;
}

}  // namespace perf_ledger
