#include "finser/util/io.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "finser/util/fault.hpp"

namespace finser::util {

namespace {

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

/// Temp files this process has named (see atomic_write_file).
std::atomic<std::uint64_t> g_temp_files{0};

/// Whether \p s is a non-empty run of decimal digits.
bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

bool orphaned_temp_file(const std::string& file_name) {
  constexpr std::string_view kExt = ".tmp";
  if (file_name.size() <= kExt.size() ||
      file_name.compare(file_name.size() - kExt.size(), kExt.size(), kExt) !=
          0) {
    return false;
  }
  // <target>.<pid>.<n>.tmp: split the writer's pid and sequence number off
  // the right. A name without them has no writer to ask, so it is debris.
  std::string stem = file_name.substr(0, file_name.size() - kExt.size());
  std::size_t dot = stem.rfind('.');
  if (dot == std::string::npos || !all_digits(stem.substr(dot + 1))) {
    return true;
  }
  stem.resize(dot);
  dot = stem.rfind('.');
  const std::string pid_text =
      dot == std::string::npos ? std::string() : stem.substr(dot + 1);
  if (!all_digits(pid_text) || pid_text.size() > 9) return true;
  const auto pid = static_cast<pid_t>(std::stol(pid_text));
  // Signal 0 only asks whether the process exists; EPERM means it does.
  return pid <= 0 || (::kill(pid, 0) != 0 && errno == ESRCH);
}

bool atomic_write_file(const std::string& path, const void* data,
                       std::size_t size, std::string* error) {
  if (fault_fire(FaultSite::kIoWriteFail)) {
    set_error(error, "injected I/O failure (FINSER_FAULT io_write_fail)");
    return false;
  }

  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      set_error(error, "cannot create " + target.parent_path().string() + ": " +
                           ec.message());
      return false;
    }
  }

  // The temp file must live on the same filesystem as the target for
  // rename() to stay atomic, so it is a sibling, not a /tmp file. Its name
  // is this write's own — the writer's pid and a per-process sequence
  // number — so concurrent writers of one target, in this process or in
  // others, never share a temp, and a store sweep can tell whose it is.
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(g_temp_files.fetch_add(1)) + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    set_error(error, "cannot open " + tmp + ": " + std::strerror(errno));
    return false;
  }

  const auto* p = static_cast<const char*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, p + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      set_error(error, "write to " + tmp + " failed: " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }

  if (::fsync(fd) != 0) {
    set_error(error, "fsync of " + tmp + " failed: " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    set_error(error, "close of " + tmp + " failed: " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename " + tmp + " -> " + path + " failed: " +
                         std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out,
               std::string* error) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is.good()) {
    set_error(error, "cannot open " + path);
    return false;
  }
  const std::streamsize size = is.tellg();
  if (size < 0) {
    set_error(error, "cannot stat " + path);
    return false;
  }
  is.seekg(0);
  out.resize(static_cast<std::size_t>(size));
  if (size > 0) {
    is.read(reinterpret_cast<char*>(out.data()), size);
    if (!is.good()) {
      set_error(error, "short read from " + path);
      return false;
    }
  }
  return true;
}

}  // namespace finser::util
