/// \file proc.cpp
/// \brief posix_spawn + wait4 child management with a SIGALRM timeout.

#include "proc.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perf_ledger {

const char* const kScrubbedEnv[] = {
    "FINSER_MC_SCALE", "FINSER_CI_TARGET", "FINSER_CLUSTER",
    "FINSER_THREADS",  "FINSER_LANES",     "FINSER_WORKERS",
    "FINSER_METRICS",  "FINSER_FAULT",     "FINSER_SHARD_POISON", nullptr};

void scrub_environment() {
  for (const char* const* v = kScrubbedEnv; *v != nullptr; ++v) unsetenv(*v);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTicks CpuTicks::now() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0) break;  // per-CPU lines come first
    if (line.rfind("cpu ", 0) == 0) continue;  // the all-CPU total
    std::istringstream is(line);
    std::string name;
    unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                       irq = 0, softirq = 0, steal = 0;
    if (is >> name >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) {
      t.cpus.push_back({user + nice + system + irq + softirq, steal});
    }
  }
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (a.cpus.size() != b.cpus.size()) return 0.0;  // CPUs went on/offline
  double stolen = 0.0, work = 0.0;
  for (std::size_t c = 0; c < a.cpus.size(); ++c) {
    if (b.cpus[c].work < a.cpus[c].work || b.cpus[c].steal < a.cpus[c].steal) {
      return 0.0;
    }
    const auto w = static_cast<double>(b.cpus[c].work - a.cpus[c].work);
    const auto s = static_cast<double>(b.cpus[c].steal - a.cpus[c].steal);
    if (w + s > 0.0) stolen += w * s / (w + s);
    work += w;
  }
  return work > 0.0 ? stolen / work : 0.0;
}

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

// SIGALRM only interrupts a blocking wait4(); the handler does nothing.
extern "C" void on_alarm(int) {}

void install_alarm_handler() {
  static const bool installed = [] {
    struct sigaction sa {};
    sa.sa_handler = on_alarm;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: wait4 must return EINTR
    sigaction(SIGALRM, &sa, nullptr);
    // A serve child that exits early must surface as a failed write, not
    // kill the benchmark.
    signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, bool pipe_stdio,
             const std::string& log_path) {
  install_alarm_handler();
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (pipe_stdio && (pipe2(in_pipe, O_CLOEXEC) != 0 ||
                     pipe2(out_pipe, O_CLOEXEC) != 0)) {
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      if (fd >= 0) ::close(fd);
    }
    throw std::runtime_error("pipe2 failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (pipe_stdio) {
    posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } else {
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
  }
  start_ticks_ = CpuTicks::now();
  start_s_ = now_s();
  const int rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (pipe_stdio) {
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
  }
  if (rc != 0) {
    pid_ = -1;
    close_stdin();
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  close_stdin();
  if (out_fd_ >= 0) ::close(out_fd_);
}

void Child::close_stdin() {
  if (in_fd_ >= 0) ::close(in_fd_);
  in_fd_ = -1;
}

ChildResult Child::wait(double timeout_s) {
  ChildResult r;
  if (pid_ <= 0) return r;
  int status = 0;
  struct rusage ru {};
  alarm(static_cast<unsigned>(std::ceil(timeout_s)));
  pid_t got = wait4(pid_, &status, 0, &ru);
  alarm(0);
  if (got < 0 && errno == EINTR) {
    r.timed_out = true;
    kill(pid_, SIGKILL);
    while ((got = wait4(pid_, &status, 0, &ru)) < 0 && errno == EINTR) {
    }
  }
  r.wall_s = now_s() - start_s_;
  r.steal_share = steal_share(start_ticks_, CpuTicks::now());
  pid_ = -1;
  if (got < 0) return r;
  r.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  if (!r.timed_out && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& log_path, double timeout_s) {
  Child child(argv, /*pipe_stdio=*/false, log_path);
  return child.wait(timeout_s);
}

}  // namespace perf_ledger
