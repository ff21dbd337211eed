#pragma once
/// \file proc.hpp
/// \brief Child processes of the benchmark: spawn, pipe, wait with rusage.

#include <string>
#include <sys/types.h>
#include <vector>

namespace perf_ledger {

/// Environment variables that change what finser_cli computes or how it
/// schedules. They are removed from this process at start-up, so neither
/// the in-process replay nor any child sees them: a stray FINSER_MC_SCALE
/// would otherwise read as a 10x "speed-up". Threads are passed as flags.
extern const char* const kScrubbedEnv[];

/// Remove every kScrubbedEnv variable from this process's environment.
void scrub_environment();

/// Per-CPU time counters of the machine (/proc/stat, in clock ticks).
struct CpuTicks {
  struct Cpu {
    unsigned long long work = 0;   ///< user + nice + system + irq + softirq.
    unsigned long long steal = 0;  ///< Time the hypervisor ran other guests.
  };
  std::vector<Cpu> cpus;
  static CpuTicks now();
};

/// Share of the time the working vCPUs were runnable but stolen by the
/// hypervisor between \p a and \p b: each vCPU's steal / (work + steal),
/// weighted by the work it did, so nearly idle vCPUs (whose rare wake-ups
/// can wait long) do not count. 0 on bare metal or without /proc/stat.
double steal_share(const CpuTicks& a, const CpuTicks& b);

/// Exit status and resource use of one finished child, from wait4().
struct ChildResult {
  int exit_code = -1;      ///< -1 when killed by a signal or timed out.
  bool timed_out = false;
  double wall_s = 0.0;     ///< spawn → reaped, steady_clock.
  double steal_share = 0.0;  ///< steal_share() over the child's lifetime.
  double cpu_s = 0.0;      ///< user + system time of the child.
  double maxrss_mb = 0.0;  ///< Peak resident set size of the child.

  /// Wall time net of hypervisor steal: what the run takes on a host that
  /// does not deschedule this guest (equal to wall_s on bare metal).
  double net_wall_s() const { return wall_s * (1.0 - steal_share); }
};

/// A spawned child. stdout/stderr go to files unless \p pipe_stdio asks for
/// pipes on stdin and stdout. The destructor kills and reaps a child that
/// was never waited for, so no process outlives the benchmark.
class Child {
 public:
  Child(const std::vector<std::string>& argv, bool pipe_stdio,
        const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  int stdin_fd() const { return in_fd_; }
  int stdout_fd() const { return out_fd_; }
  void close_stdin();

  /// Block until the child exits; SIGKILL it after \p timeout_s.
  ChildResult wait(double timeout_s);

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  double start_s_ = 0.0;
  CpuTicks start_ticks_;
};

/// Run \p argv to completion with output to \p log_path.
ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& log_path, double timeout_s);

/// Monotonic seconds (steady_clock).
double now_s();

/// Write all of \p data to \p fd; false on error.
bool write_all(int fd, const std::string& data);

}  // namespace perf_ledger
