#pragma once
/// \file cancel.hpp
/// \brief Cooperative cancellation for long-running parallel regions.
///
/// A CancelToken is a single atomic flag shared between a controller (signal
/// handler, test, outer engine) and the workers of a parallel region. The
/// workers poll it *between* chunks — never mid-chunk — so cancellation can
/// only be observed at a chunk boundary and every chunk either ran to
/// completion or not at all. That invariant is what makes an interrupted run
/// resumable: it holds no partial-chunk results, and every artifact it put
/// before stopping is a whole product (docs/robustness.md). There is no
/// pthread_kill / thread interruption anywhere; everything is a relaxed
/// handshake on one atomic bool.

#include <atomic>

namespace finser::exec {

/// Set-once (resettable) cancellation flag. All members are async-signal-safe
/// and thread-safe; a signal handler may call cancel() directly.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept { return flag_.load(std::memory_order_acquire); }
  void reset() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// Route SIGINT and SIGTERM to \p token->cancel(). The handler performs one
/// atomic store plus the child fan-out below — both async-signal-safe. \p
/// token must outlive the installation. Passing nullptr restores the default
/// disposition for both signals.
void install_signal_cancel(CancelToken* token);

/// Register a child process for signal fan-out: while registered, a SIGINT
/// or SIGTERM handled by install_signal_cancel is also forwarded to the
/// child as SIGTERM (kill() is async-signal-safe), so a supervisor's
/// cooperative shutdown reaches its whole worker tree in one keystroke.
/// The table is a fixed array of atomics (no allocation in the handler
/// path); returns false when it is full. Idempotent per pid.
bool signal_fanout_add(int pid);

/// Remove \p pid from the fan-out table (e.g. after waitpid reaped it).
/// Unknown pids are ignored.
void signal_fanout_remove(int pid);

}  // namespace finser::exec
