#pragma once
/// \file error.hpp
/// \brief Typed errors and precondition checking.
///
/// Policy (per C++ Core Guidelines E.2/I.5): violated preconditions and
/// invalid runtime inputs throw typed exceptions carrying file:line context;
/// internal logic errors use the same mechanism so that tests can assert on
/// them (failure-injection suites rely on this).

#include <stdexcept>
#include <string>

namespace finser::util {

/// Base class for every error thrown by finser.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid argument / violated precondition at an API boundary.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Numerical failure (singular matrix, non-convergent iteration, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Query outside the domain of a LUT or spectrum.
class DomainError : public Error {
 public:
  explicit DomainError(const std::string& what) : Error(what) {}
};

/// Violated internal usage contract (e.g. stamping into an Mna system whose
/// factorization already consumed it). Unlike InvalidArgument this flags a
/// bug in the *caller's sequencing*, not in the values it passed; tests
/// assert on it to pin the contract down.
class LogicError : public Error {
 public:
  explicit LogicError(const std::string& what) : Error(what) {}
};

/// Cooperative cancellation (SIGINT/SIGTERM or an exec::CancelToken). A run
/// that throws this is resumable from the products it already put in the
/// artifact store; the CLI maps it to exit code 4.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_require_failed(const char* expr, const char* file, int line,
                                       const std::string& msg);
}  // namespace detail

}  // namespace finser::util

/// Precondition check: throws finser::util::InvalidArgument on failure.
#define FINSER_REQUIRE(cond, msg)                                                   \
  do {                                                                              \
    if (!(cond)) {                                                                  \
      ::finser::util::detail::throw_require_failed(#cond, __FILE__, __LINE__, msg); \
    }                                                                               \
  } while (false)
