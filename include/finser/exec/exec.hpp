#pragma once
/// \file exec.hpp
/// \brief Execution configuration of the parallel Monte-Carlo layer.
///
/// Every MC engine in finser (array MC, neutron MC, cell characterization,
/// the spectrum sweep) runs its hot loop through finser::exec. The thread
/// count is resolved uniformly:
///
///   1. an explicit non-zero `threads` in the engine's config wins;
///   2. else the FINSER_THREADS environment variable (a positive integer);
///   3. else std::thread::hardware_concurrency().
///
/// The resolved count never affects results: the engines derive one RNG
/// stream per fixed-size chunk of work (stats::Rng::stream) and merge chunk
/// partials in chunk order, so a campaign is bit-identical at any thread
/// count (see docs/parallelism.md for the contract).

#include <cstddef>

namespace finser::exec {

/// std::thread::hardware_concurrency(), floored at 1.
std::size_t hardware_threads();

/// FINSER_THREADS as a positive integer; 0 when unset. Malformed or
/// non-positive values are rejected with a warning on stderr (they would
/// otherwise silently serialize or oversubscribe a campaign).
std::size_t threads_from_env();

/// Resolve a requested thread count through the precedence above.
std::size_t resolve_threads(std::size_t requested);

}  // namespace finser::exec
