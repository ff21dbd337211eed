#pragma once
/// \file io.hpp
/// \brief Crash-safe file I/O primitives for binary artifacts.
///
/// Artifacts must never be observable in a half-written state: a run killed
/// mid-write would otherwise leave a torn file that a resumed run could
/// mistake for real data. atomic_write_file() therefore
/// writes to a sibling temp file, fsync()s it, and rename()s it over the
/// target — POSIX guarantees the target is always either the old or the new
/// content. Each write names its own temp file, `<target>.<pid>.<n>.tmp`
/// (the writer's pid and a per-process count), so processes sharing a
/// directory never write, rename or sweep each other's temp files.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace finser::util {

/// Atomically replace \p path with \p size bytes at \p data
/// (temp file `<path>.<pid>.<n>.tmp` + fsync + rename). Parent directories
/// are created as needed.
/// Returns false (with the cause in \p error if non-null) on any failure;
/// the previous file content, if any, is left untouched in that case.
/// Honors the `io_write_fail` fault-injection site (util/fault.hpp).
bool atomic_write_file(const std::string& path, const void* data,
                       std::size_t size, std::string* error = nullptr);

/// Whether \p file_name (a name inside a directory) is a `*.tmp` file no
/// running writer owns: one atomic_write_file() left behind when its
/// process died before the rename, or one whose name carries no writer pid.
/// The pid is checked on this host; a temp of a live process is never
/// orphaned, whichever process asks.
bool orphaned_temp_file(const std::string& file_name);

/// Read a whole file into \p out. Returns false (with the cause in \p error
/// if non-null) when the file is missing or unreadable; never throws.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out,
               std::string* error = nullptr);

}  // namespace finser::util
