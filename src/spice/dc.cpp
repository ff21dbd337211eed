#include "finser/spice/dc.hpp"

#include <string>
#include <utility>

#include "engine_detail.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {

namespace {

/// Each solve starts every lane without a pivot order: the cache is
/// bookkeeping only (pivots are always re-scanned), and a fresh one keeps a
/// solve's spice.mna.pivot_* counts independent of the solves before it.
template <std::size_t W>
void solve_lanes(CompiledCircuit& circuit, SolveWorkspace& ws,
                 std::size_t count, const std::vector<double>& initial_guess,
                 const DcOptions& options, std::uint8_t* failed,
                 std::string* errors) {
  ws.lu.pivot_valid.fill(0);
  detail::CompiledDcLanes<W> system{circuit, ws.lu};
  detail::solve_dc_lanes<W>(system, ws, count, initial_guess, options, failed,
                            errors);
}

}  // namespace

std::vector<double> solve_dc(CompiledCircuit& circuit, SolveWorkspace& ws,
                             const std::vector<double>& initial_guess,
                             const DcOptions& options) {
  if (!circuit.batch_configured(ws.lu, 1)) circuit.batch_configure(ws.lu, 1);
  circuit.batch_rebind_lane(ws.lu, 0);
  std::uint8_t failed = 0;
  std::string error;
  solve_lanes<1>(circuit, ws, 1, initial_guess, options, &failed, &error);
  if (failed != 0) throw util::NumericalError(error);
  return ws.lu.x_try;
}

void solve_dc_batch(CompiledCircuit& circuit, SolveWorkspace& ws,
                    std::size_t count, const std::vector<double>& initial_guess,
                    DcBatchResult& out, const DcOptions& options) {
  // batch_configure() accepts only compiled widths, so visit_width() below
  // always finds the workspace's.
  FINSER_REQUIRE(circuit.batch_configured(ws.lu, ws.lu.lanes),
                 "solve_dc_batch: workspace not configured for this circuit "
                 "(call batch_configure first)");
  const std::size_t n = circuit.unknown_count();
  out.x.resize(count);
  out.failed.assign(count, 0);
  out.errors.resize(count);
  detail::visit_width(ws.lu.lanes, [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;
    std::array<std::uint8_t, W> failed{};
    std::array<std::string, W> errors;
    solve_lanes<W>(circuit, ws, count, initial_guess, options, failed.data(),
                   errors.data());
    for (std::size_t w = 0; w < count; ++w) {
      out.failed[w] = failed[w];
      out.errors[w] = std::move(errors[w]);
      if (failed[w] != 0) {
        out.x[w].clear();
        continue;
      }
      out.x[w].resize(n);
      for (std::size_t i = 0; i < n; ++i) out.x[w][i] = ws.lu.x_try[i * W + w];
    }
  });
}

}  // namespace finser::spice
