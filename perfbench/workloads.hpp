#pragma once
// The three workloads of the repo benchmark.  Each call runs one measured
// phase from a fresh program state: its own set-up (repeated, median
// reported), then requests until `budget.seconds` have passed and the
// scored prefix is complete, then the correctness gate.  A traced phase
// additionally records spans, makes the isolated per-layer calls and
// fills PhaseResult::layers.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The per-layer metrics a traced phase reports, in report order, with
/// their units.  Workloads set the ones their layers expose; the rest
/// read 0 (the workload bypasses that layer or its counter is not
/// observable from outside the program).
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& layer_metric_specs();

/// Set a per-layer metric by name (throws on a name not in the spec).
void set_layer(PhaseResult& out, const std::string& name, double value);

/// Library at the paper's Table 2 defaults, one serial caller, one
/// manager per solve, no memo.
[[nodiscard]] PhaseResult run_batch_cold(std::uint32_t seed,
                                         const PhaseBudget& budget);

/// SolverPool in the incremental service configuration: one slot, one
/// closed-loop caller, cold bases followed by chains of small edits.
[[nodiscard]] PhaseResult run_eco_stream(std::uint32_t seed,
                                         const PhaseBudget& budget);

/// In-process Server, two slots, open-loop framed traffic of memo
/// repeats and fresh small relations over loopback.
[[nodiscard]] PhaseResult run_service_open(std::uint32_t seed,
                                           const PhaseBudget& budget);

}  // namespace perfbench
