#include "brel/solver.hpp"

#include "brel/partition.hpp"
#include "brel/search.hpp"

namespace brel {

void accumulate_stats(SolverStats& into, const SolverStats& from) {
  into.relations_explored += from.relations_explored;
  into.splits += from.splits;
  into.quick_solutions += from.quick_solutions;
  into.misf_minimizations += from.misf_minimizations;
  into.conflicts += from.conflicts;
  into.pruned_by_cost += from.pruned_by_cost;
  into.pruned_by_symmetry += from.pruned_by_symmetry;
  into.memo_hits += from.memo_hits;
  into.fifo_overflow += from.fifo_overflow;
  into.depth_limited += from.depth_limited;
  into.solutions_seen += from.solutions_seen;
  into.steals += from.steals;
  into.steal_batches += from.steal_batches;
  into.reorders += from.reorders;
  into.reorder_swaps += from.reorder_swaps;
  into.delta_active = into.delta_active || from.delta_active;
  into.delta_reused += from.delta_reused;
  into.delta_researched += from.delta_researched;
  into.budget_exhausted = into.budget_exhausted || from.budget_exhausted;
  into.lock_wait_ns += from.lock_wait_ns;
}

BrelSolver::BrelSolver(SolverOptions options) : options_(std::move(options)) {}

SolveResult BrelSolver::solve(const BooleanRelation& r) const {
  if (options_.partition_inputs > 0 && !options_.exact &&
      r.num_inputs() >= 2) {
    return solve_partitioned(r, options_);
  }
  return SearchEngine(r, options_).run();
}

}  // namespace brel
