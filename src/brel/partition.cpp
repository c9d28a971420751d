#include "brel/partition.hpp"

#include <chrono>
#include <cstdint>
#include <optional>

#include "brel/cost.hpp"
#include "brel/delta_context.hpp"
#include "brel/global_memo.hpp"

namespace brel {

SolveResult solve_partitioned(const BooleanRelation& r,
                              const SolverOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  BddManager& mgr = r.manager();
  const std::vector<std::uint32_t>& inputs = r.inputs();
  const std::vector<std::uint32_t>& outputs = r.outputs();
  const std::size_t q = std::min(options.partition_inputs, inputs.size() - 1);
  const std::size_t blocks = std::size_t{1} << q;
  const std::vector<std::uint32_t> rest(inputs.begin() +
                                            static_cast<std::ptrdiff_t>(q),
                                        inputs.end());

  // Delta classification at block granularity: diff against the
  // registry's base for the FULL relation's spaces.  The delta never
  // decides anything — clean blocks are served (or not) by their own
  // content-keyed root probes — it only explains the reuse in the stats,
  // exactly like the subtree-level overlay in search.cpp.
  Bdd delta;
  std::shared_ptr<const MemoSpace> memo_space;
  MemoKeyHandle root_key;
  if (options.delta_registry != nullptr && options.global_memo != nullptr) {
    memo_space = std::make_shared<const MemoSpace>(make_memo_space(r));
    // Lazy handle: the overlay probe goes through the rank lists, so a
    // cold run (no remembered base) builds neither a key nor a hash walk
    // beyond the O(new nodes) canonical hash.
    root_key = make_memo_handle(memo_space, r.characteristic());
    if (const SerializedBdd* base = options.delta_registry->find_base(
            memo_space->input_ranks, memo_space->output_ranks)) {
      delta =
          r.characteristic() ^ import_canonical_bdd(mgr, *memo_space, *base);
    }
  }

  // Blocks run the plain engine: no nested partitioning, no registry
  // (their bases live implicitly in the shared memo as block-root
  // entries).  Everything else — memo, workers, depth caps, reordering —
  // passes through unchanged.
  SolverOptions block_options = options;
  block_options.partition_inputs = 0;
  block_options.delta_registry = nullptr;
  const BrelSolver block_solver(block_options);

  SolveResult result;
  result.function.outputs.assign(outputs.size(), mgr.zero());
  SolverStats& stats = result.stats;
  stats.delta_active = !delta.is_null();

  for (std::size_t a = 0; a < blocks; ++a) {
    Bdd chi = r.characteristic();
    Bdd block_delta = delta;
    Bdd cube = mgr.one();
    for (std::size_t i = 0; i < q; ++i) {
      const bool bit = ((a >> i) & 1u) != 0;
      chi = chi.cofactor(inputs[i], bit);
      cube = cube & mgr.literal(inputs[i], bit);
      if (!block_delta.is_null() && !block_delta.is_zero()) {
        block_delta = block_delta.cofactor(inputs[i], bit);
      }
    }
    if (stats.delta_active) {
      if (block_delta.is_zero()) {
        ++stats.delta_reused;
      } else {
        ++stats.delta_researched;
      }
    }

    const SolveResult block = block_solver.solve(
        BooleanRelation(mgr, rest, outputs, std::move(chi)));
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      result.function.outputs[o] =
          result.function.outputs[o] | (cube & block.function.outputs[o]);
    }

    const SolverStats& b = block.stats;
    stats.relations_explored += b.relations_explored;
    stats.splits += b.splits;
    stats.quick_solutions += b.quick_solutions;
    stats.misf_minimizations += b.misf_minimizations;
    stats.conflicts += b.conflicts;
    stats.pruned_by_cost += b.pruned_by_cost;
    stats.pruned_by_symmetry += b.pruned_by_symmetry;
    stats.memo_hits += b.memo_hits;
    stats.fifo_overflow += b.fifo_overflow;
    stats.depth_limited += b.depth_limited;
    stats.solutions_seen += b.solutions_seen;
    stats.workers = std::max(stats.workers, b.workers);
    stats.steals += b.steals;
    stats.steal_batches += b.steal_batches;
    stats.reorders += b.reorders;
    stats.delta_reused += b.delta_reused;
    stats.delta_researched += b.delta_researched;
    stats.budget_exhausted = stats.budget_exhausted || b.budget_exhausted;
    stats.lock_wait_ns += b.lock_wait_ns;
  }

  const CostFunction cost =
      options.cost ? options.cost : sum_of_bdd_sizes();
  result.cost = cost(result.function);

  // This run becomes the next base for its spaces — same drain condition
  // as the engine's (an interrupted run must not anchor future diffs to
  // a composition of degraded block results).
  if (root_key != nullptr && !stats.budget_exhausted &&
      stats.fifo_overflow == 0) {
    options.delta_registry->remember(root_key->get());
  }

  stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace brel
