#pragma once
/// \file parallel_engine.hpp
/// Multi-worker exploration of the Fig. 6 branch-and-bound tree.
///
/// The recursive solve tree is embarrassingly decomposable — every Split
/// yields two independent subrelations — but the BDD substrate is not:
/// a `BddManager` (node store, unique table, computed cache, statistics)
/// is strictly single-threaded.  Following the worker-local-state design
/// of parallel Boolean synthesis (Akshay et al., TACAS 2017, PAPERS.md),
/// the engine therefore gives each worker a *private* manager plus a
/// private frontier, and moves work between workers by value:
///
///   ownership rules (see DESIGN.md §parallel layering)
///   ---------------------------------------------------
///   - one BddManager per worker; no edge, handle or relation of one
///     manager is ever touched by another worker's thread;
///   - subproblems cross worker boundaries only through the injection
///     queue, in the serialized transfer form (bdd_transfer.hpp) — plain
///     data produced by the victim from its manager and materialized by
///     the thief into its own;
///   - the only cross-thread state is the queue (mutex + condition
///     variable), a handful of atomics (incumbent bound, explored-node
///     budget, steal requests, stop flag) and the per-worker result
///     slots, which the coordinator reads after join.
///
/// Scheduling is cooperative work *donation*: a worker that runs dry
/// posts a steal request and blocks on the queue; workers with more than
/// one pending subproblem serve requests between expansions by donating
/// `Frontier::steal()` entries (deepest pending node for the paper's
/// BFS, cheapest for best-first).  The shared atomic incumbent bound
/// makes one worker's discoveries prune every other worker's subtrees.
///
/// Determinism: with the cost bound on, which nodes fit the budget
/// depends on scheduling, exactly as the serial engine's result depends
/// on the frontier strategy.  The schedule-*independent* configuration —
/// `use_cost_bound = false` plus a `max_depth` cap (or a drained
/// frontier) — explores a fixed node set, so the returned cost equals
/// the serial engine's for any worker count; test_parallel_engine.cpp
/// pins that equality across the whole benchmark suite.

#include <cstddef>

#include "brel/solver.hpp"
#include "relation/relation.hpp"

namespace brel {

/// Resolve SolverOptions::num_workers (0 = one per hardware thread).
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested);

/// N-worker search engine.  One engine per solve() run, like the serial
/// `SearchEngine`; the facade (`BrelSolver`) dispatches here whenever the
/// resolved worker count exceeds one.
class ParallelEngine {
 public:
  /// Copies the root and options (the engine outlives temporaries).
  /// Throws std::invalid_argument when the relation is not well defined
  /// or when `options.global_memo` was stamped for another cost/mode.
  ParallelEngine(const BooleanRelation& root, const SolverOptions& options);

  /// Run the workers to completion (all frontiers and the injection
  /// queue drained, budget exhausted, or deadline hit).  The result's
  /// `worker_stats` holds one entry per worker; `stats` is their sum.
  /// The winning solution is transferred back into the root relation's
  /// manager, so the caller handles it exactly like a serial result.
  /// Exceptions thrown inside a worker stop the fleet and are rethrown.
  [[nodiscard]] SolveResult run();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_;
  }

 private:
  const BooleanRelation root_;
  const SolverOptions options_;
  const std::size_t workers_;
};

}  // namespace brel
