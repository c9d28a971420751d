#pragma once
/// \file solver.hpp
/// The BREL recursive Boolean-relation solver (Fig. 6 + Sec. 7).
///
/// Paradigm (Sec. 2): over-approximate the relation by the MISF of its
/// per-output projections, minimize each output independently, and — if the
/// composed function conflicts with the relation — Split on a conflicting
/// input vertex and recurse on both halves, pruning with the best cost
/// found so far.  The branch-and-bound tree is explored through a pluggable
/// `Frontier` (partial BFS as in Sec. 7.2, DFS, or best-first by MISF
/// candidate cost); QuickSolver runs on every generated subrelation so at
/// least one compatible solution exists whenever the exploration budget
/// runs out (Sec. 7.6).
///
/// `BrelSolver` is a thin facade over the engine in search.hpp — it holds
/// options and constructs one `SearchEngine` per solve() call (or
/// partitions first, partition.hpp).  See DESIGN.md for the layering.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "brel/cost.hpp"
#include "brel/delta_context.hpp"
#include "brel/frontier.hpp"
#include "brel/global_memo.hpp"
#include "brel/isf_minimizer.hpp"
#include "brel/quick_solver.hpp"
#include "brel/symmetry.hpp"
#include "relation/relation.hpp"

namespace brel {

/// Tuning knobs of the solver.  The defaults reproduce the configuration
/// of the paper's Table 2 runs (cost = Σ BDD sizes, partial exploration of
/// 10 relations, QuickSolver fallback, symmetries near the root).
struct SolverOptions {
  /// Objective to minimize; must be permutation-invariant across outputs
  /// when `use_symmetry` is on.  Defaults to sum_of_bdd_sizes().
  CostFunction cost;

  /// ISF minimization strategy for projections (Sec. 7.5).
  IsfMinimizer minimizer{};

  /// Maximum number of relations popped from the exploration frontier
  /// (the paper's "partial exploration of N BRs").  Ignored in exact mode.
  std::size_t max_relations = 10;

  /// Bound on the number of *pending* subrelations in the frontier.
  /// Children that do not fit are still quick-solved (so their best
  /// solution is seen) but not explored further.
  std::size_t fifo_capacity = static_cast<std::size_t>(-1);

  /// Depth-bounded partial exploration: nodes at this split depth are
  /// still expanded (terminal handling, MISF candidate, compatibility)
  /// but never split, so the tree is truncated at depth max_depth.
  /// Unlike max_relations — which admits whichever nodes the schedule
  /// pops first — the depth-capped exploration set is a pure function of
  /// the relation ("every node at depth <= max_depth"), identical for
  /// any frontier strategy or worker count.  Combined with
  /// use_cost_bound=false this makes the whole solve deterministic up to
  /// tie-breaks, which is what the parallel-vs-serial differential
  /// harness pins its cost-equality assertions on.
  std::size_t max_depth = static_cast<std::size_t>(-1);

  /// Exact mode (Sec. 7.6): complete exploration; keeps splitting through
  /// compatible-but-maybe-suboptimal solutions until relations become
  /// functional, so the search degenerates to an implicit enumeration of
  /// IF(R).  Only viable for small relations.
  bool exact = false;

  /// The Fig. 6 line-6 branch-and-bound prune.  On (the default) it cuts
  /// subtrees whose MISF candidate cannot beat the best explored cost —
  /// a heuristic when the ISF minimizer is inexact, so the final cost can
  /// depend on exploration order.  Off, a drained (unbounded-budget)
  /// search visits an order-independent tree and its result is a pure
  /// function of the relation — the configuration the parallel-vs-serial
  /// differential harness relies on.  Ignored in exact mode (which never
  /// bounds).
  bool use_cost_bound = true;

  /// Workers running the exploration (search.hpp); 0 = one per hardware
  /// thread.  One worker (the default) runs inline on the calling thread
  /// in the relation's own manager.  More than one each get a thread and
  /// a private BddManager (the kernel layer is single-threaded), and
  /// subproblems migrate between workers in the serialized transfer form
  /// (bdd_transfer.hpp).  With more than one worker the cost function is
  /// invoked concurrently from several threads (each on its own
  /// manager's BDDs) and must be re-entrant; the structural costs in
  /// cost.hpp all are.
  std::size_t num_workers = 1;

  /// Output-symmetry pruning (Sec. 7.7).
  bool use_symmetry = false;

  /// Symmetry checks only run while the split depth is below this bound
  /// ("only explored during the initial recursions").
  std::size_t symmetry_depth = 3;

  /// Cross-solve memo keyed by the canonical *serialized* subproblem form
  /// (global_memo.hpp).  It is manager-independent, so it can be shared
  /// between solves in the same or different managers (parallel workers,
  /// pool worker slots) and across process lifetimes of any one manager.
  /// Hits import the memoized solution into the prober's manager instead
  /// of re-exploring; every discovered solution is published for its
  /// whole ancestor chain.  Within one solve it never hits (Property 5.4),
  /// and only entries of a run that drained naturally are served.  The
  /// memo is stamped with the cost/mode fingerprint at first use and
  /// rejects mismatched reuse.  Null disables the memo.
  std::shared_ptr<GlobalMemo> global_memo;

  /// Subproblems a victim donates per steal request (more than one
  /// worker only).  Each donation serializes up to this many frontier
  /// picks into ONE injection-queue batch, amortizing the per-donation
  /// SerializedBdd round trip that single-node stealing pays on
  /// fine-grained trees.
  /// 1 reproduces the old node-at-a-time donation.  Donation only moves
  /// already-admitted frontier items between workers, so the depth-capped
  /// schedule-independence contract holds for any batch size.
  std::size_t steal_batch = 8;

  /// Wall-clock budget; zero means unlimited.
  std::chrono::milliseconds timeout{0};

  /// BFS (paper default), DFS, or best-first tree exploration.
  ExplorationOrder order = ExplorationOrder::BreadthFirst;

  /// Dynamic variable reordering of the solving manager(s).  Off (the
  /// default) never reorders — every cost and exploration count stays
  /// bit-identical to previous releases.  On sifts each engine manager
  /// once before exploration starts; Auto arms the GC-coupled trigger
  /// (BddManager::set_auto_reorder) for the duration of the run.  The
  /// BREL_REORDER environment variable ("off"/"on"/"auto") overrides
  /// this setting when present (resolve_reorder_mode) — the hook CI uses
  /// to re-run whole suites under forced reordering.  Reordering changes
  /// BDD *sizes*, so size-based costs may differ between runs with
  /// different modes (and between worker counts, since every worker
  /// manager sifts independently); results remain compatible solutions
  /// of the relation in every mode.
  ReorderMode reorder = ReorderMode::Off;

  /// Node-count threshold arming the Auto reorder trigger
  /// (BddManager::set_auto_reorder's first_trigger).  Only meaningful
  /// with ReorderMode::Auto.  The default matches the manager's; pool
  /// embedders lower it in tests to make "the seeded order never
  /// re-sifts" observable at small sizes.
  std::size_t reorder_trigger = 1u << 16;

  /// Incremental re-solve (delta_context.hpp): when set (non-owning; the
  /// caller's registry must outlive the run and belong to the calling
  /// thread), a run whose root misses the global memo diffs its relation
  /// against the registry's most recent base over the same variable
  /// spaces and carries the XOR change region down the decomposition —
  /// untouched subtrees (zero delta cofactor) are exactly the base run's
  /// subproblems, so their depth-indexed memo entries serve without
  /// re-search, and SolverStats reports the reused/re-searched counts.
  /// Every naturally drained (or root-hit) run then remembers its own
  /// root as the next base.  Requires `global_memo`; ignored without it.
  DeltaRegistry* delta_registry = nullptr;

  /// Delta-localization pre-split (partition.hpp): when > 0, solve() first
  /// cofactors the relation on its first min(partition_inputs,
  /// num_inputs - 1) input variables and solves the 2^q block relations
  /// independently (each through the ordinary engine, sharing
  /// `global_memo`), composing f_o = OR_a cube(a) & f_{a,o}.  Input
  /// cofactoring is position stable — a k-minterm edit dirties at most k
  /// blocks, every clean block root-hits its base entry at zero
  /// exploration — which is what makes warm-delta traffic nearly free
  /// (the Fig. 6 output-refinement splits alone cannot localize a point
  /// edit; see partition.hpp).  The composed solution is compatible but
  /// generally not the same function a non-partitioned solve returns, so
  /// cold/warm comparisons must hold this setting fixed.  Ignored in
  /// exact mode and for relations with fewer than two inputs.
  std::size_t partition_inputs = 0;
};

/// Counters describing one solve() run.
struct SolverStats {
  std::size_t relations_explored = 0;  ///< popped from the frontier
  std::size_t splits = 0;              ///< Split operations performed
  std::size_t quick_solutions = 0;     ///< QuickSolver invocations
  std::size_t misf_minimizations = 0;  ///< per-output ISF minimizations
  std::size_t conflicts = 0;           ///< incompatible MISF solutions
  std::size_t pruned_by_cost = 0;      ///< line-6 bound rejections
  std::size_t pruned_by_symmetry = 0;  ///< symmetric subrelations skipped
  std::size_t memo_hits = 0;           ///< subtrees served by the global memo
  std::size_t fifo_overflow = 0;       ///< children dropped (frontier full)
  std::size_t depth_limited = 0;       ///< splits suppressed by max_depth
  std::size_t solutions_seen = 0;      ///< compatible functions encountered
  std::size_t workers = 1;             ///< threads that ran the exploration
  std::size_t steals = 0;              ///< subproblems migrated via injection
  std::size_t steal_batches = 0;       ///< donation batches through the queue
  std::size_t reorders = 0;            ///< sifting passes during this run
  std::size_t reorder_swaps = 0;       ///< adjacent-level swaps those made
  /// Incremental-delta classification (delta_context.hpp); all zero when
  /// no base relation was available for this run.
  bool delta_active = false;           ///< a base was found and diffed
  std::size_t delta_reused = 0;        ///< untouched subtrees served by memo
  std::size_t delta_researched = 0;    ///< subtrees re-entered the frontier
  bool budget_exhausted = false;       ///< stopped on max_relations/timeout
  /// Time threads of this run spent BLOCKED on the memo/injection locks
  /// (lock_stats.hpp), in ns.  Best effort: the underlying registry is
  /// process-global, so concurrent runs (pool slots) overlap in it; 0
  /// when BREL_LOCK_STATS is compiled out.
  std::uint64_t lock_wait_ns = 0;
  double runtime_seconds = 0.0;
};

/// Add `from`'s counters into `into` (the flags merge by OR).  `workers`
/// and `runtime_seconds` are left to the caller: an engine run counts
/// its workers, a partitioned solve takes the widest block, and each
/// times itself.
void accumulate_stats(SolverStats& into, const SolverStats& from);

/// A compatible solution plus the run's statistics: `stats` is the sum
/// over the workers, `worker_stats` one entry per worker that ran (empty
/// when the root was served by the memo or the solve was partitioned).
struct SolveResult {
  MultiFunction function;
  double cost = 0.0;
  SolverStats stats;
  std::vector<SolverStats> worker_stats;
  /// Rank tables of the solved relation (make_memo_space) as the engine
  /// built them for this run; null for a partitioned solve.  The ranks
  /// come from sorted variable ids, so a sift does not change them.
  std::shared_ptr<const MemoSpace> space;
  /// `function` and `cost` in rank form under `space`, when the engine
  /// already built it (an equal-cost tie or a fleet merge); empty
  /// otherwise.
  std::optional<PortableSolution> portable;
};

/// The solver.  Reusable across relations; each solve() run is
/// independent.
class BrelSolver {
 public:
  explicit BrelSolver(SolverOptions options = {});

  /// Solve a well-defined relation.  Throws std::invalid_argument when the
  /// relation is not well defined (no compatible function exists; callers
  /// can use BooleanRelation::totalized() when partial relations are
  /// acceptable).  The result is always compatible with `r`.
  [[nodiscard]] SolveResult solve(const BooleanRelation& r) const;

  [[nodiscard]] const SolverOptions& options() const noexcept {
    return options_;
  }

 private:
  SolverOptions options_;
};

}  // namespace brel
