#pragma once
/// \file search.hpp
/// The BREL search engine: the Fig. 6 branch-and-bound recursion broken
/// into an explicit state object plus small focused steps, driven by
/// `num_workers` workers.
///
/// Layering (see DESIGN.md):
///
///   BrelSolver (facade, solver.hpp)
///     └─ SearchEngine (driver, search_engine.cpp)
///          └─ worker × num_workers    one loop; 1 worker runs inline
///               ├─ Frontier           exploration order (frontier.hpp)
///               ├─ GlobalMemo         cross-solve reuse (global_memo.hpp)
///               ├─ SymmetryCache      near-root symmetry pruning
///               └─ SearchContext      incumbent / bound / stats / deadline
///
/// `SearchContext` carries everything one expansion needs: the manager,
/// the resolved cost function, the incumbent solution and its cost, the
/// line-6 bound, the deadline and the statistics.  Each worker owns one.
/// The steps (`expand_subproblem`, `handle_terminal`, the split
/// selectors) are free functions over the context so they can be tested
/// without going through the solver facade.
///
/// With one worker the engine runs in the caller's manager on the
/// calling thread.  With the default BFS/DFS strategies it performs
/// *exactly* the operations of the original monolithic loop, in the same
/// order, so results are bit-identical; best-first additionally
/// precomputes each child's MISF candidate at push time to order the
/// frontier by it.  With N > 1 workers each owns a private manager and
/// work migrates between them through an injection queue; the
/// schedule-independent configuration (`use_cost_bound = false` plus a
/// `max_depth` cap, or a drained frontier) explores a fixed node set, so
/// its cost does not move with the worker count — test_parallel_engine
/// pins that across the whole benchmark suite.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "brel/frontier.hpp"
#include "brel/solver.hpp"
#include "brel/symmetry.hpp"
#include "relation/relation.hpp"

namespace brel {

/// Mutable state threaded through every step of one solve() run.
struct SearchContext {
  BddManager& mgr;
  const SolverOptions& options;
  CostFunction cost;  ///< options.cost or the default, never empty

  std::chrono::steady_clock::time_point start;

  /// Incumbent: best compatible solution seen so far (from any source —
  /// QuickSolver, terminals, compatible MISF candidates).
  MultiFunction best;
  double best_cost = std::numeric_limits<double>::infinity();

  /// The line-6 branch-and-bound bound.  Maintained from *explored*
  /// candidates only — QuickSolver results never lower it (see the
  /// step-0 comment in search.cpp).
  double bound_cost = std::numeric_limits<double>::infinity();

  SolverStats stats;

  std::optional<SymmetryCache> symmetries;

  /// Cross-solve memo (SolverOptions::global_memo); null when disabled.
  GlobalMemo* memo = nullptr;

  /// Rank tables of the run's root relation.  They key the memo (shared
  /// ownership: HASHED key handles keep the space alive until they
  /// materialize) and anchor the canonical equal-cost tie order (see
  /// canonically_before).  The engine always sets it — memo or not — so a
  /// cold memo-less run and a memo-served warm run break every tie the
  /// same way and stay bit-identical.  `best_portable` caches the
  /// incumbent's rank form; empty until the first cost tie forces a
  /// comparison, invalidated whenever a strictly better incumbent wins.
  std::shared_ptr<const MemoSpace> space = {};
  std::optional<PortableSolution> best_portable = {};

  /// This run's memo identity (GlobalMemo::begin_run), threaded through
  /// every publish so the final mark_complete can tell its own entries
  /// from a concurrent run's re-creations (see MemoRunStamp).
  MemoRunStamp memo_stamp = {};

  /// One memo key this run created, with the split depth it was created
  /// at — the raw material of the per-subtree completeness marks (see
  /// the protocol in global_memo.hpp).  The handle may still be HASHED
  /// when the probe missed and nothing ever published it; every key
  /// that reaches a publish or a verified hit is materialized by then.
  struct MemoTouch {
    MemoKeyHandle key;
    std::size_t depth = 0;
  };

  /// Every memo key this run created (root first, then every generated
  /// child).  A run that ends at its natural frontier drain — no
  /// budget/timeout stop — turns the list into depth-indexed MemoMarks
  /// (filtered through the taint sets below) for
  /// GlobalMemo::mark_complete; an interrupted run leaves every entry
  /// invisible.
  std::vector<MemoTouch> memo_touched = {};

  /// Taint tracking for the per-subtree completeness marks.  A key is
  /// HARD-tainted when its subtree lost solutions to a cut whose result
  /// is not a pure function of (characteristic, remaining depth) — a
  /// cost-bound prune, a symmetry prune, a frontier-overflow drop — and
  /// must not be marked at all.  A key is SOFT-tainted when its subtree
  /// was cut only by the depth cap (directly, or by importing a
  /// depth-truncated memo entry): its entry is still exact for a prober
  /// at the same depth and is marked depth-truncated.  Tracked by raw
  /// handle address: within one run each canonical key is one shared
  /// LazyMemoKey (chains copy shared_ptrs), and the pointers are kept
  /// alive by memo_touched.
  std::unordered_set<const LazyMemoKey*> memo_hard_tainted = {};
  std::unordered_set<const LazyMemoKey*> memo_soft_tainted = {};

  /// Incremental delta (delta_context.hpp): true while this run diffs
  /// against a remembered base relation and Subproblem::delta carries
  /// change-region cofactors (mirrored into stats.delta_active).
  bool delta_active = false;

  [[nodiscard]] bool timed_out() const;

  /// The depth to probe the memo at for a node at `depth`: with a finite
  /// depth cap an entry is only valid relative to the prober's remaining
  /// budget, so the true depth is passed; without a cap every naturally
  /// complete entry is exact anywhere and probing at 0 also admits
  /// root-truncated entries (the legacy warm-root fast path).
  [[nodiscard]] std::uint64_t memo_probe_depth(std::size_t depth)
      const noexcept {
    return options.max_depth == static_cast<std::size_t>(-1)
               ? 0
               : static_cast<std::uint64_t>(depth);
  }

  /// Hard/soft-taint every key on `chain` (see the taint sets above).
  void taint_hard(std::span<const MemoKeyHandle> chain);
  void taint_soft(std::span<const MemoKeyHandle> chain);


  /// Offer a compatible solution to the incumbent (does not touch the
  /// bound).  The one-argument form evaluates the cost function itself.
  void offer_solution(MultiFunction f, double solution_cost);
  void offer_solution(MultiFunction f);

  /// Offer a solution AND memoize it in the global memo for every
  /// subrelation on the discovering node's ancestor chain (Property 5.1
  /// justifies the attribution).
  void record_solution(const Subproblem& from, MultiFunction f,
                       double solution_cost);
};

/// Turn touched keys + taint sets into depth-indexed completeness marks
/// (see the protocol in global_memo.hpp): untainted keys are naturally
/// complete at their depth (kAnyDepth when `unlimited_depth`),
/// soft-tainted keys are depth-truncated at their depth, hard-tainted
/// keys are skipped — except `root_key` (the run's root), which is
/// exactly what the run returned and is marked truncated-at-0 whenever
/// `allow_root` (no frontier-overflow drops anywhere in the run).  The
/// engine passes the taint sets unioned over all its workers.
[[nodiscard]] std::vector<MemoMark> make_memo_marks(
    std::span<const SearchContext::MemoTouch> touched,
    const std::unordered_set<const LazyMemoKey*>& hard_tainted,
    const std::unordered_set<const LazyMemoKey*>& soft_tainted,
    bool unlimited_depth, const LazyMemoKey* root_key, bool allow_root);

/// A split decision: the input vertex and the output to split on.
struct SplitChoice {
  std::vector<bool> vertex;
  std::size_t output;
};

/// Fig. 6 lines 4-5: minimize the MISF over-approximation output by
/// output.  Counts one misf_minimization per output.
[[nodiscard]] MultiFunction minimize_misf_candidate(SearchContext& ctx,
                                                    const BooleanRelation& rel);

/// Fig. 6 lines 1-3: a functional relation *is* its unique solution;
/// record it (reusing a push-time candidate when present) and lower the
/// bound.
void handle_terminal(SearchContext& ctx, const Subproblem& item);

/// Exact-mode continuation below a compatible candidate: the first output
/// (in manager variable order) that still has don't-care flexibility, or
/// nullopt when the relation is fully constrained.
[[nodiscard]] std::optional<SplitChoice> select_flexibility_split(
    const BooleanRelation& rel);

/// Fig. 6 lines 9-10 / Sec. 7.4: split vertex from the largest cube of the
/// input projection of Incomp (don't-cares assigned 1), first output in
/// variable order admitting both values.  Throws std::logic_error if no
/// output can split — impossible for a genuine conflict (Sec. 6.3).
[[nodiscard]] SplitChoice select_conflict_split(SearchContext& ctx,
                                                const BooleanRelation& rel,
                                                const Bdd& incomp);

/// One full expansion of a popped subproblem: terminal handling, MISF
/// candidate + bounding, compatibility check, split selection, and child
/// generation (symmetry pruning, memo probe, QuickSolver safety net,
/// frontier push).
void expand_subproblem(SearchContext& ctx, Subproblem item,
                       Frontier& frontier);

/// For priority-ordered frontiers, price `sub` before it is pushed:
/// terminals by their exact solution, everything else by the MISF
/// candidate (which expansion then reuses).  Skipped when the frontier is
/// full — the push would be rejected anyway, and MISF minimization is the
/// dominant per-node cost.  No-op for strategies that ignore priority.
/// Used by the engine for the root and by workers for subproblems
/// received through the injection queue (which travel without their
/// push-time candidate).
void seed_priority(SearchContext& ctx, Subproblem& sub,
                   const Frontier& frontier);

/// Resolve SolverOptions::num_workers (0 = one per hardware thread).
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested);

/// Drives `num_workers` workers, each a frontier plus a context, to one
/// SolveResult.  One engine per solve() run; the solver facade owns
/// nothing but options.
class SearchEngine {
 public:
  /// Copies the root and options (the engine outlives temporaries).
  /// Throws std::invalid_argument when `root` is not well defined or when
  /// `options.global_memo` was stamped for another cost/mode.
  SearchEngine(const BooleanRelation& root, const SolverOptions& options);

  /// Run to completion (every frontier and the injection queue drained,
  /// budget exhausted, or deadline hit) and return the incumbent plus
  /// statistics: `stats` sums the workers, `worker_stats` holds one entry
  /// per worker that ran (empty on a root memo hit).  The function lives
  /// in the root relation's manager.  With one worker everything runs on
  /// the calling thread; otherwise exceptions thrown inside a worker stop
  /// the fleet and are rethrown.
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
