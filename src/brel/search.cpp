#include "brel/search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "brel/quick_solver.hpp"

namespace brel {

namespace {

/// Derive the split vertex from the largest conflicting input cube
/// (Sec. 7.4): don't-care positions are assigned 1.
std::vector<bool> vertex_from_cube(const Cube& cube, std::size_t num_vars) {
  std::vector<bool> x(num_vars, true);
  for (std::size_t v = 0; v < cube.num_vars(); ++v) {
    if (cube.lit(v) == Lit::Zero) {
      x[v] = false;
    }
  }
  return x;
}

/// Outputs ordered by manager variable index (Sec. 7.4: "following the
/// variable order in the BDD manager").
std::vector<std::size_t> outputs_in_var_order(const BooleanRelation& rel) {
  std::vector<std::size_t> order(rel.num_outputs());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rel.outputs()[a] < rel.outputs()[b];
  });
  return order;
}

/// A NaN cost would break the strict weak ordering std::push_heap
/// requires; map it to +inf (explore last) before it becomes a priority.
double sanitize_priority(double cost) noexcept {
  return std::isnan(cost) ? std::numeric_limits<double>::infinity() : cost;
}

/// Generate one child: symmetry pruning, global-memo probe, QuickSolver
/// safety net, optional best-first priority seeding, frontier push.
/// `parent` supplies the symmetry depth gate (exactly like the original
/// loop) and the ancestor chain for solution memoization.  `delta` is the
/// child's incremental change-region cofactor (null when no delta is
/// tracked this run; see delta_context.hpp).  Every cut that is not a
/// pure function of (characteristic, remaining depth) taints the affected
/// ancestor chain so the completeness marks stay honest (see
/// SearchContext's taint sets).
void enqueue_child(SearchContext& ctx, BooleanRelation&& child, Bdd&& delta,
                   const Subproblem& parent, Frontier& frontier) {
  if (ctx.symmetries.has_value() &&
      parent.depth < ctx.options.symmetry_depth &&
      ctx.symmetries->seen_before_or_insert(child.characteristic())) {
    ++ctx.stats.pruned_by_symmetry;
    // The symmetric twin's solutions surface in ANOTHER subtree: every
    // relation on this chain loses them, so none is subtree-final.
    ctx.taint_hard(parent.memo_chain);
    return;
  }

  // Global-memo probe: recognizes subtrees first explored by earlier
  // solves or other managers (pool workers, parallel workers).  A hit
  // imports the memoized best into our manager and prunes the branch
  // (Property 5.1: a solution of the child is a solution of every
  // ancestor); every published entry carries at least its quick solution
  // (record_solution below), so a hit is never worse than the safety
  // net.  In-tree self-hits are impossible (Property 5.4: Split
  // partitions IF(R), and the key is a faithful image of the
  // characteristic), so a cold solve is unaffected by an empty memo.
  // The probe is HASH-ONLY (make_memo_handle): a miss costs one cached
  // structural-hash walk and serializes nothing; only a candidate hit
  // (or the publishes below) ever builds the canonical key.
  const std::size_t child_depth = parent.depth + 1;
  const bool delta_untouched = !delta.is_null() && delta.is_zero();
  MemoKeyHandle memo_key;
  if (ctx.memo != nullptr) {
    memo_key = make_memo_handle(ctx.memo_space_ref, child.characteristic());
    ctx.memo_touched.push_back({memo_key, child_depth});
    // lookup_at() only surfaces COMPLETE entries whose claim covers this
    // depth (subtrees some run of this configuration explored to its
    // natural end, or truncated exactly as our depth budget would), so a
    // truncated run's partial publishes can never prune us.
    if (const std::optional<MemoHit> hit = ctx.memo->lookup_at(
            memo_key, ctx.memo_probe_depth(child_depth))) {
      ++ctx.stats.memo_hits;
      ++ctx.stats.solutions_seen;
      if (ctx.delta_active && delta_untouched) {
        // The incremental path's payoff: a zero change cofactor proved
        // this subproblem byte-identical to the base run's, and its
        // marked entry pruned the whole re-search.
        ++ctx.stats.delta_reused;
      }
      if (hit->depth_truncated) {
        // Importing a depth-truncated result truncates US: ancestors may
        // only claim truncated completeness from here on.
        ctx.taint_soft(parent.memo_chain);
        ctx.memo_soft_tainted.insert(memo_key.get());
      }
      // Propagate the hit up the chain: the pruned branch's ancestors
      // (this run's root included) must memoize at least this well.
      // Chain handles were verified at their own publish/probe, so each
      // republish is a token compare — no key work.
      for (const MemoKeyHandle& key : parent.memo_chain) {
        ctx.memo->publish(key, hit->solution, ctx.memo_stamp.run_id);
      }
      ctx.offer_solution(
          import_portable_solution(ctx.mgr, *ctx.memo_space, hit->solution),
          hit->solution.cost);
      return;
    }
  }

  Subproblem sub{std::move(child), child_depth};
  sub.delta = std::move(delta);
  if (ctx.memo != nullptr) {
    sub.memo_chain = parent.memo_chain;
    sub.memo_chain.push_back(std::move(memo_key));
  }

  // Sec. 7.6: every generated subrelation is quick-solved immediately, so
  // a solution from this branch survives even if the child is never
  // popped (frontier overflow, budget, timeout).
  MultiFunction q = quick_solve(sub.rel, ctx.options.minimizer);
  ++ctx.stats.quick_solutions;
  ++ctx.stats.solutions_seen;
  const double qc = ctx.cost(q);
  ctx.record_solution(sub, std::move(q), qc);

  if (ctx.delta_active) {
    ++ctx.stats.delta_researched;
  }
  seed_priority(ctx, sub, frontier);
  if (!frontier.try_push(std::move(sub))) {
    // The dropped child's subtree is lost to every relation on its
    // chain; only the QuickSolver result above survives.
    ctx.taint_hard(sub.memo_chain);
    ++ctx.stats.fifo_overflow;
  }
}

}  // namespace

void seed_priority(SearchContext& ctx, Subproblem& sub,
                   const Frontier& frontier) {
  if (!frontier.wants_priority() || frontier.size() >= frontier.capacity()) {
    return;
  }
  if (sub.rel.is_function()) {
    sub.candidate = sub.rel.extract_function();
  } else {
    sub.candidate = minimize_misf_candidate(ctx, sub.rel);
  }
  sub.candidate_cost = ctx.cost(*sub.candidate);
  sub.priority = sanitize_priority(sub.candidate_cost);
}

bool SearchContext::timed_out() const {
  return options.timeout.count() > 0 &&
         std::chrono::steady_clock::now() - start >= options.timeout;
}

void SearchContext::offer_solution(MultiFunction f, double solution_cost) {
  if (solution_cost < best_cost) {
    best = std::move(f);
    best_cost = solution_cost;
    best_portable.reset();
    return;
  }
  // Equal-cost ties resolve through the canonical total order so the
  // kept incumbent does not depend on arrival order (memo-served
  // candidates arrive earlier than a cold search would produce them).
  if (solution_cost == best_cost && tie_space != nullptr &&
      !best.outputs.empty()) {
    if (!best_portable.has_value()) {
      best_portable = make_portable_solution(*tie_space, best, best_cost);
    }
    PortableSolution candidate =
        make_portable_solution(*tie_space, f, solution_cost);
    if (canonically_before(candidate, *best_portable)) {
      best = std::move(f);
      best_portable = std::move(candidate);
    }
  }
}

void SearchContext::offer_solution(MultiFunction f) {
  const double solution_cost = cost(f);
  offer_solution(std::move(f), solution_cost);
}

void SearchContext::record_solution(const Subproblem& from, MultiFunction f,
                                    double solution_cost) {
  if (memo != nullptr && !from.memo_chain.empty()) {
    const PortableSolution portable =
        make_portable_solution(*memo_space, f, solution_cost);
    for (const MemoKeyHandle& key : from.memo_chain) {
      memo->publish(key, portable, memo_stamp.run_id);
    }
  }
  offer_solution(std::move(f), solution_cost);
}

void SearchContext::taint_hard(std::span<const MemoKeyHandle> chain) {
  for (const MemoKeyHandle& key : chain) {
    memo_hard_tainted.insert(key.get());
  }
}

void SearchContext::taint_soft(std::span<const MemoKeyHandle> chain) {
  for (const MemoKeyHandle& key : chain) {
    memo_soft_tainted.insert(key.get());
  }
}

std::vector<MemoMark> make_memo_marks(
    std::span<const SearchContext::MemoTouch> touched,
    const std::unordered_set<const LazyMemoKey*>& hard_tainted,
    const std::unordered_set<const LazyMemoKey*>& soft_tainted,
    bool unlimited_depth, const LazyMemoKey* root_key, bool allow_root) {
  std::vector<MemoMark> marks;
  marks.reserve(touched.size());
  // Marks carry materialized keys (the once-per-run cold path).  Every
  // handle that can match a store entry was materialized at its first
  // publish or verified hit, so shared_key() is a plain read here.
  for (const SearchContext::MemoTouch& t : touched) {
    if (hard_tainted.count(t.key.get()) == 0) {
      if (soft_tainted.count(t.key.get()) != 0) {
        marks.push_back(MemoMark{t.key->shared_key(),
                                 static_cast<std::uint64_t>(t.depth), true});
      } else {
        marks.push_back(MemoMark{
            t.key->shared_key(),
            unlimited_depth ? GlobalMemo::kAnyDepth
                            : static_cast<std::uint64_t>(t.depth),
            false});
      }
    } else if (t.key.get() == root_key && allow_root) {
      // Root exception (see the protocol in global_memo.hpp): whatever
      // cut the run's subtrees, the root entry IS the returned result —
      // truncated-at-0 serves exactly a re-solve of the same relation.
      marks.push_back(MemoMark{t.key->shared_key(), 0, true});
    }
  }
  return marks;
}

MultiFunction minimize_misf_candidate(SearchContext& ctx,
                                      const BooleanRelation& rel) {
  MultiFunction candidate;
  candidate.outputs.reserve(rel.num_outputs());
  for (std::size_t i = 0; i < rel.num_outputs(); ++i) {
    candidate.outputs.push_back(
        ctx.options.minimizer.minimize(rel.project_output(i)));
    ++ctx.stats.misf_minimizations;
  }
  return candidate;
}

void handle_terminal(SearchContext& ctx, const Subproblem& item) {
  // Best-first priced the terminal at push time; reuse that instead of
  // re-extracting and re-costing.
  MultiFunction f = item.candidate.has_value() ? *item.candidate
                                               : item.rel.extract_function();
  ++ctx.stats.solutions_seen;
  const double c =
      item.candidate.has_value() ? item.candidate_cost : ctx.cost(f);
  ctx.bound_cost = std::min(ctx.bound_cost, c);
  ctx.record_solution(item, std::move(f), c);
}

std::optional<SplitChoice> select_flexibility_split(
    const BooleanRelation& rel) {
  BddManager& mgr = rel.manager();
  for (const std::size_t i : outputs_in_var_order(rel)) {
    const Isf isf = rel.project_output(i);
    if (!isf.dc().is_zero()) {
      return SplitChoice{mgr.pick_minterm(isf.dc()), i};
    }
  }
  return std::nullopt;
}

SplitChoice select_conflict_split(SearchContext& ctx,
                                  const BooleanRelation& rel,
                                  const Bdd& incomp) {
  BddManager& mgr = ctx.mgr;
  const Bdd conflict_inputs = mgr.exists(incomp, rel.outputs());
  const Cube cube = mgr.shortest_cube(conflict_inputs);
  std::vector<bool> x = vertex_from_cube(cube, mgr.num_vars());
  for (const std::size_t i : outputs_in_var_order(rel)) {
    if (rel.can_split(x, i)) {
      return SplitChoice{std::move(x), i};
    }
  }
  // Impossible for a genuine conflict vertex (see Sec. 6.3): its image has
  // >= 2 vertices, so some output admits both values.
  throw std::logic_error("BrelSolver: no splittable output at conflict");
}

void expand_subproblem(SearchContext& ctx, Subproblem item,
                       Frontier& frontier) {
  const BooleanRelation& rel = item.rel;
  ++ctx.stats.relations_explored;

  // Terminal case (Fig. 6 lines 1-3): a functional relation *is* its
  // unique solution.
  if (rel.is_function()) {
    handle_terminal(ctx, item);
    return;
  }

  // Lines 4-5: the MISF candidate — either precomputed at push time
  // (best-first) or minimized here (BFS/DFS, like the original loop).
  MultiFunction candidate;
  double candidate_cost;
  if (item.candidate.has_value()) {
    candidate = std::move(*item.candidate);
    candidate_cost = item.candidate_cost;
  } else {
    candidate = minimize_misf_candidate(ctx, rel);
    candidate_cost = ctx.cost(candidate);
  }

  // Line 6: bound.  Constraining the relation further cannot beat a
  // cheaper solution already obtained with more flexibility.  The bound
  // is maintained from *explored* candidates only (see run()); it is
  // heuristic when the ISF minimizer is (like ours) not exact, so exact
  // mode skips it.
  if (!ctx.options.exact && ctx.options.use_cost_bound &&
      candidate_cost >= ctx.bound_cost) {
    ++ctx.stats.pruned_by_cost;
    // The bound depends on exploration order, not on this subproblem:
    // everything on the chain lost this subtree's solutions for a reason
    // no later prober can reproduce from the key alone.
    ctx.taint_hard(item.memo_chain);
    return;
  }

  // Depth cap (schedule-independent truncation — see SolverOptions): the
  // node itself is processed in full — terminal handling above, candidate
  // recording below — but its subtree is cut.
  const bool depth_capped = item.depth >= ctx.options.max_depth;

  const Bdd incomp = rel.incompatibilities(candidate);
  std::optional<SplitChoice> choice;
  if (incomp.is_zero()) {
    // Lines 7-8: compatible solution.  Nothing below reads the candidate
    // again, so it moves into the incumbent/memo.
    ++ctx.stats.solutions_seen;
    ctx.bound_cost = std::min(ctx.bound_cost, candidate_cost);
    ctx.record_solution(item, std::move(candidate), candidate_cost);
    if (!ctx.options.exact) {
      return;
    }
    if (depth_capped) {
      ++ctx.stats.depth_limited;
      // Depth-cap cuts are a pure function of (characteristic, remaining
      // budget): the chain's entries stay exact for probers at the SAME
      // depths — truncated, not unmarkable (see the taint sets).
      ctx.taint_soft(item.memo_chain);
      return;
    }
    // Exact mode: the branch may still hide cheaper functions; keep
    // splitting on any remaining flexibility until leaves are reached.
    choice = select_flexibility_split(rel);
    if (!choice.has_value()) {
      return;  // fully constrained in every output: nothing below
    }
  } else {
    // Lines 9-10: select the split point from the conflicts (Sec. 7.4).
    ++ctx.stats.conflicts;
    if (depth_capped) {
      ++ctx.stats.depth_limited;
      ctx.taint_soft(item.memo_chain);
      return;
    }
    choice = select_conflict_split(ctx, rel, incomp);
  }

  // Lines 11-12: both halves enter the frontier through the symmetry
  // check, the memo probe and the QuickSolver safety net.  When a delta
  // is tracked, Split constrains base and new relation identically, so
  // constraining the parent's XOR with the same removals yields each
  // child's XOR (BooleanRelation::split_removals); a delta already at
  // zero stays zero without touching the kernels.
  ++ctx.stats.splits;
  auto [r0, r1] = rel.split(choice->vertex, choice->output);
  Bdd delta0;
  Bdd delta1;
  if (!item.delta.is_null()) {
    if (item.delta.is_zero()) {
      delta0 = item.delta;
      delta1 = item.delta;
    } else {
      const auto [removed0, removed1] =
          rel.split_removals(choice->vertex, choice->output);
      delta0 = item.delta & !removed0;
      delta1 = item.delta & !removed1;
    }
  }
  enqueue_child(ctx, std::move(r0), std::move(delta0), item, frontier);
  enqueue_child(ctx, std::move(r1), std::move(delta1), item, frontier);
}

}  // namespace brel
