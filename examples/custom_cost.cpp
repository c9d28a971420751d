// Customizable cost functions (Sec. 7.3): the same relation solved under
// four different objectives produces four different solutions.  Shows the
// built-in costs plus a fully custom lambda, the BFS/DFS exploration
// orders, and a warm re-solve from a shared cross-solve memo.

#include <cstdio>
#include <memory>

#include "benchgen/relation_suite.hpp"
#include "brel/solver.hpp"

namespace {

void solve_with(const char* title, const brel::BooleanRelation& r,
                brel::SolverOptions options) {
  using namespace brel;
  options.max_relations = 50;
  const SolveResult result = BrelSolver(options).solve(r);
  std::size_t literals = 0;
  std::size_t widest = 0;
  std::size_t total_nodes = 0;
  for (const Bdd& f : result.function.outputs) {
    literals += f.manager()->isop(f, f).cover.literal_count();
    widest = std::max(widest, f.support().size());
    total_nodes += f.size();
  }
  std::printf("%-34s cost=%7.0f  nodes=%3zu  lits=%3zu  max-support=%zu  "
              "explored=%zu\n",
              title, result.cost, total_nodes, literals, widest,
              result.stats.relations_explored);
}

}  // namespace

int main() {
  using namespace brel;
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[2], inputs, outputs);
  std::printf("instance %s: %zu inputs, %zu outputs\n\n", "int3",
              r.num_inputs(), r.num_outputs());

  SolverOptions area;
  area.cost = sum_of_bdd_sizes();
  solve_with("sum of BDD sizes (area)", r, area);

  SolverOptions delay;
  delay.cost = sum_of_squared_bdd_sizes();
  solve_with("sum of squared sizes (delay)", r, delay);

  SolverOptions lits;
  lits.cost = literal_count_cost();
  solve_with("SOP literal count", r, lits);

  SolverOptions balance;
  balance.cost = support_balance_cost(8.0);
  solve_with("support balance (congestion)", r, balance);

  // Fully custom: penalize any output that depends on the first input
  // (e.g. a late-arriving signal).
  SolverOptions custom;
  const std::uint32_t late = inputs.front();
  custom.cost = [late](const MultiFunction& f) {
    double cost = 0.0;
    for (const Bdd& g : f.outputs) {
      cost += static_cast<double>(g.size());
      for (const std::uint32_t v : g.support()) {
        if (v == late) {
          cost += 100.0;  // strongly discourage using the late signal
        }
      }
    }
    return cost;
  };
  solve_with("custom: avoid late input", r, custom);

  // Frontier strategy ablation (Sec. 7.2 argues for BFS diversity; the
  // pluggable engine adds a cost-directed best-first order).
  SolverOptions bfs;
  bfs.order = ExplorationOrder::BreadthFirst;
  solve_with("BFS exploration (paper)", r, bfs);
  SolverOptions dfs;
  dfs.order = ExplorationOrder::DepthFirst;
  solve_with("DFS exploration", r, dfs);
  SolverOptions best;
  best.order = ExplorationOrder::BestFirst;
  solve_with("best-first exploration", r, best);
  // A GlobalMemo shared by two solves under one objective: the second
  // solve is served from the first's root entry at equal cost with zero
  // exploration (the memo is stamped with the cost identity and rejects
  // any other objective).  Only entries of a run that drained naturally
  // surface, so this pair runs bound-off with a depth cap small enough
  // for the tree (at most 31 nodes) to fit the 50-relation budget.
  SolverOptions memoized;
  memoized.use_cost_bound = false;
  memoized.max_depth = 4;
  memoized.global_memo = std::make_shared<GlobalMemo>();
  solve_with("BFS + shared memo (cold)", r, memoized);
  solve_with("BFS + shared memo (warm)", r, memoized);
  return 0;
}
