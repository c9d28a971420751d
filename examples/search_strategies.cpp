// The pluggable search engine: one relation explored under the three
// frontier strategies (partial BFS, DFS, best-first) and re-solved from a
// shared cross-solve memo, with the exploration statistics side by side.
//
// Also shows the engine layer directly — BrelSolver is just a facade; a
// SearchEngine can be driven standalone (it skips the facade's input
// partitioning), with the shared memo inspected afterwards.

#include <cstdio>
#include <limits>

#include "benchgen/relation_suite.hpp"
#include "brel/search.hpp"

namespace {

void report(const char* title, const brel::SolveResult& result) {
  std::printf("%-28s cost=%6.0f explored=%3zu splits=%3zu pruned(cost)=%3zu "
              "memo_hits=%zu\n",
              title, result.cost, result.stats.relations_explored,
              result.stats.splits, result.stats.pruned_by_cost,
              result.stats.memo_hits);
}

}  // namespace

int main() {
  using namespace brel;
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[4], inputs, outputs);
  std::printf("instance %s: %zu inputs, %zu outputs\n\n",
              relation_suite()[4].name.c_str(), r.num_inputs(),
              r.num_outputs());

  // 1. The three frontier strategies through the solver facade.
  for (const auto& [title, order] :
       {std::pair{"partial BFS (paper)", ExplorationOrder::BreadthFirst},
        std::pair{"DFS", ExplorationOrder::DepthFirst},
        std::pair{"best-first (MISF cost)", ExplorationOrder::BestFirst}}) {
    SolverOptions options;
    options.max_relations = 30;
    options.order = order;
    report(title, BrelSolver(options).solve(r));
  }

  // 2. A memo shared across solves: the warm re-solve is served from the
  //    cold run's root entry instead of re-exploring — same cost as the
  //    cold solve, zero explored relations.  Within a single run the
  //    memo never hits (Property 5.4: Split partitions IF(R)), and only
  //    entries of a run that drained naturally surface, so the cold
  //    solve runs without a cost bound, depth-capped, on an unlimited
  //    budget (see global_memo.hpp).
  SolverOptions memoized;
  memoized.max_relations = std::numeric_limits<std::size_t>::max();
  memoized.use_cost_bound = false;
  memoized.max_depth = 6;
  memoized.global_memo = std::make_shared<GlobalMemo>();
  report("cold solve (memo empty)", BrelSolver(memoized).solve(r));
  report("warm re-solve (shared)", BrelSolver(memoized).solve(r));

  // 3. The engine layer directly: same run, and the caller inspects the
  //    shared memo after the fact.
  SearchEngine engine(r, memoized);
  const SolveResult result = engine.run();
  const GlobalMemo& memo = *memoized.global_memo;
  std::printf("\nengine run: cost=%.0f, explored=%zu, memo %zu entries, "
              "%llu/%llu probe hits\n",
              result.cost, result.stats.relations_explored, memo.size(),
              static_cast<unsigned long long>(memo.hits()),
              static_cast<unsigned long long>(memo.probes()));
  return 0;
}
