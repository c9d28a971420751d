// Tests for the pluggable search-engine layer: frontier strategy
// semantics (FIFO / LIFO / best-first ordering, capacity, move-only
// items), cross-solve memo reuse (in-tree no-duplicate invariant, warm
// re-solves, fingerprint checks), the SearchEngine driver, and
// strategy-independence of exact mode.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <type_traits>

#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/search.hpp"
#include "relation/enumeration.hpp"

namespace brel {
namespace {

// Items move through the frontier; copying a subproblem would duplicate
// the whole characteristic-BDD handle chain for nothing.
static_assert(!std::is_copy_constructible_v<Subproblem>);
static_assert(std::is_nothrow_move_constructible_v<Subproblem>);

class FrontierTest : public ::testing::Test {
 protected:
  BddManager mgr{4};
  BooleanRelation rel = BooleanRelation::full(mgr, {0, 1}, {2, 3});

  Subproblem item(std::size_t depth, double priority = 0.0) {
    Subproblem sub{rel, depth};
    sub.priority = priority;
    return sub;
  }
};

TEST_F(FrontierTest, FifoPopsInInsertionOrder) {
  BoundedFifoFrontier fifo{100};
  EXPECT_TRUE(fifo.empty());
  for (std::size_t d : {1u, 2u, 3u}) {
    EXPECT_TRUE(fifo.try_push(item(d)));
  }
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_EQ(fifo.pop().depth, 1u);
  EXPECT_EQ(fifo.pop().depth, 2u);
  EXPECT_EQ(fifo.pop().depth, 3u);
  EXPECT_TRUE(fifo.empty());
}

TEST_F(FrontierTest, LifoPopsInReverseOrder) {
  LifoFrontier lifo{100};
  for (std::size_t d : {1u, 2u, 3u}) {
    EXPECT_TRUE(lifo.try_push(item(d)));
  }
  EXPECT_EQ(lifo.pop().depth, 3u);
  EXPECT_EQ(lifo.pop().depth, 2u);
  EXPECT_EQ(lifo.pop().depth, 1u);
}

TEST_F(FrontierTest, BestFirstPopsCheapestWithFifoTieBreak) {
  BestFirstFrontier best{100};
  EXPECT_TRUE(best.wants_priority());
  EXPECT_TRUE(best.try_push(item(1, 5.0)));
  EXPECT_TRUE(best.try_push(item(2, 1.0)));
  EXPECT_TRUE(best.try_push(item(3, 5.0)));
  EXPECT_TRUE(best.try_push(item(4, 3.0)));
  EXPECT_EQ(best.pop().depth, 2u);  // priority 1
  EXPECT_EQ(best.pop().depth, 4u);  // priority 3
  EXPECT_EQ(best.pop().depth, 1u);  // priority 5, inserted first
  EXPECT_EQ(best.pop().depth, 3u);  // priority 5, inserted second
}

TEST_F(FrontierTest, CapacityBoundsPushesButNotTheRoot) {
  for (const ExplorationOrder order :
       {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
        ExplorationOrder::BestFirst}) {
    const auto frontier = make_frontier(order, 2);
    EXPECT_TRUE(frontier->try_push(item(1)));
    EXPECT_TRUE(frontier->try_push(item(2)));
    EXPECT_FALSE(frontier->try_push(item(3)));  // full
    EXPECT_EQ(frontier->size(), 2u);
    frontier->push_root(item(0));  // the root bypasses the bound
    EXPECT_EQ(frontier->size(), 3u);
  }
}

TEST_F(FrontierTest, FactoryMakesMatchingStrategy) {
  EXPECT_NE(dynamic_cast<BoundedFifoFrontier*>(
                make_frontier(ExplorationOrder::BreadthFirst, 1).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<LifoFrontier*>(
                make_frontier(ExplorationOrder::DepthFirst, 1).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<BestFirstFrontier*>(
                make_frontier(ExplorationOrder::BestFirst, 1).get()),
            nullptr);
}

class SearchEngineTest : public ::testing::Test {
 protected:
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
};

TEST_F(SearchEngineTest, AllStrategiesFindCompatibleSolutionsOnPaperSuite) {
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    for (const ExplorationOrder order :
         {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
          ExplorationOrder::BestFirst}) {
      SolverOptions options;
      options.order = order;
      options.max_relations = 20;
      const SolveResult result = BrelSolver(options).solve(r);
      EXPECT_TRUE(r.is_compatible(result.function));
      EXPECT_GT(result.stats.relations_explored, 0u);
    }
  }
}

TEST_F(SearchEngineTest, ExactModeCostIsStrategyIndependent) {
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    const ExactOptimum truth = exact_optimum(r, sum_of_bdd_sizes());
    for (const ExplorationOrder order :
         {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
          ExplorationOrder::BestFirst}) {
      SolverOptions options;
      options.exact = true;
      options.cost = sum_of_bdd_sizes();
      options.order = order;
      const SolveResult result = BrelSolver(options).solve(r);
      EXPECT_DOUBLE_EQ(result.cost, truth.cost);
      EXPECT_TRUE(r.is_compatible(result.function));
    }
  }
}

TEST_F(SearchEngineTest, BestFirstEscapesQuickSolverLocalMinimum) {
  // Fig. 10: like BFS/DFS, the cost-directed order must reach the 2-cube
  // optimum the ERI paradigm cannot.
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.cost = sum_of_squared_bdd_sizes();
  options.order = ExplorationOrder::BestFirst;
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_DOUBLE_EQ(result.cost, 8.0);
}

TEST_F(SearchEngineTest, BestFirstPrecomputesCandidatesAtPushTime) {
  // In exact mode every strategy expands the same finite tree (no
  // order-dependent cost pruning), so split counts match; best-first
  // never minimizes more than once per relation (terminals are priced
  // via extract_function, not the projections).
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions bfs;
  bfs.exact = true;
  SolverOptions best = bfs;
  best.order = ExplorationOrder::BestFirst;
  const SolveResult a = BrelSolver(bfs).solve(r);
  const SolveResult b = BrelSolver(best).solve(r);
  EXPECT_EQ(a.stats.splits, b.stats.splits);
  EXPECT_GE(b.stats.misf_minimizations, a.stats.misf_minimizations);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST_F(SearchEngineTest, EngineMatchesSolverFacade) {
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.max_relations = 25;
  SearchEngine engine(r, options);
  const SolveResult direct = engine.run();
  const SolveResult facade = BrelSolver(options).solve(r);
  EXPECT_DOUBLE_EQ(direct.cost, facade.cost);
  EXPECT_EQ(direct.stats.relations_explored,
            facade.stats.relations_explored);
}

TEST_F(SearchEngineTest, AutoReorderLeavesCallerManagerAsFound) {
  // A 1-worker run sifts the caller's own manager, so Auto may arm the
  // trigger only for the run's duration — and never disarm a trigger the
  // caller armed.
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.reorder = ReorderMode::Auto;
  options.reorder_trigger = 16;
  ASSERT_FALSE(mgr.auto_reorder());
  EXPECT_TRUE(r.is_compatible(SearchEngine(r, options).run().function));
  EXPECT_FALSE(mgr.auto_reorder()) << "Auto run left the manager armed";

  // The disarm also runs when the run throws (step 0 costs the root's
  // quick solution, after the trigger is armed).
  SolverOptions throwing = options;
  throwing.cost = [](const MultiFunction&) -> double {
    throw std::runtime_error("cost function exploded");
  };
  EXPECT_THROW((void)SearchEngine(r, throwing).run(), std::runtime_error);
  EXPECT_FALSE(mgr.auto_reorder()) << "a throwing run left the manager armed";

  mgr.set_auto_reorder(true);
  EXPECT_TRUE(r.is_compatible(SearchEngine(r, options).run().function));
  EXPECT_TRUE(mgr.auto_reorder()) << "Auto run disarmed the caller's trigger";
  mgr.set_auto_reorder(false);
}

TEST_F(SearchEngineTest, InfiniteCostStillReturnsCompatibleFunction) {
  // The QuickSolver seed must survive even a cost function that maps
  // every candidate to +inf: solve() promises a compatible function, not
  // an empty one.
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.cost = [](const MultiFunction&) {
    return std::numeric_limits<double>::infinity();
  };
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_EQ(result.function.num_outputs(), r.num_outputs());
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST_F(SearchEngineTest, EngineOutlivesConstructorArguments) {
  // The engine copies its root and options; a temporary SolverOptions
  // must not dangle (the ASan CI job would flag it if it did).
  const BooleanRelation r = fig10_relation(mgr, space);
  SearchEngine engine(r, SolverOptions{});
  const SolveResult result = engine.run();
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST_F(SearchEngineTest, EngineRejectsIllDefinedRelation) {
  const BooleanRelation r = fig1_relation(mgr, space);
  const BooleanRelation broken = r.constrain_with(
      !(mgr.literal(space.inputs[0], true) &
        mgr.literal(space.inputs[1], false)));
  EXPECT_THROW(SearchEngine(broken, SolverOptions{}), std::invalid_argument);
}

// -------------------------------------------------- cross-solve memo reuse

TEST(CrossSolveMemoTest, InTreeDuplicatesAreImpossible) {
  // Property 5.4 corollary: Split partitions the image at the split
  // vertex, so no two nodes of one solve tree share a characteristic
  // function.  A cold solve against a fresh memo publishes every node it
  // generates (the root plus both children of every split, each with at
  // least its quick solution), so the memo must end up holding exactly
  // that many DISTINCT keys — on the whole benchmark suite, under every
  // strategy.  Symmetry pruning stays off: a pruned twin publishes
  // nothing.
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    for (const ExplorationOrder order :
         {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
          ExplorationOrder::BestFirst}) {
      SolverOptions options;
      options.order = order;
      options.max_relations = 30;
      options.use_symmetry = false;
      options.global_memo = std::make_shared<GlobalMemo>();
      const SolveResult result = BrelSolver(options).solve(r);
      EXPECT_EQ(result.stats.memo_hits, 0u)
          << bench.name << ": in-tree memo self-hit";
      EXPECT_EQ(options.global_memo->size(), 1 + 2 * result.stats.splits)
          << bench.name << ": in-tree duplicate — Property 5.4 violated";
    }
  }
}

TEST(CrossSolveMemoTest, SharingAcrossCostFunctionsIsRejected) {
  // The wrong-pruning scenario the fingerprint prevents: warm a shared
  // memo under the "size" objective, then re-solve under "size2".
  // Without the stamp, the warm run would prune its subtrees and offer
  // the size-optimal memos — whose recorded costs are measured in a
  // different unit — as size2 incumbents, silently returning a function
  // that no size2 exploration would have chosen.  With the stamp the
  // incompatible reuse is an error at engine construction.
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.max_relations = 40;
  options.cost = sum_of_bdd_sizes();
  options.global_memo = std::make_shared<GlobalMemo>();
  const SolveResult cold = BrelSolver(options).solve(r);
  EXPECT_TRUE(r.is_compatible(cold.function));
  ASSERT_FALSE(cold.stats.budget_exhausted);  // drained: entries surface

  SolverOptions mismatched = options;
  mismatched.cost = sum_of_squared_bdd_sizes();
  EXPECT_THROW((void)BrelSolver(mismatched).solve(r), std::invalid_argument);
  // Same for a mode flip: exact exploration must not be pruned by memos
  // of a budget-limited run.
  SolverOptions exact_reuse = options;
  exact_reuse.exact = true;
  EXPECT_THROW((void)BrelSolver(exact_reuse).solve(r), std::invalid_argument);
  // A relation over different spaces needs no stamp: the spaces ride
  // inside every memo key (GlobalMemoTest.SameChiDifferentSpacesKey-
  // Differently), so it shares the memo without aliasing r's entries.
  BooleanRelation other =
      BooleanRelation::full(mgr, {space.inputs[0]}, {space.outputs[0]});
  const SolveResult other_result = BrelSolver(options).solve(other);
  EXPECT_TRUE(other.is_compatible(other_result.function));
  EXPECT_EQ(other_result.stats.memo_hits, 0u);

  // The legitimate sharing pattern still works after the failed binds.
  const SolveResult warm = BrelSolver(options).solve(r);
  EXPECT_DOUBLE_EQ(warm.cost, cold.cost);
  EXPECT_GT(warm.stats.memo_hits, 0u);
}

TEST(CrossSolveMemoTest, AnonymousCostFunctionsNeverFalselyMatch) {
  // Two independently written lambdas could compute different costs, so
  // they get distinct identities; copies of one CostFunction (the normal
  // way options are reused) share theirs.
  const CostFunction a = [](const MultiFunction&) { return 1.0; };
  const CostFunction b = [](const MultiFunction&) { return 1.0; };
  EXPECT_NE(a.id(), b.id());
  const CostFunction a_copy = a;  // NOLINT(performance-unnecessary-copy)
  EXPECT_EQ(a.id(), a_copy.id());
  EXPECT_EQ(sum_of_bdd_sizes().id(), sum_of_bdd_sizes().id());
}

TEST(CrossSolveMemoTest, SharedMemoServesRepeatSolves) {
  // A memo shared by two solves in ONE manager: only entries of a run
  // that drained naturally surface (global_memo.hpp), so the cold run
  // must finish inside its budget.
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.max_relations = 40;
  options.global_memo = std::make_shared<GlobalMemo>();
  const SolveResult cold = BrelSolver(options).solve(r);
  ASSERT_FALSE(cold.stats.budget_exhausted);
  EXPECT_EQ(cold.stats.memo_hits, 0u);
  const SolveResult warm = BrelSolver(options).solve(r);
  // The warm run is served from the memo...
  EXPECT_GT(warm.stats.memo_hits, 0u);
  EXPECT_LT(warm.stats.relations_explored, cold.stats.relations_explored);
  // ...and the served entry is the cold run's best, so the warm result
  // matches first-run quality at a fraction of the exploration.
  EXPECT_DOUBLE_EQ(warm.cost, cold.cost);
  EXPECT_TRUE(r.is_compatible(warm.function));
  EXPECT_GT(options.global_memo->hits(), 0u);
}

TEST(SearchEngineResultTest, CarriesTheRunsRankSpaceAndRankForm) {
  // SolveResult::space / portable hand the engine's rank tables and its
  // winner's rank form to callers (the pool replies with them), so they
  // must be exactly what rebuilding them after the run gives.
  std::size_t rank_forms = 0;
  for (const std::size_t workers : {1u, 2u}) {
    for (const RelationBenchmark& bench : relation_suite()) {
      BddManager mgr{0};
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> outputs;
      const BooleanRelation r =
          make_benchmark_relation(mgr, bench, inputs, outputs);
      SolverOptions options;
      options.max_relations = 10;
      options.num_workers = workers;
      const SolveResult result = SearchEngine(r, options).run();
      ASSERT_NE(result.space, nullptr);
      const MemoSpace rebuilt = make_memo_space(r);
      EXPECT_EQ(result.space->sorted_vars, rebuilt.sorted_vars);
      EXPECT_EQ(result.space->rank_of, rebuilt.rank_of);
      EXPECT_EQ(result.space->input_ranks, rebuilt.input_ranks);
      EXPECT_EQ(result.space->output_ranks, rebuilt.output_ranks);
      if (result.portable.has_value()) {
        ++rank_forms;
        EXPECT_EQ(*result.portable,
                  make_portable_solution(rebuilt, result.function,
                                         result.cost))
            << bench.name << " at " << workers << " workers";
      }
    }
  }
  EXPECT_GT(rank_forms, 0u);  // equal-cost ties do arise on the suite
}

}  // namespace
}  // namespace brel
