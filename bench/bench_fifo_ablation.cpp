// Secs. 7.2 / 7.6 ablation: the exploration budget (the bounded partial
// BFS) trades solution quality for runtime.
//
// The paper limits Table 2 to 10 explored relations and notes that
// "exploring more solutions did not significantly contribute to improving
// the results"; this harness sweeps the budget and reports the total
// solution cost (Σ BDD sizes) and runtime over the BR suite, which should
// show steep gains from 1 to ~10 and diminishing returns beyond.
//
// `--json <path>` additionally records every table row (plus solver and
// BDD-substrate counters) machine-readably: BENCH_search.json at the repo
// root is this harness's perf trajectory.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "benchgen/relation_suite.hpp"

int main(int argc, char** argv) {
  using namespace brel;
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::vector<std::size_t> budgets{1, 2, 5, 10, 20, 50, 200};

  bench::JsonWriter json;
  json.begin_object();
  json.field_str("bench", "bench_fifo_ablation");

  std::printf("Exploration-budget ablation over the BR suite\n");
  std::printf("(cost = sum of BDD sizes; FIFO-based partial BFS)\n\n");
  std::printf("%-10s %12s %12s %14s\n", "budget", "total cost", "CPU [s]",
              "vs budget=10");

  double reference = 0.0;
  std::vector<std::pair<std::size_t, std::pair<double, double>>> rows;
  for (const std::size_t budget : budgets) {
    double total_cost = 0.0;
    bench::Stopwatch timer;
    for (const RelationBenchmark& bench : relation_suite()) {
      BddManager mgr{0};
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> outputs;
      const BooleanRelation r =
          make_benchmark_relation(mgr, bench, inputs, outputs);
      SolverOptions options;
      options.cost = sum_of_bdd_sizes();
      options.max_relations = budget;
      total_cost += BrelSolver(options).solve(r).cost;
    }
    const double cpu = timer.seconds();
    if (budget == 10) {
      reference = total_cost;
    }
    rows.emplace_back(budget, std::make_pair(total_cost, cpu));
  }
  json.begin_array("budget_sweep");
  for (const auto& [budget, data] : rows) {
    std::printf("%-10zu %12.0f %12.3f %+13.2f%%\n", budget, data.first,
                data.second, 100.0 * (data.first / reference - 1.0));
    json.begin_element();
    json.field_int("budget", budget);
    json.field_num("total_cost", data.first);
    json.field_num("cpu_seconds", data.second);
    json.end_element();
  }
  json.end_array();
  std::printf("\n(lower cost is better; budget=10 is the paper's Table 2 "
              "setting)\n");

  // Second design choice of Sec. 7.2: the frontier strategy.  The paper's
  // BFS diversity vs DFS commitment vs the cost-directed best-first order
  // of the pluggable search engine, under the same budgets.  The BFS and
  // DFS columns run through the same engine as the pre-refactor monolithic
  // loop and must reproduce its costs exactly.
  std::printf("\nFrontier strategy (same budgets, total cost)\n");
  std::printf("%-10s %12s %12s %12s %10s %10s\n", "budget", "BFS", "DFS",
              "best", "DFS-BFS", "best-BFS");
  json.begin_array("frontier_strategies");
  for (const std::size_t budget : budgets) {
    double strategy_cost[3] = {0.0, 0.0, 0.0};
    const ExplorationOrder orders[3] = {ExplorationOrder::BreadthFirst,
                                        ExplorationOrder::DepthFirst,
                                        ExplorationOrder::BestFirst};
    for (const RelationBenchmark& bench : relation_suite()) {
      BddManager mgr{0};
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> outputs;
      const BooleanRelation r =
          make_benchmark_relation(mgr, bench, inputs, outputs);
      SolverOptions options;
      options.cost = sum_of_bdd_sizes();
      options.max_relations = budget;
      for (int k = 0; k < 3; ++k) {
        options.order = orders[k];
        strategy_cost[k] += BrelSolver(options).solve(r).cost;
      }
    }
    std::printf("%-10zu %12.0f %12.0f %12.0f %+9.2f%% %+9.2f%%\n", budget,
                strategy_cost[0], strategy_cost[1], strategy_cost[2],
                100.0 * (strategy_cost[1] / strategy_cost[0] - 1.0),
                100.0 * (strategy_cost[2] / strategy_cost[0] - 1.0));
    json.begin_element();
    json.field_int("budget", budget);
    json.field_num("bfs_cost", strategy_cost[0]);
    json.field_num("dfs_cost", strategy_cost[1]);
    json.field_num("best_cost", strategy_cost[2]);
    json.end_element();
  }
  json.end_array();
  std::printf("\n(negative deltas beat the paper's BFS choice)\n");

  // Third knob: the cross-solve GlobalMemo.  Within one solve tree a
  // duplicate subrelation is impossible (Property 5.4 — Split partitions
  // IF(R)), so a cold run against a fresh memo publishes every generated
  // node under a DISTINCT key: entries == 1 + 2 * splits.  The memo pays
  // off when SHARED across solves: a warm re-solve of the same relation
  // is served from the cold run's root entry at first-run quality with
  // zero exploration.  Only entries of a run that drained naturally
  // surface, so the table runs the schedule-independent configuration —
  // no cost bound, a depth cap, unlimited budget.
  const std::size_t memo_depth = 6;
  std::printf("\nGlobalMemo warm re-solve (bound off, max_depth=%zu, "
              "unlimited budget)\n",
              memo_depth);
  std::printf("%-10s %10s %10s %12s %12s %10s\n", "instance", "cold cost",
              "warm cost", "cold expl.", "warm expl.", "entries");
  json.begin_array("global_memo_warm");
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    SolverOptions options;
    options.cost = sum_of_bdd_sizes();
    options.max_relations = static_cast<std::size_t>(-1);
    options.use_cost_bound = false;
    options.max_depth = memo_depth;
    options.global_memo = std::make_shared<GlobalMemo>();
    const SolveResult cold = BrelSolver(options).solve(r);
    const std::size_t entries = options.global_memo->size();
    if (entries != 1 + 2 * cold.stats.splits) {
      std::printf("IN-TREE DUPLICATE on %s: %zu memo entries for %zu "
                  "splits — Property 5.4 violated!\n",
                  bench.name.c_str(), entries, cold.stats.splits);
      return 1;
    }
    const SolveResult warm = BrelSolver(options).solve(r);
    std::printf("%-10s %10.0f %10.0f %12zu %12zu %10zu\n",
                bench.name.c_str(), cold.cost, warm.cost,
                cold.stats.relations_explored, warm.stats.relations_explored,
                entries);
    if (warm.cost != cold.cost || warm.stats.relations_explored != 0) {
      std::printf("WARM RE-SOLVE MISSED on %s: warm must equal cold cost "
                  "at zero exploration\n",
                  bench.name.c_str());
      return 1;
    }
    json.begin_element();
    json.field_str("instance", bench.name);
    json.field_num("cold_cost", cold.cost);
    json.field_num("warm_cost", warm.cost);
    json.field_int("cold_explored", cold.stats.relations_explored);
    json.field_int("warm_explored", warm.stats.relations_explored);
    json.field_int("memo_entries", entries);
    json.end_element();
  }
  json.end_array();
  std::printf("\n(cold runs publish one distinct entry per generated node "
              "— the in-tree\nno-duplicate invariant; warm re-solves return "
              "the first-run quality\nfrom the memo without exploring)\n");

  // Fourth knob: worker threads (search.hpp).  Run in the
  // schedule-independent configuration — cost bound off, depth-capped
  // tree — where every worker count explores the same node set, so the
  // cost and explored columns must be CONSTANT (the bench exits 1
  // otherwise) and the time column isolates pure scaling.  Wall-clock
  // only scales when the host has cores to scale onto;
  // hardware_concurrency is recorded alongside so a flat or inverted
  // time column on a starved runner reads as what it is.
  std::printf("\nWorker scaling (bound off, max_depth=9, total cost must "
              "be constant)\n");
  std::printf("%-10s %12s %12s %10s %10s %12s\n", "workers", "total cost",
              "CPU [s]", "steals", "explored", "vs 1 worker");
  json.begin_array("worker_scaling");
  double serial_seconds = 0.0;
  double serial_cost = 0.0;
  std::size_t serial_explored = 0;
  const std::size_t scaling_depth =
      bench::budget_from_env("BREL_SCALING_DEPTH", 9);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    double total_cost = 0.0;
    std::size_t steals = 0;
    std::size_t explored = 0;
    bench::Stopwatch timer;
    for (const RelationBenchmark& bench : relation_suite()) {
      BddManager mgr{0};
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> outputs;
      const BooleanRelation r =
          make_benchmark_relation(mgr, bench, inputs, outputs);
      SolverOptions options;
      options.cost = sum_of_bdd_sizes();
      options.max_relations = static_cast<std::size_t>(-1);
      options.use_cost_bound = false;
      options.max_depth = scaling_depth;
      options.num_workers = workers;
      const SolveResult result = BrelSolver(options).solve(r);
      total_cost += result.cost;
      steals += result.stats.steals;
      explored += result.stats.relations_explored;
    }
    const double cpu = timer.seconds();
    if (workers == 1) {
      serial_seconds = cpu;
      serial_cost = total_cost;
      serial_explored = explored;
    }
    std::printf("%-10zu %12.0f %12.3f %10zu %10zu %11.2fx\n", workers,
                total_cost, cpu, steals, explored, serial_seconds / cpu);
    json.begin_element();
    json.field_int("workers", workers);
    json.field_num("total_cost", total_cost);
    json.field_num("cpu_seconds", cpu);
    json.field_int("steals", steals);
    json.field_int("explored", explored);
    json.end_element();
    if (total_cost != serial_cost || explored != serial_explored) {
      std::printf("SCHEDULE DEPENDENCE at %zu workers: cost %.0f, explored "
                  "%zu vs %.0f, %zu at 1 worker\n",
                  workers, total_cost, explored, serial_cost,
                  serial_explored);
      return 1;
    }
  }
  json.end_array();
  json.field_int("hardware_concurrency",
                 std::thread::hardware_concurrency());
  std::printf("\n(identical cost and explored columns are the "
              "schedule-independence guarantee;\nspeedup requires cores — "
              "this host reports hardware_concurrency=%u)\n",
              std::thread::hardware_concurrency());

  // The BDD substrate the whole ablation ran on, for the perf record.
  {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r = make_benchmark_relation(
        mgr, relation_suite().front(), inputs, outputs);
    SolverOptions options;
    options.cost = sum_of_bdd_sizes();
    options.max_relations = 10;
    bench::Stopwatch timer;
    (void)BrelSolver(options).solve(r);
    const BddStats& stats = mgr.stats();
    json.begin_object("bdd_substrate");
    json.field_str("instance", relation_suite().front().name);
    json.field_num("solve_seconds", timer.seconds());
    json.field_int("cache_lookups", stats.cache_lookups);
    json.field_int("cache_hits", stats.cache_hits);
    json.field_int("peak_nodes", stats.peak_nodes);
    json.field_int("gc_checks", stats.gc_checks);
    json.field_int("gc_runs", stats.gc_runs);
    json.end_object();
  }
  json.end_object();

  if (!json_path.empty()) {
    if (!json.save(json_path)) {
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
