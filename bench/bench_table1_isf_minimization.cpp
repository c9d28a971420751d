// Table 1 reproduction: normalized comparison of the ISF minimization
// kernels used inside BREL (Sec. 7.5).
//
// For every kernel (ISOP / Constrain / interval-safe Restrict standing in
// for LICompact) with and without non-essential-variable elimination, the
// whole BR suite is solved and the total SOP literal count of the final
// solutions (LIT) plus the CPU time are reported, normalized against the
// paper's reference configuration ISOP + elimination (= 1.00).
// The paper finds that elimination cuts runtime and that ISOP gives
// slightly better literal counts than the other kernels.
//
// `--json <path>` records each configuration's LIT and CPU (BENCH_table1.json
// at the repo root).  LIT is deterministic: tools/check_bench_regression.py
// requires it to equal the committed reference exactly on any host, which
// makes this table the quality oracle for changes to ISF minimization.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "benchgen/relation_suite.hpp"

namespace {

struct Config {
  const char* name;
  const char* key;  ///< JSON object name
  brel::IsfMethod method;
  bool eliminate;
};

struct Outcome {
  double literals = 0.0;
  double cpu = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace brel;
  const std::size_t budget = bench::budget_from_env("BREL_BUDGET", 10);
  const std::string json_path = bench::json_path_from_args(argc, argv);

  const std::vector<Config> configs{
      {"ISOP + elim", "isop_elim", IsfMethod::Isop, true},
      {"ISOP", "isop", IsfMethod::Isop, false},
      {"Constrain + elim", "constrain_elim", IsfMethod::Constrain, true},
      {"Constrain", "constrain", IsfMethod::Constrain, false},
      {"SafeRestrict + elim", "safe_restrict_elim", IsfMethod::SafeRestrict,
       true},
      {"SafeRestrict", "safe_restrict", IsfMethod::SafeRestrict, false},
  };

  std::printf(
      "Table 1: normalized comparison of BDD-based ISF minimization\n");
  std::printf(
      "(reference = ISOP with non-essential variable elimination; LIT =\n"
      "SOP literals of the final solutions over the BR suite)\n\n");

  std::vector<Outcome> outcomes;
  for (const Config& config : configs) {
    Outcome outcome;
    for (const RelationBenchmark& bench : relation_suite()) {
      BddManager mgr{0};
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> outputs;
      const BooleanRelation r =
          make_benchmark_relation(mgr, bench, inputs, outputs);
      SolverOptions options;
      options.cost = sum_of_bdd_sizes();
      options.max_relations = budget;
      options.minimizer = IsfMinimizer{config.method, config.eliminate};
      bench::Stopwatch timer;
      const SolveResult result = BrelSolver(options).solve(r);
      outcome.cpu += timer.seconds();
      if (!r.is_compatible(result.function)) {
        std::fprintf(stderr, "incompatible solution (%s on %s)\n",
                     config.name, bench.name.c_str());
        return 1;
      }
      outcome.literals += static_cast<double>(
          bench::solution_metrics(result.function, inputs).sop_literals);
    }
    outcomes.push_back(outcome);
  }

  const Outcome& reference = outcomes.front();
  std::printf("%-22s %10s %10s %12s %12s\n", "configuration", "LIT",
              "CPU [s]", "LIT (norm)", "CPU (norm)");
  bench::JsonWriter json;
  json.begin_object();
  json.field_str("bench", "bench_table1_isf_minimization");
  bench::write_authoring_host(json);
  json.field_int("budget", budget);
  json.begin_object("configs");
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::printf("%-22s %10.0f %10.3f %12.2f %12.2f\n", configs[i].name,
                outcomes[i].literals, outcomes[i].cpu,
                outcomes[i].literals / reference.literals,
                outcomes[i].cpu / reference.cpu);
    json.begin_object(configs[i].key);
    json.field_int("lit", static_cast<std::uint64_t>(outcomes[i].literals));
    json.field_num("cpu_s", outcomes[i].cpu);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  if (!json_path.empty()) {
    if (!json.save(json_path)) {
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
