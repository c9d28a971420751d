// batch_cold: the library at the paper's Table 2 defaults (BrelSolver,
// 10 explored relations, BFS, cost bound on, sum of BDD sizes, no memo).
// One serial caller solves seeded relations of 10 inputs and 4 outputs,
// each in its own manager.  Nearly all time is bdd + ISF
// minimization + QuickSolver + search; no memo, pool or wire work.

#include <memory>
#include <vector>

#include "brel/solver.hpp"
#include "relation/relation_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Inputs imported by the set-up; later inputs are imported just before
/// their request, outside the timed path.
constexpr std::size_t kSetupInputs = 32;
constexpr int kSetupRepeats = 8;
/// Requests whose counters and costs are scored (every input is distinct).
constexpr std::size_t kScored = 256;
constexpr double kSloMs = 250.0;

/// Every input has 10 inputs and 4 outputs, the smallest size of the
/// paper-scale range.  One size keeps the latency distribution unimodal:
/// on a cycle of sizes from 10x4 to 13x5, solve time doubles per input,
/// so p95 and cost_total would rest on the few largest relations of a run
/// and jump from seed to seed.  Solve times of one size still spread
/// widely (p95 is about twice p50), so the median of a few hundred inputs
/// moves by 5-10% from seed to seed; the smallest size puts the most
/// distinct inputs (about a thousand) into a run.
constexpr std::size_t kInputs = 10;
constexpr std::size_t kOutputs = 4;

/// Input i of the stream, a seeded relation.
std::string input_text(std::uint32_t seed, std::size_t i) {
  return make_relation_text(kInputs, kOutputs, derive_seed(seed, 1, i));
}

struct Imported {
  std::unique_ptr<brel::BddManager> mgr;
  std::unique_ptr<brel::BooleanRelation> relation;
};

Imported import(const std::string& text) {
  Imported out;
  out.mgr = std::make_unique<brel::BddManager>(0);
  out.relation = std::make_unique<brel::BooleanRelation>(
      brel::read_relation(*out.mgr, text));
  return out;
}

}  // namespace

PhaseResult run_batch_cold(std::uint32_t seed, const PhaseBudget& budget) {
  PhaseResult out;
  out.slo_ms = kSloMs;
  const std::size_t scored = budget.scored == 0 ? kScored : budget.scored;
  std::vector<std::string> texts;
  while (texts.size() < std::max(kSetupInputs, scored)) {
    texts.push_back(input_text(seed, texts.size()));
  }
  out.scored_inputs.assign(texts.begin(), texts.begin() + scored);

  // Set-up: import the first inputs, each into its own fresh manager.
  std::vector<Imported> imported;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pin_thread(rep);
    imported.clear();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kSetupInputs; ++i) {
      imported.push_back(import(texts[i]));
    }
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  unpin_thread();
  out.setup_s = median(setups);

  brel::SolverOptions options;  // Table 2 defaults
  options.cost = brel::sum_of_bdd_sizes();
  const brel::BrelSolver solver(options);

  HostGauge gauge;
  Tracer tracer(budget.traced);
  std::vector<double> latencies;
  std::vector<bool> ok;
  std::vector<Answer> answers;
  brel::SolverStats counted{};
  std::uint64_t bdd_lookups = 0;
  std::uint64_t bdd_hits = 0;
  std::uint64_t bdd_nodes = 0;
  std::uint64_t bdd_gcs = 0;
  std::size_t bdd_peak = 0;

  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration<double>(budget.seconds);
  double excluded_ms = 0.0;  // benchmark-side work between requests
  for (std::uint64_t request = 0;; ++request) {
    if (request >= scored && Clock::now() >= stop) break;
    // Request i runs on CPU i (modulo their count): one CPU of a shared
    // host can run much slower than another for minutes.
    pin_thread(request);
    if (request >= kSetupInputs) {
      const auto t = Clock::now();
      if (request == texts.size()) texts.push_back(input_text(seed, request));
      imported.push_back(import(texts[request]));
      excluded_ms += ms_between(t, Clock::now());
    }
    Imported input = std::move(imported[request]);
    brel::BddManager& mgr = *input.mgr;
    const brel::BooleanRelation& r = *input.relation;

    Tracer::Scope request_span(tracer, "request", request);
    const brel::BddStats before = mgr.stats();
    const auto t0 = Clock::now();
    brel::SolveResult result;
    {
      Tracer::Scope span(tracer, "search.solve", request);
      result = solver.solve(r);
    }
    latencies.push_back(ms_between(t0, Clock::now()));
    ok.push_back(true);
    if (request < scored) {
      const brel::BddStats& after = mgr.stats();
      bdd_lookups += after.cache_lookups - before.cache_lookups;
      bdd_hits += after.cache_hits - before.cache_hits;
      bdd_nodes += after.nodes_created - before.nodes_created;
      bdd_gcs += after.gc_runs - before.gc_runs;
      bdd_peak = std::max(bdd_peak, after.peak_nodes);
      const brel::SolverStats& s = result.stats;
      counted.relations_explored += s.relations_explored;
      counted.splits += s.splits;
      counted.conflicts += s.conflicts;
      counted.pruned_by_cost += s.pruned_by_cost;
      counted.misf_minimizations += s.misf_minimizations;
      counted.quick_solutions += s.quick_solutions;
      out.cost_total += result.cost;
      if (request + 1 == scored) out.peak_rss_mb = peak_rss_mb();
    }

    const auto t1 = Clock::now();
    Answer answer{request, brel::make_portable_solution(
                               brel::make_memo_space(r), result.function,
                               result.cost)};
    gauge.sample();
    excluded_ms += ms_between(t1, Clock::now());
    if (tracer.enabled()) {
      isolated_layer_calls(tracer, request, texts[request], answer.solution);
    }
    answers.push_back(std::move(answer));
  }
  const double wall_ms = ms_between(start, Clock::now()) - excluded_ms;
  unpin_thread();

  out.attempted = latencies.size();
  out.incompatible = count_incompatible(texts, answers);
  out.failed = out.incompatible;
  out.throughput_rps =
      static_cast<double>(answers.size()) / (wall_ms / 1e3);
  summarize_latency(out, latencies, ok, kSloMs);
  scale_to_reference(out, gauge);

  if (tracer.enabled()) {
    out.spans = tracer.spans();
    const double n = static_cast<double>(out.attempted);
    set_layer(out, "bdd.cache_lookups", static_cast<double>(bdd_lookups));
    set_layer(out, "bdd.cache_hit_rate",
              bdd_lookups == 0 ? 0.0
                               : static_cast<double>(bdd_hits) /
                                     static_cast<double>(bdd_lookups));
    set_layer(out, "bdd.nodes_created", static_cast<double>(bdd_nodes));
    set_layer(out, "bdd.gc_runs", static_cast<double>(bdd_gcs));
    set_layer(out, "bdd.peak_nodes", static_cast<double>(bdd_peak));
    set_layer(out, "isf.minimize_calls",
              static_cast<double>(counted.misf_minimizations));
    set_layer(out, "isf.minimize_ms",
              span_total_ms(out.spans, "isf.minimize") / n);
    set_layer(out, "quick.solve_calls",
              static_cast<double>(counted.quick_solutions));
    set_layer(out, "quick.solve_ms",
              span_total_ms(out.spans, "quick.solve") / n);
    set_layer(out, "search.solve_ms",
              span_total_ms(out.spans, "search.solve") / n);
    set_layer(out, "search.explored",
              static_cast<double>(counted.relations_explored));
    set_layer(out, "search.splits", static_cast<double>(counted.splits));
    set_layer(out, "search.conflicts",
              static_cast<double>(counted.conflicts));
    set_layer(out, "search.pruned_by_cost",
              static_cast<double>(counted.pruned_by_cost));
    set_layer(out, "relation.read_ms",
              span_total_ms(out.spans, "relation.read") / n);
    set_layer(out, "relation.write_ms",
              span_total_ms(out.spans, "relation.write") / n);
  }
  return out;
}

}  // namespace perfbench
