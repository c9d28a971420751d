// Differential tests for the dedicated kernels introduced by the hot-path
// overhaul (and_rec / xor_rec / cofactor_rec / leq_rec / balanced big_and
// and big_or): every kernel is cross-checked against an independent
// formulation of the same function — truth-table evaluation, De Morgan /
// Shannon identities routed through *different* kernels, and the untouched
// generalized-cofactor (constrain) recursion — on randomized function
// suites and on the BR benchmark relations.  Canonicity turns each check
// into a single edge comparison.
//
// The second half stresses the O(1) GC trigger: the incremental
// external-root counter must exactly track handle lifetimes through op
// churn, forced collections and solver runs, and declining
// garbage_collect_if_needed must not scan the node table (asserted by
// running a quarter-million declining checks against a large live table
// within a wall-clock budget no O(live)-per-check implementation could
// meet).

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/solver.hpp"

namespace brel {
namespace {

Bdd random_function(BddManager& mgr, std::mt19937& rng, std::uint32_t vars,
                    int depth) {
  if (depth == 0) {
    return mgr.literal(rng() % vars, rng() % 2 == 0);
  }
  const Bdd lhs = random_function(mgr, rng, vars, depth - 1);
  const Bdd rhs = random_function(mgr, rng, vars, depth - 1);
  switch (rng() % 3) {
    case 0:
      return lhs & rhs;
    case 1:
      return lhs | rhs;
    default:
      return lhs ^ rhs;
  }
}

/// All 2^vars assignments of f, as a bit-per-minterm truth table.
std::vector<bool> truth_table(const Bdd& f, std::uint32_t vars) {
  std::vector<bool> table;
  table.reserve(std::size_t{1} << vars);
  std::vector<bool> point(vars, false);
  for (std::size_t m = 0; m < (std::size_t{1} << vars); ++m) {
    for (std::uint32_t v = 0; v < vars; ++v) {
      point[v] = ((m >> v) & 1u) != 0;
    }
    table.push_back(f.eval(point));
  }
  return table;
}

TEST(BddKernelDiffTest, AndXorAgainstTruthTablesAndCrossIdentities) {
  constexpr std::uint32_t kVars = 6;
  BddManager mgr{kVars};
  std::mt19937 rng{101};
  for (int trial = 0; trial < 200; ++trial) {
    const Bdd f = random_function(mgr, rng, kVars, 3);
    const Bdd g = random_function(mgr, rng, kVars, 3);
    const Bdd conj = f & g;
    const Bdd disj = f | g;
    const Bdd parity = f ^ g;
    // Ground truth: pointwise over every assignment.
    const auto tf = truth_table(f, kVars);
    const auto tg = truth_table(g, kVars);
    const auto tconj = truth_table(conj, kVars);
    const auto tdisj = truth_table(disj, kVars);
    const auto tparity = truth_table(parity, kVars);
    for (std::size_t m = 0; m < tf.size(); ++m) {
      ASSERT_EQ(tconj[m], tf[m] && tg[m]);
      ASSERT_EQ(tdisj[m], tf[m] || tg[m]);
      ASSERT_EQ(tparity[m], tf[m] != tg[m]);
    }
    // Cross-kernel identities (canonicity makes these edge equalities):
    // the ITE universal connective must reproduce every dedicated kernel.
    EXPECT_TRUE(conj == mgr.ite(f, g, mgr.zero()));
    EXPECT_TRUE(disj == mgr.ite(f, mgr.one(), g));
    EXPECT_TRUE(parity == mgr.ite(f, !g, g));
    // De Morgan / complement absorption.
    EXPECT_TRUE(conj == !((!f) | (!g)));
    EXPECT_TRUE(parity == ((f & (!g)) | ((!f) & g)));
    EXPECT_TRUE(parity == !(f.iff(g)));
    // Commutativity must hold structurally (one cache entry per pair).
    EXPECT_TRUE(conj == (g & f));
    EXPECT_TRUE(parity == (g ^ f));
  }
}

TEST(BddKernelDiffTest, CofactorAgainstConstrainAndEvaluation) {
  constexpr std::uint32_t kVars = 6;
  BddManager mgr{kVars};
  std::mt19937 rng{202};
  for (int trial = 0; trial < 100; ++trial) {
    const Bdd f = random_function(mgr, rng, kVars, 4);
    for (std::uint32_t v = 0; v < kVars; ++v) {
      for (const bool phase : {false, true}) {
        const Bdd cof = f.cofactor(v, phase);
        // The untouched generalized-cofactor recursion over the literal
        // (the pre-overhaul formulation) must produce the same function.
        EXPECT_TRUE(cof == mgr.constrain(f, mgr.literal(v, phase)));
        // Pointwise: cof agrees with f at v := phase and ignores v.
        std::vector<bool> point(kVars, false);
        for (std::size_t m = 0; m < (std::size_t{1} << kVars); ++m) {
          for (std::uint32_t i = 0; i < kVars; ++i) {
            point[i] = ((m >> i) & 1u) != 0;
          }
          const bool at_cof = cof.eval(point);
          point[v] = phase;
          ASSERT_EQ(at_cof, f.eval(point));
        }
        // Shannon expansion stitches the cofactors back together.
        const Bdd x = mgr.var(v);
        EXPECT_TRUE(f == ((x & f.cofactor(v, true)) |
                          ((!x) & f.cofactor(v, false))));
      }
    }
  }
}

TEST(BddKernelDiffTest, LeqAgainstMaterializedDifference) {
  constexpr std::uint32_t kVars = 7;
  BddManager mgr{kVars};
  std::mt19937 rng{303};
  int positives = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Bdd f = random_function(mgr, rng, kVars, 3);
    const Bdd g = random_function(mgr, rng, kVars, 3);
    // The pre-overhaul formulation materialized f & !g and tested it.
    EXPECT_EQ(f.subset_of(g), (f & (!g)).is_zero());
    // Constructed positive cases, so the test is not all-negative.
    EXPECT_TRUE((f & g).subset_of(f));
    EXPECT_TRUE(f.subset_of(f | g));
    EXPECT_TRUE(mgr.zero().subset_of(f));
    EXPECT_TRUE(f.subset_of(mgr.one()));
    if (f.subset_of(g)) {
      ++positives;
      EXPECT_TRUE((f | g) == g);
    }
  }
  EXPECT_GT(positives, 0);  // the random suite produced some containments
}

TEST(BddKernelDiffTest, BalancedBigOpsMatchSequentialFold) {
  constexpr std::uint32_t kVars = 16;
  BddManager mgr{kVars};
  std::mt19937 rng{404};
  for (const std::size_t width : {0u, 1u, 2u, 3u, 7u, 24u, 65u}) {
    std::vector<Bdd> fs;
    for (std::size_t i = 0; i < width; ++i) {
      fs.push_back(random_function(mgr, rng, kVars, 3));
    }
    Bdd fold_and = mgr.one();
    Bdd fold_or = mgr.zero();
    for (const Bdd& f : fs) {  // the pre-overhaul left fold
      fold_and = fold_and & f;
      fold_or = fold_or | f;
    }
    EXPECT_TRUE(mgr.big_and(fs) == fold_and);
    EXPECT_TRUE(mgr.big_or(fs) == fold_or);
  }
}

TEST(BddKernelDiffTest, KernelsAgreeOnBenchmarkRelationSuite) {
  // The randomized-relation pass: every new kernel against an independent
  // formulation, on the characteristic functions and projections the
  // solver actually manipulates.
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    const Bdd chi = r.characteristic();
    const Bdd misf_chi = r.misf().characteristic();
    EXPECT_EQ(chi.subset_of(misf_chi), (chi & (!misf_chi)).is_zero());
    EXPECT_TRUE(chi.subset_of(misf_chi));  // Property 4.9: R ⊆ MISF(R)
    for (const std::uint32_t y : outputs) {
      const Bdd c1 = chi.cofactor(y, true);
      const Bdd c0 = chi.cofactor(y, false);
      EXPECT_TRUE(c1 == mgr.constrain(chi, mgr.literal(y, true)));
      EXPECT_TRUE(c0 == mgr.constrain(chi, mgr.literal(y, false)));
      const Bdd yv = mgr.var(y);
      EXPECT_TRUE(chi == ((yv & c1) | ((!yv) & c0)));
      EXPECT_TRUE((chi ^ misf_chi) == mgr.ite(chi, !misf_chi, misf_chi));
    }
  }
}

// ---------------------------------------------------------------------------
// Function-only ISOP (isop_function) against the cover-building isop().
// ---------------------------------------------------------------------------

/// Random intervals [f & g, f | g] over `vars` variables.
std::vector<std::pair<Bdd, Bdd>> random_intervals(BddManager& mgr,
                                                  std::mt19937& rng,
                                                  std::uint32_t vars,
                                                  int count) {
  std::vector<std::pair<Bdd, Bdd>> out;
  for (int i = 0; i < count; ++i) {
    const Bdd f = random_function(mgr, rng, vars, 3);
    const Bdd g = random_function(mgr, rng, vars, 3);
    out.emplace_back(f & g, f | g);
  }
  return out;
}

TEST(BddIsopFunctionTest, MatchesCoverIsopOnRandomIntervals) {
  BddManager mgr{10};
  std::mt19937 rng{314};
  for (const auto& [lower, upper] : random_intervals(mgr, rng, 10, 200)) {
    const Bdd f = mgr.isop_function(lower, upper);
    EXPECT_TRUE(f == mgr.isop(lower, upper).function);
    EXPECT_TRUE(lower.subset_of(f));
    EXPECT_TRUE(f.subset_of(upper));
  }
}

TEST(BddIsopFunctionTest, MatchesCoverIsopOnRelationSuite) {
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    for (std::size_t i = 0; i < r.num_outputs(); ++i) {
      const Isf isf = r.project_output(i);
      EXPECT_TRUE(mgr.isop_function(isf.min(), isf.max()) ==
                  mgr.isop(isf.min(), isf.max()).function)
          << bench.name << " output " << i;
    }
  }
}

TEST(BddIsopFunctionTest, MatchesCoverIsopAfterReorder) {
  BddManager mgr{10};
  std::mt19937 rng{2718};
  const auto intervals = random_intervals(mgr, rng, 10, 60);
  std::vector<Bdd> before;
  for (const auto& [lower, upper] : intervals) {
    before.push_back(mgr.isop_function(lower, upper));
  }
  mgr.reorder();
  ASSERT_FALSE(mgr.has_identity_order());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const auto& [lower, upper] = intervals[i];
    const Bdd after = mgr.isop_function(lower, upper);
    EXPECT_TRUE(after == mgr.isop(lower, upper).function);
    changed += after == before[i] ? 0 : 1;
  }
  // The ISOP depends on the order: a stale pre-reorder entry would be
  // visible on these intervals.
  EXPECT_GT(changed, 0u);
}

TEST(BddIsopFunctionTest, GarbageCollectionEmptiesTheIsopCache) {
  BddManager mgr{10};
  std::mt19937 rng{1618};
  const auto intervals = random_intervals(mgr, rng, 10, 40);
  const BddStats& stats = mgr.stats();
  const auto isop_lookups = [&] {
    return stats.op_lookups[static_cast<std::size_t>(BddOp::Isop)];
  };
  for (const auto& [lower, upper] : intervals) {
    mgr.garbage_collect();
    const std::uint64_t l0 = isop_lookups();
    const Bdd cold = mgr.isop_function(lower, upper);
    const std::uint64_t cold_lookups = isop_lookups() - l0;
    mgr.garbage_collect();  // clears the cache: the recursion reruns
    const std::uint64_t l1 = isop_lookups();
    const Bdd again = mgr.isop_function(lower, upper);
    EXPECT_EQ(isop_lookups() - l1, cold_lookups);
    EXPECT_TRUE(again == cold);
    EXPECT_TRUE(again == mgr.isop(lower, upper).function);
  }
}

TEST(BddIsopFunctionTest, RepeatedCallIsOneCacheHit) {
  BddManager mgr{10};
  std::mt19937 rng{577};
  const BddStats& stats = mgr.stats();
  const auto op = [](BddOp o) { return static_cast<std::size_t>(o); };
  for (const auto& [lower, upper] : random_intervals(mgr, rng, 10, 20)) {
    if (lower.is_zero() || upper.is_one()) {
      continue;  // terminal intervals never reach the cache
    }
    const Bdd first = mgr.isop_function(lower, upper);
    const std::uint64_t lookups = stats.op_lookups[op(BddOp::Isop)];
    const std::uint64_t hits = stats.op_hits[op(BddOp::Isop)];
    EXPECT_TRUE(mgr.isop_function(lower, upper) == first);
    EXPECT_EQ(stats.op_lookups[op(BddOp::Isop)], lookups + 1);
    EXPECT_EQ(stats.op_hits[op(BddOp::Isop)], hits + 1);
  }
}

TEST(BddIsopFunctionTest, IntervalCheckBuildsNoNodes) {
  BddManager mgr{4};
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  const std::uint64_t created = mgr.stats().nodes_created;
  EXPECT_THROW((void)mgr.isop(x0, x1), std::invalid_argument);
  EXPECT_THROW((void)mgr.isop_function(x0, x1), std::invalid_argument);
  EXPECT_EQ(mgr.stats().nodes_created, created);
  BddManager other{4};
  EXPECT_THROW((void)mgr.isop_function(x0, other.var(0)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GC-churn stress: the incremental root counter and the O(1) trigger.
// ---------------------------------------------------------------------------

TEST(BddGcChurnTest, ExternalRootCounterTracksHandleLifetimes) {
  BddManager mgr{8};
  EXPECT_EQ(mgr.external_root_count(), 0u);
  {
    const Bdd a = mgr.var(0);
    EXPECT_EQ(mgr.external_root_count(), 1u);
    const Bdd b = mgr.var(1);
    EXPECT_EQ(mgr.external_root_count(), 2u);
    const Bdd c = a;  // same node: refcount 2, still one root
    EXPECT_EQ(mgr.external_root_count(), 2u);
    const Bdd d = !a;  // complement edge, same node
    EXPECT_EQ(mgr.external_root_count(), 2u);
    {
      const Bdd e = a & b;
      EXPECT_EQ(mgr.external_root_count(), 3u);
    }
    EXPECT_EQ(mgr.external_root_count(), 2u);
    // Constants never count as roots.
    const Bdd one = mgr.one();
    const Bdd zero = mgr.zero();
    EXPECT_EQ(mgr.external_root_count(), 2u);
  }
  EXPECT_EQ(mgr.external_root_count(), 0u);
}

TEST(BddGcChurnTest, CounterConsistentThroughOpAndGcChurn) {
  BddManager mgr{12};
  std::mt19937 rng{55};
  std::vector<Bdd> pool;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.push_back(random_function(mgr, rng, 12, 3));
    }
    // Drop a random subset of handles.
    for (int i = 0; i < 20 && !pool.empty(); ++i) {
      pool.erase(pool.begin() + static_cast<long>(rng() % pool.size()));
    }
    if (round % 3 == 0) {
      mgr.garbage_collect();
    } else {
      mgr.garbage_collect_if_needed(/*dead_node_threshold=*/64);
    }
    // The counter equals the number of distinct non-constant root nodes
    // among the live handles (recomputed the slow way).
    std::vector<std::uint32_t> roots;
    for (const Bdd& f : pool) {
      if (!f.is_constant()) {
        roots.push_back(detail::edge_index(f.raw_edge()));
      }
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    ASSERT_EQ(mgr.external_root_count(), roots.size());
    // Roots can never outnumber live nodes.
    ASSERT_LE(mgr.external_root_count(), mgr.stats().live_nodes);
  }
}

TEST(BddGcChurnTest, SolvesInterleavedWithForcedCollections) {
  // Fig. 1 relation solved repeatedly with forced GCs and trigger churn in
  // between: solutions and stats invariants must be unaffected.
  BddManager mgr{4};
  const auto r = BooleanRelation::from_table(
      mgr, {0, 1}, {2, 3},
      {{"00", {"00"}}, {"01", {"01"}}, {"10", {"00", "11"}}, {"11", {"1-"}}});
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  double first_cost = -1.0;
  for (int round = 0; round < 10; ++round) {
    const SolveResult result = BrelSolver(options).solve(r);
    EXPECT_TRUE(r.is_compatible(result.function));
    if (first_cost < 0.0) {
      first_cost = result.cost;
    } else {
      EXPECT_DOUBLE_EQ(result.cost, first_cost);
    }
    const std::uint64_t gc_runs_before = mgr.stats().gc_runs;
    mgr.garbage_collect();
    EXPECT_EQ(mgr.stats().gc_runs, gc_runs_before + 1);
    mgr.garbage_collect_if_needed();
    ASSERT_LE(mgr.external_root_count(), mgr.stats().live_nodes);
  }
}

TEST(BddGcChurnTest, DecliningTriggerIsConstantTime) {
  // Build a table whose live size exceeds the threshold but whose root
  // count forbids collection (live <= 4 * roots), i.e. the decline path
  // that the pre-overhaul implementation walked with an O(live) refcount
  // scan per call — from the solver loop, on every expansion step.
  BddManager mgr{160};
  std::mt19937 rng{77};
  std::vector<Bdd> roots;
  int safety = 0;
  while (mgr.stats().live_nodes < 12000) {
    // Depth-1 pairs: ~one fresh node per held root, so the table stays
    // within the live <= 4 * roots region where the trigger declines.
    // (Complement edges share OR/XNOR results with AND/XOR nodes, so the
    // distinct-node supply is ~5 per variable pair; 160 variables give
    // ~64k possible nodes, far above the 12k target.)
    roots.push_back(random_function(mgr, rng, 160, 1));
    ASSERT_LT(++safety, 2000000) << "node-supply saturated below target";
  }
  const std::size_t live = mgr.stats().live_nodes;
  const std::size_t root_count = mgr.external_root_count();
  ASSERT_GE(live, 1000u);
  ASSERT_LE(live, root_count * 4) << "workload must force the decline path";

  constexpr std::uint64_t kChecks = 400000;
  const std::uint64_t gc_runs_before = mgr.stats().gc_runs;
  const std::uint64_t gc_checks_before = mgr.stats().gc_checks;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kChecks; ++i) {
    mgr.garbage_collect_if_needed(/*dead_node_threshold=*/1000);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(mgr.stats().gc_runs, gc_runs_before);  // declined every time
  EXPECT_EQ(mgr.stats().gc_checks, gc_checks_before + kChecks);
  // 400k declining checks over a >=12k-node table: an O(live) scan per
  // check is >= 4.8e9 node visits (several seconds at best); O(1) is
  // milliseconds.  The bound leaves ~1000x headroom for slow CI.
  EXPECT_LT(elapsed, 2.0)
      << "garbage_collect_if_needed appears to scan on the decline path";
}

TEST(BddGcChurnTest, PerOpCacheStatsAreTracked) {
  BddManager mgr{10};
  std::mt19937 rng{88};
  const Bdd f = random_function(mgr, rng, 10, 4);
  const Bdd g = random_function(mgr, rng, 10, 4);
  const BddStats& stats = mgr.stats();
  const auto idx = [](BddOp op) { return static_cast<std::size_t>(op); };

  const std::uint64_t and_before = stats.op_lookups[idx(BddOp::And)];
  (void)(f & g);
  EXPECT_GT(stats.op_lookups[idx(BddOp::And)], and_before);

  const std::uint64_t xor_before = stats.op_lookups[idx(BddOp::Xor)];
  (void)(f ^ g);
  EXPECT_GT(stats.op_lookups[idx(BddOp::Xor)], xor_before);

  const std::uint64_t leq_before = stats.op_lookups[idx(BddOp::Leq)];
  (void)f.subset_of(g);
  EXPECT_GE(stats.op_lookups[idx(BddOp::Leq)], leq_before);

  const std::uint64_t cof_before = stats.op_lookups[idx(BddOp::Cofactor)];
  (void)f.cofactor(3, true);
  EXPECT_GE(stats.op_lookups[idx(BddOp::Cofactor)], cof_before);

  // Aggregate counters are folded from the per-op arrays on stats() read.
  const BddStats& folded = mgr.stats();
  std::uint64_t lookup_sum = 0;
  std::uint64_t hit_sum = 0;
  for (std::size_t op = 0; op < kBddOpCount; ++op) {
    lookup_sum += folded.op_lookups[op];
    hit_sum += folded.op_hits[op];
  }
  EXPECT_EQ(folded.cache_lookups, lookup_sum);
  EXPECT_EQ(folded.cache_hits, hit_sum);
  EXPECT_LE(folded.cache_hits, folded.cache_lookups);

  // A repeated identical op must hit (2-way replacement keeps it).
  const std::uint64_t and_hits_before = stats.op_hits[idx(BddOp::And)];
  (void)(f & g);
  EXPECT_GT(stats.op_hits[idx(BddOp::And)], and_hits_before);
}

}  // namespace
}  // namespace brel
