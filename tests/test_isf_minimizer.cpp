// Tests for IsfMinimizer: the single-pass support elimination on interval
// bounds and the cached kernels must reproduce, bit for bit, the
// two-step formulation through Isf::can_eliminate_var / eliminate_var
// and the cover-building isop(); and the BddOp::IsfMinimize entry must
// serve repeats without re-running any kernel, per configuration, until
// the next garbage collection.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "bdd/bdd.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/isf_minimizer.hpp"
#include "relation/relation.hpp"

namespace brel {
namespace {

/// Greedy elimination as one Isf per step: the candidate set is
/// supp(ON ∪ DC) ∪ supp(OFF), ascending; each variable is tested with
/// can_eliminate_var and then removed with eliminate_var.
Isf reference_eliminate(const Isf& isf) {
  Isf current = isf;
  std::vector<std::uint32_t> vars = (current.on() | current.dc()).support();
  const std::vector<std::uint32_t> off_support = current.off().support();
  vars.insert(vars.end(), off_support.begin(), off_support.end());
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  for (const std::uint32_t var : vars) {
    if (current.can_eliminate_var(var)) {
      current = current.eliminate_var(var);
    }
  }
  return current;
}

Bdd reference_kernel(IsfMethod method, const Isf& isf) {
  BddManager& mgr = *isf.on().manager();
  const Bdd care = isf.on() | isf.off();
  switch (method) {
    case IsfMethod::Isop:
      return mgr.isop(isf.min(), isf.max()).function;
    case IsfMethod::Constrain:
      return care.is_zero() ? mgr.zero() : mgr.constrain(isf.on(), care);
    case IsfMethod::Restrict:
      return care.is_zero() ? mgr.zero() : mgr.restrict_to(isf.on(), care);
    case IsfMethod::SafeRestrict: {
      if (care.is_zero()) {
        return mgr.zero();
      }
      const Bdd candidate = mgr.restrict_to(isf.on(), care);
      if (isf.contains(candidate) && candidate.size() <= isf.on().size()) {
        return candidate;
      }
      return isf.on();
    }
  }
  throw std::logic_error("unknown method");
}

Bdd reference_minimize(const IsfMinimizer& m, const Isf& isf) {
  return reference_kernel(
      m.method, m.eliminate_nonessential ? reference_eliminate(isf) : isf);
}

std::vector<IsfMinimizer> all_configurations() {
  std::vector<IsfMinimizer> out;
  for (const IsfMethod method : {IsfMethod::Isop, IsfMethod::Constrain,
                                 IsfMethod::Restrict,
                                 IsfMethod::SafeRestrict}) {
    for (const bool eliminate : {true, false}) {
      out.push_back(IsfMinimizer{method, eliminate});
    }
  }
  return out;
}

std::uint64_t op_count(const std::array<std::uint64_t, kBddOpCount>& counts,
                       BddOp op) {
  return counts[static_cast<std::size_t>(op)];
}

TEST(IsfMinimizerTest, MatchesTwoStepReferenceOnRelationSuite) {
  const std::vector<IsfMinimizer> configs = all_configurations();
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    // Every configuration runs in the same manager, so their cache
    // entries coexist: a key that ignored the configuration would hand
    // one configuration another's result.
    for (std::size_t i = 0; i < r.num_outputs(); ++i) {
      const Isf isf = r.project_output(i);
      for (const IsfMinimizer& m : configs) {
        const Bdd got = m.minimize(isf);
        EXPECT_TRUE(got == reference_minimize(m, isf))
            << bench.name << " output " << i << " method "
            << static_cast<int>(m.method) << " elim "
            << m.eliminate_nonessential;
        EXPECT_TRUE(isf.contains(got));
      }
    }
  }
}

TEST(IsfMinimizerTest, MatchesTwoStepReferenceOnRandomIsfs) {
  BddManager mgr{8};
  std::mt19937 rng{4242};
  const std::vector<IsfMinimizer> configs = all_configurations();
  const auto random_cube_sum = [&](int terms) {
    Bdd f = mgr.zero();
    for (int t = 0; t < terms; ++t) {
      Bdd cube = mgr.one();
      for (std::uint32_t v = 0; v < 8; ++v) {
        if (rng() % 3 == 0) {
          cube = cube & mgr.literal(v, rng() % 2 == 0);
        }
      }
      f = f | cube;
    }
    return f;
  };
  for (int trial = 0; trial < 60; ++trial) {
    const Bdd on = random_cube_sum(4);
    const Bdd dc = random_cube_sum(3) & !on;
    const Isf isf(on, dc);
    for (const IsfMinimizer& m : configs) {
      EXPECT_TRUE(m.minimize(isf) == reference_minimize(m, isf))
          << "trial " << trial << " method " << static_cast<int>(m.method)
          << " elim " << m.eliminate_nonessential;
    }
  }
}

TEST(IsfMinimizerTest, MinimizeToCoverAgreesWithMinimize) {
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    for (std::size_t i = 0; i < r.num_outputs(); ++i) {
      const Isf isf = r.project_output(i);
      for (const IsfMinimizer& m : all_configurations()) {
        EXPECT_TRUE(m.minimize_to_cover(isf).function == m.minimize(isf))
            << bench.name << " output " << i;
      }
    }
  }
}

TEST(IsfMinimizerTest, RepeatIsServedByOneCacheProbe) {
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    const IsfMinimizer m{};
    for (std::size_t i = 0; i < r.num_outputs(); ++i) {
      const Isf isf = r.project_output(i);
      const Bdd first = m.minimize(isf);
      const BddStats before = mgr.stats();
      EXPECT_TRUE(m.minimize(isf) == first);
      const BddStats& after = mgr.stats();
      EXPECT_EQ(op_count(after.op_lookups, BddOp::Isop),
                op_count(before.op_lookups, BddOp::Isop));
      EXPECT_EQ(op_count(after.op_lookups, BddOp::Exists),
                op_count(before.op_lookups, BddOp::Exists));
      EXPECT_EQ(op_count(after.op_hits, BddOp::IsfMinimize),
                op_count(before.op_hits, BddOp::IsfMinimize) + 1);
      EXPECT_EQ(after.nodes_created, before.nodes_created);
    }
  }
}

TEST(IsfMinimizerTest, GarbageCollectionForcesRecomputation) {
  const RelationBenchmark& bench = relation_suite().front();
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, bench, inputs, outputs);
  const IsfMinimizer m{};
  const Isf isf = r.project_output(0);
  ASSERT_FALSE(isf.max().support().empty());  // elimination has work
  const Bdd first = m.minimize(isf);
  mgr.garbage_collect();
  const BddStats before = mgr.stats();
  EXPECT_TRUE(m.minimize(isf) == first);
  const BddStats& after = mgr.stats();
  EXPECT_EQ(op_count(after.op_hits, BddOp::IsfMinimize),
            op_count(before.op_hits, BddOp::IsfMinimize));
  EXPECT_GT(op_count(after.op_lookups, BddOp::Exists),
            op_count(before.op_lookups, BddOp::Exists));
  EXPECT_TRUE(first == reference_minimize(m, isf));
}

}  // namespace
}  // namespace brel
