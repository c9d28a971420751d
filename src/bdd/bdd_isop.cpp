#include <algorithm>
#include <stdexcept>

#include "bdd/bdd.hpp"

namespace brel {

using detail::Edge;
using detail::edge_not;
using detail::kOne;
using detail::kZero;

void BddManager::check_isop_interval(const Bdd& lower, const Bdd& upper) {
  if (lower.manager() != this || upper.manager() != this) {
    throw std::invalid_argument("isop: operands from a different manager");
  }
  if (!leq(lower, upper)) {
    throw std::invalid_argument("isop: requires lower <= upper");
  }
}

/// Minato-Morreale ISOP: returns an irredundant sum-of-products whose
/// function lies in the interval [lower, upper].  The recursion partitions
/// on the interval's top variable v: minterms of lower|v=0 that fall outside
/// upper|v=1 can only be covered by cubes carrying literal !v (dually for
/// v), and whatever remains is covered by cubes without a v literal against
/// the tightened upper bound upper|v=0 ∧ upper|v=1.  isop_rec below is the
/// same recursion without the cubes; the two must stay step for step
/// identical so that isop(l, u).function == isop_function(l, u).
IsopResult BddManager::isop(const Bdd& lower, const Bdd& upper) {
  check_isop_interval(lower, upper);
  std::vector<Cube> cubes;
  auto rec = [this](auto&& self, Edge l, Edge u,
                    std::vector<Cube>& out) -> Edge {
    if (l == kZero) {
      return kZero;
    }
    if (u == kOne) {
      out.emplace_back(num_vars_);  // universal cube
      return kOne;
    }
    // Top variable of the interval by LEVEL (l is nonzero and u is not
    // one here, but either may be the other constant).
    std::uint32_t v = detail::kTerminalVar;
    if (!detail::edge_is_constant(l)) {
      v = node_var(l);
    }
    if (!detail::edge_is_constant(u) &&
        (v == detail::kTerminalVar || node_level(u) < level_of(v))) {
      v = node_var(u);
    }
    const Edge l1 = cofactor_top(l, v, true);
    const Edge l0 = cofactor_top(l, v, false);
    const Edge u1 = cofactor_top(u, v, true);
    const Edge u0 = cofactor_top(u, v, false);

    // Minterms that *must* be covered with the literal !v (resp. v).
    std::vector<Cube> cubes_neg;
    const Edge must_neg = and_rec(l0, edge_not(u1));
    const Edge f_neg = self(self, must_neg, u0, cubes_neg);

    std::vector<Cube> cubes_pos;
    const Edge must_pos = and_rec(l1, edge_not(u0));
    const Edge f_pos = self(self, must_pos, u1, cubes_pos);

    // Whatever is still uncovered may use cubes without a v literal.
    const Edge rest = or_rec(and_rec(l0, edge_not(f_neg)),
                             and_rec(l1, edge_not(f_pos)));
    std::vector<Cube> cubes_dc;
    const Edge u_both = and_rec(u0, u1);
    const Edge f_dc = self(self, rest, u_both, cubes_dc);

    for (Cube& cube : cubes_neg) {
      cube.set_lit(v, Lit::Zero);
      out.push_back(std::move(cube));
    }
    for (Cube& cube : cubes_pos) {
      cube.set_lit(v, Lit::One);
      out.push_back(std::move(cube));
    }
    for (Cube& cube : cubes_dc) {
      out.push_back(std::move(cube));
    }
    // f = !v·f_neg + v·f_pos + f_dc
    const Edge branch = make_node(v, f_pos, f_neg);
    return or_rec(branch, f_dc);
  };
  const Edge f = rec(rec, lower.raw_edge(), upper.raw_edge(), cubes);
  return IsopResult{Cover(num_vars_, std::move(cubes)), wrap(f)};
}

Bdd BddManager::isop_function(const Bdd& lower, const Bdd& upper) {
  check_isop_interval(lower, upper);
  return wrap(isop_rec(lower.raw_edge(), upper.raw_edge()));
}

Edge BddManager::isop_rec(Edge l, Edge u) {
  if (l == kZero) {
    return kZero;
  }
  if (u == kOne) {
    return kOne;
  }
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Isop, l, u, 0, cached, probe)) {
    return cached;
  }
  std::uint32_t v = detail::kTerminalVar;
  if (!detail::edge_is_constant(l)) {
    v = node_var(l);
  }
  if (!detail::edge_is_constant(u) &&
      (v == detail::kTerminalVar || node_level(u) < level_of(v))) {
    v = node_var(u);
  }
  const Edge l1 = cofactor_top(l, v, true);
  const Edge l0 = cofactor_top(l, v, false);
  const Edge u1 = cofactor_top(u, v, true);
  const Edge u0 = cofactor_top(u, v, false);
  const Edge f_neg = isop_rec(and_rec(l0, edge_not(u1)), u0);
  const Edge f_pos = isop_rec(and_rec(l1, edge_not(u0)), u1);
  const Edge rest = or_rec(and_rec(l0, edge_not(f_neg)),
                           and_rec(l1, edge_not(f_pos)));
  const Edge f_dc = isop_rec(rest, and_rec(u0, u1));
  const Edge result = or_rec(make_node(v, f_pos, f_neg), f_dc);
  cache_insert(probe, result);
  return result;
}

}  // namespace brel
