#include "brel/isf_minimizer.hpp"

#include <stdexcept>

namespace brel {

namespace {

/// An interval [lower, upper] of the Boolean lattice; minimization works
/// on the bounds directly (an Isf would re-derive OFF and re-check
/// disjointness at every step).
struct Bounds {
  Bdd lower;
  Bdd upper;
};

/// Greedy support reduction (Sec. 7.5): for each variable of supp(upper)
/// in ascending index order, drop it when the tightened interval
/// [∃v lower, ∀v upper] stays non-empty.  supp(upper) is the support of
/// ON ∪ DC, which equals supp(ON ∪ DC) ∪ supp(OFF) since OFF = ¬(ON ∪ DC).
Bounds eliminate_nonessential_vars(Bounds b) {
  BddManager& mgr = *b.lower.manager();
  for (const std::uint32_t var : b.upper.support()) {
    const std::span<const std::uint32_t> vars(&var, 1);
    Bdd lower = mgr.exists(b.lower, vars);
    Bdd upper = mgr.forall(b.upper, vars);
    if (mgr.leq(lower, upper)) {
      b.lower = std::move(lower);
      b.upper = std::move(upper);
    }
  }
  return b;
}

/// The care set ON ∪ OFF of the interval (OFF = ¬upper).
Bdd care_set(const Bounds& b) { return b.lower | !b.upper; }

Bdd run_kernel(IsfMethod method, const Bounds& b) {
  BddManager& mgr = *b.lower.manager();
  switch (method) {
    case IsfMethod::Isop:
      return mgr.isop_function(b.lower, b.upper);
    case IsfMethod::Constrain: {
      const Bdd care = care_set(b);
      return care.is_zero() ? mgr.zero() : mgr.constrain(b.lower, care);
    }
    case IsfMethod::Restrict: {
      const Bdd care = care_set(b);
      return care.is_zero() ? mgr.zero() : mgr.restrict_to(b.lower, care);
    }
    case IsfMethod::SafeRestrict: {
      const Bdd care = care_set(b);
      if (care.is_zero()) {
        return mgr.zero();
      }
      const Bdd candidate = mgr.restrict_to(b.lower, care);
      // Safe: only accept when the interval holds and the BDD shrank.
      if (mgr.leq(b.lower, candidate) && mgr.leq(candidate, b.upper) &&
          candidate.size() <= b.lower.size()) {
        return candidate;
      }
      return b.lower;
    }
  }
  throw std::logic_error("IsfMinimizer: unknown method");
}

Bounds reduced_bounds(const IsfMinimizer& m, const Isf& isf) {
  Bounds b{isf.min(), isf.max()};
  return m.eliminate_nonessential ? eliminate_nonessential_vars(std::move(b))
                                  : b;
}

}  // namespace

Bdd IsfMinimizer::minimize(const Isf& isf) const {
  BddManager& mgr = *isf.on().manager();
  const std::uint32_t tag = static_cast<std::uint32_t>(method) << 1 |
                            (eliminate_nonessential ? 1u : 0u);
  Bdd result;
  if (mgr.isf_minimize_lookup(isf.on(), isf.dc(), tag, result)) {
    return result;
  }
  // Support elimination only tightens the interval, so the result
  // honours the *original* interval too.
  result = run_kernel(method, reduced_bounds(*this, isf));
  mgr.isf_minimize_insert(isf.on(), isf.dc(), tag, result);
  return result;
}

IsopResult IsfMinimizer::minimize_to_cover(const Isf& isf) const {
  BddManager& mgr = *isf.on().manager();
  if (method == IsfMethod::Isop) {
    const Bounds b = reduced_bounds(*this, isf);
    return mgr.isop(b.lower, b.upper);
  }
  const Bdd f = minimize(isf);
  return mgr.isop(f, f);
}

}  // namespace brel
