#pragma once
/// \file cost.hpp
/// Customizable cost functions for the BREL solver (Sec. 7.3).
///
/// A cost function maps a candidate multi-output function to a double;
/// the solver minimizes it.  The paper's two built-ins are the sum of
/// per-output BDD sizes (area-oriented) and the sum of their squares
/// (delay-oriented: squaring biases the search toward balanced outputs).

#include <concepts>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "relation/relation.hpp"

namespace brel {

/// User-customizable solver objective.  Must be >= 0 and should be
/// invariant under output permutation when symmetry pruning is enabled.
///
/// A cost function carries an *identity* next to its callable: solution
/// memos (GlobalMemo) are only comparable between runs that minimized the
/// same objective, and `std::function` instances cannot be compared, so
/// a memo stamps itself with `id()` at first use and rejects mismatched
/// reuse.  The factories below name
/// their products stably ("size", "size2", ...); a bare lambda converts
/// implicitly and receives a process-unique "custom#N" identity —
/// conservative on purpose: two independently constructed lambdas are
/// never assumed equal, while copies of one CostFunction (the normal
/// shared-SolverOptions pattern) keep their identity.
class CostFunction {
 public:
  using Fn = std::function<double(const MultiFunction&)>;

  CostFunction() = default;

  /// Named objective (the factories below use this).
  CostFunction(std::string id, Fn fn) : fn_(std::move(fn)), id_(std::move(id)) {}

  /// Anonymous objective: any callable converts, keeping the historical
  /// `options.cost = [](const MultiFunction&) {...}` spelling working.
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, CostFunction> &&
             std::is_invocable_r_v<double, F&, const MultiFunction&>)
  CostFunction(F&& fn)  // NOLINT(google-explicit-constructor)
      : fn_(std::forward<F>(fn)), id_(next_custom_id()) {}

  double operator()(const MultiFunction& f) const { return fn_(f); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return static_cast<bool>(fn_);
  }

  /// Stable identity for memo fingerprints (empty when null).
  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  [[nodiscard]] static std::string next_custom_id();

  Fn fn_;
  std::string id_;
};

/// Σ_i |BDD(F_i)| — the paper's area-minimization cost (Sec. 7.3, Table 2).
[[nodiscard]] CostFunction sum_of_bdd_sizes();

/// Σ_i |BDD(F_i)|² — the paper's delay-oriented cost (Sec. 7.3, Table 3):
/// favours solutions whose outputs have balanced complexity.
[[nodiscard]] CostFunction sum_of_squared_bdd_sizes();

/// Number of cubes of the per-output ISOPs (the gyocro-style CB metric).
/// More expensive to evaluate: runs one ISOP per output.
[[nodiscard]] CostFunction cube_count_cost();

/// Number of literals of the per-output ISOPs (the LIT metric).
[[nodiscard]] CostFunction literal_count_cost();

/// Σ_i |BDD(F_i)| + λ·(max_i |supp(F_i)| - min_i |supp(F_i)|): size plus a
/// penalty on support imbalance.  The paper motivates support balancing
/// "for reducing layout congestion" (Sec. 3); λ defaults to the weight
/// that made the penalty comparable to one BDD node.
[[nodiscard]] CostFunction support_balance_cost(double lambda = 4.0);

/// Worst single output: max_i |BDD(F_i)| (min-max objective).
[[nodiscard]] CostFunction max_bdd_size_cost();

}  // namespace brel
