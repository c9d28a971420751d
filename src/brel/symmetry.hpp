#pragma once
/// \file symmetry.hpp
/// Output-symmetry detection for subrelations (Sec. 7.7).
///
/// Two subrelations whose characteristic functions differ only by a
/// permutation (or pairwise complemented swap) of output variables have
/// solution sets of identical cost under any permutation-invariant cost
/// function, so exploring one of them suffices.  BREL keeps a cache of
/// characteristic functions of the relations it has processed; a new
/// subrelation is skipped when a symmetric image of it is already cached.
///
/// Following the paper's implementation decisions, symmetries are checked
/// for output variables only, cover the first-order swap and the
/// nonskew-nonequivalence second-order (complemented swap) cases, and are
/// intended to be applied only near the root of the exploration tree.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "bdd/bdd.hpp"

namespace brel {

class SymmetryCache {
 public:
  /// `outputs` are the manager variable indices of the relation's outputs.
  SymmetryCache(BddManager& mgr, std::vector<std::uint32_t> outputs);

  /// True iff a relation symmetric to `chi` (including `chi` itself) was
  /// inserted before.  Otherwise inserts `chi` and returns false.
  [[nodiscard]] bool seen_before_or_insert(const Bdd& chi);

  [[nodiscard]] std::size_t size() const noexcept { return cache_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  BddManager* mgr_;
  std::vector<std::uint32_t> outputs_;
  std::unordered_set<detail::Edge> cache_;
  std::vector<Bdd> keep_alive_;  ///< pins cached edges across GCs
  std::uint64_t hits_ = 0;
};

}  // namespace brel
