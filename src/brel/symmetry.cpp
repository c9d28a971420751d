#include "brel/symmetry.hpp"

namespace brel {

SymmetryCache::SymmetryCache(BddManager& mgr,
                             std::vector<std::uint32_t> outputs)
    : mgr_(&mgr), outputs_(std::move(outputs)) {}

bool SymmetryCache::seen_before_or_insert(const Bdd& chi) {
  if (cache_.count(chi.raw_edge()) != 0) {
    ++hits_;
    return true;
  }
  // Try output-pair transforms; if any image is cached, this relation is
  // redundant.  Variants per pair (i, j):
  //   (a) swap                       y_i <-> y_j
  //   (b) complemented swap          y_i <-> !y_j        (skew)
  //   (c) complement pair            y_i -> !y_i, y_j -> !y_j
  //       (parity-preserving: the sibling symmetry of XOR-shaped gates)
  //   (d) swap + one other output complemented
  //       (the conditional symmetry of the mux: mux(A,B,C) = mux(B,A,!C))
  std::vector<Bdd> identity;
  identity.reserve(mgr_->num_vars());
  for (std::uint32_t v = 0; v < mgr_->num_vars(); ++v) {
    identity.push_back(mgr_->var(v));
  }
  const auto probe = [&](const std::vector<Bdd>& substitution) {
    const Bdd image = mgr_->compose(chi, substitution);
    if (cache_.count(image.raw_edge()) != 0) {
      ++hits_;
      return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    for (std::size_t j = i + 1; j < outputs_.size(); ++j) {
      const std::uint32_t yi = outputs_[i];
      const std::uint32_t yj = outputs_[j];
      {
        std::vector<Bdd> swap = identity;
        std::swap(swap[yi], swap[yj]);
        if (probe(swap)) {
          return true;
        }
        // (d): the swap additionally complements one other output.
        for (const std::uint32_t yk : outputs_) {
          if (yk == yi || yk == yj) {
            continue;
          }
          std::vector<Bdd> conditional = swap;
          conditional[yk] = !identity[yk];
          if (probe(conditional)) {
            return true;
          }
        }
      }
      std::vector<Bdd> skew = identity;
      skew[yi] = !identity[yj];
      skew[yj] = !identity[yi];
      if (probe(skew)) {
        return true;
      }
      std::vector<Bdd> pair = identity;
      pair[yi] = !identity[yi];
      pair[yj] = !identity[yj];
      if (probe(pair)) {
        return true;
      }
    }
  }
  cache_.insert(chi.raw_edge());
  keep_alive_.push_back(chi);
  return false;
}

}  // namespace brel
