#include "brel/cost.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace brel {

std::string CostFunction::next_custom_id() {
  static std::atomic<std::uint64_t> counter{0};
  return "custom#" + std::to_string(counter.fetch_add(1) + 1);
}

CostFunction sum_of_bdd_sizes() {
  return {"size", [](const MultiFunction& f) {
            double total = 0.0;
            for (const Bdd& g : f.outputs) {
              total += static_cast<double>(g.size());
            }
            return total;
          }};
}

CostFunction sum_of_squared_bdd_sizes() {
  return {"size2", [](const MultiFunction& f) {
            double total = 0.0;
            for (const Bdd& g : f.outputs) {
              const double s = static_cast<double>(g.size());
              total += s * s;
            }
            return total;
          }};
}

CostFunction cube_count_cost() {
  return {"cubes", [](const MultiFunction& f) {
            double total = 0.0;
            for (const Bdd& g : f.outputs) {
              total += static_cast<double>(
                  g.manager()->isop(g, g).cover.cube_count());
            }
            return total;
          }};
}

CostFunction literal_count_cost() {
  return {"lits", [](const MultiFunction& f) {
            double total = 0.0;
            for (const Bdd& g : f.outputs) {
              total += static_cast<double>(
                  g.manager()->isop(g, g).cover.literal_count());
            }
            return total;
          }};
}

CostFunction support_balance_cost(double lambda) {
  // Max-precision encoding: std::to_string's fixed 6 decimals would
  // collide distinct lambdas (< 1e-6 apart) into one identity and let
  // the memo fingerprint accept memos minimized under a different
  // objective.
  char lambda_id[40];
  std::snprintf(lambda_id, sizeof lambda_id, "balance#%.17g", lambda);
  return {lambda_id,
          [lambda](const MultiFunction& f) {
            double total = 0.0;
            std::size_t widest = 0;
            std::size_t narrowest = static_cast<std::size_t>(-1);
            for (const Bdd& g : f.outputs) {
              total += static_cast<double>(g.size());
              const std::size_t width = g.support().size();
              widest = std::max(widest, width);
              narrowest = std::min(narrowest, width);
            }
            if (f.outputs.empty()) {
              return 0.0;
            }
            return total + lambda * static_cast<double>(widest - narrowest);
          }};
}

CostFunction max_bdd_size_cost() {
  return {"maxsize", [](const MultiFunction& f) {
            double worst = 0.0;
            for (const Bdd& g : f.outputs) {
              worst = std::max(worst, static_cast<double>(g.size()));
            }
            return worst;
          }};
}

}  // namespace brel
