#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "bdd/bdd.hpp"

namespace brel {

using detail::Edge;
using detail::edge_complemented;
using detail::edge_index;
using detail::edge_not;
using detail::kOne;
using detail::kTerminalVar;
using detail::kZero;

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(BddManager* manager, Edge edge) : manager_(manager), edge_(edge) {
  if (manager_ != nullptr) {
    manager_->ref_edge(edge_);
  }
}

Bdd::Bdd(const Bdd& other) : manager_(other.manager_), edge_(other.edge_) {
  if (manager_ != nullptr) {
    manager_->ref_edge(edge_);
  }
}

Bdd::Bdd(Bdd&& other) noexcept : manager_(other.manager_), edge_(other.edge_) {
  other.manager_ = nullptr;
  other.edge_ = kOne;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) {
    return *this;
  }
  if (other.manager_ != nullptr) {
    other.manager_->ref_edge(other.edge_);
  }
  if (manager_ != nullptr) {
    manager_->deref_edge(edge_);
  }
  manager_ = other.manager_;
  edge_ = other.edge_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  if (manager_ != nullptr) {
    manager_->deref_edge(edge_);
  }
  manager_ = other.manager_;
  edge_ = other.edge_;
  other.manager_ = nullptr;
  other.edge_ = kOne;
  return *this;
}

Bdd::~Bdd() {
  if (manager_ != nullptr) {
    manager_->deref_edge(edge_);
  }
}

bool Bdd::is_one() const noexcept {
  return manager_ != nullptr && edge_ == kOne;
}
bool Bdd::is_zero() const noexcept {
  return manager_ != nullptr && edge_ == kZero;
}
bool Bdd::is_constant() const noexcept {
  return manager_ != nullptr && detail::edge_is_constant(edge_);
}

Bdd Bdd::operator!() const { return manager_->bdd_not(*this); }
Bdd Bdd::operator&(const Bdd& other) const {
  return manager_->bdd_and(*this, other);
}
Bdd Bdd::operator|(const Bdd& other) const {
  return manager_->bdd_or(*this, other);
}
Bdd Bdd::operator^(const Bdd& other) const {
  return manager_->bdd_xor(*this, other);
}
Bdd Bdd::iff(const Bdd& other) const {
  return !manager_->bdd_xor(*this, other);
}
Bdd Bdd::implies(const Bdd& other) const {
  return manager_->bdd_or(!*this, other);
}

bool Bdd::subset_of(const Bdd& other) const {
  // f <= g  <=>  f & !g == 0, decided by the short-circuiting leq kernel
  // without materializing the conjunction.
  return manager_->leq(*this, other);
}

Bdd Bdd::cofactor(std::uint32_t var, bool phase) const {
  return manager_->cofactor(*this, var, phase);
}

// ---------------------------------------------------------------------------
// Manager: construction, variables
// ---------------------------------------------------------------------------

BddManager::BddManager(std::uint32_t num_vars, std::uint32_t cache_log2) {
  if (cache_log2 < 8 || cache_log2 > 28) {
    throw std::invalid_argument("BddManager: cache_log2 out of range [8,28]");
  }
  if (num_vars > kMaxVariables) {
    // Same invariant as kMaxNodeIndex: cofactor_rec packs var << 1 | phase
    // into a 30-bit cache operand field.
    throw std::invalid_argument("BddManager: too many variables");
  }
  nodes_.reserve(1u << 12);
  refcount_.reserve(1u << 12);
  // Node 0: the terminal ONE.
  nodes_.push_back(Node{kTerminalVar, kOne, kOne, 0});
  refcount_.push_back(1);  // never collected
  (void)add_vars(num_vars);
  // 2^cache_log2 entries organized as 2-way sets (consecutive pairs); at
  // 16 bytes per entry this is half the memory of the pre-overhaul cache.
  cache_.resize(std::size_t{1} << cache_log2);
  cache_mask_ = (std::uint64_t{1} << (cache_log2 - 1)) - 1;
}

BddManager::~BddManager() = default;

std::uint32_t BddManager::add_vars(std::uint32_t count) {
  if (count > kMaxVariables - num_vars_) {
    throw std::length_error("BddManager: too many variables");
  }
  const std::uint32_t first = num_vars_;
  num_vars_ += count;
  // Fresh variables enter at the bottom of the order, each with its own
  // (initially small) unique table.
  level_of_var_.reserve(num_vars_);
  var_at_level_.reserve(num_vars_);
  subtables_.resize(num_vars_);
  for (std::uint32_t v = first; v < num_vars_; ++v) {
    level_of_var_.push_back(v);
    var_at_level_.push_back(v);
    subtables_[v].buckets.assign(kInitialSubtableBuckets, 0u);
  }
  return first;
}

std::uint32_t BddManager::level_of_var(std::uint32_t var) const {
  if (var >= num_vars_) {
    throw std::out_of_range("BddManager::level_of_var: unknown variable");
  }
  return level_of_var_[var];
}

std::uint32_t BddManager::var_at_level(std::uint32_t level) const {
  if (level >= num_vars_) {
    throw std::out_of_range("BddManager::var_at_level: unknown level");
  }
  return var_at_level_[level];
}

ReorderMode resolve_reorder_mode(ReorderMode configured) {
  const char* env = std::getenv("BREL_REORDER");
  if (env == nullptr) {
    return configured;
  }
  if (std::strcmp(env, "off") == 0) {
    return ReorderMode::Off;
  }
  if (std::strcmp(env, "on") == 0) {
    return ReorderMode::On;
  }
  if (std::strcmp(env, "auto") == 0) {
    return ReorderMode::Auto;
  }
  return configured;  // unknown value: keep the configured mode
}

Bdd BddManager::one() { return wrap(kOne); }
Bdd BddManager::zero() { return wrap(kZero); }

Bdd BddManager::var(std::uint32_t var) {
  if (var >= num_vars_) {
    throw std::out_of_range("BddManager::var: unknown variable");
  }
  return wrap(make_node(var, kOne, kZero));
}

Bdd BddManager::literal(std::uint32_t var, bool positive) {
  Bdd v = this->var(var);
  return positive ? v : !v;
}

// ---------------------------------------------------------------------------
// Unique table
// ---------------------------------------------------------------------------

std::uint64_t BddManager::hash_triple(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t c) noexcept {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ull;
  h ^= (b + 0xBF58476D1CE4E5B9ull) + (h << 6) + (h >> 2);
  h *= 0x94D049BB133111EBull;
  h ^= (c + 0x2545F4914F6CDD1Dull) + (h << 6) + (h >> 2);
  h ^= h >> 29;
  return h;
}

void BddManager::subtable_insert(SubTable& table, std::uint32_t idx) noexcept {
  const Node& n = nodes_[idx];
  const std::uint64_t h =
      hash_triple(n.var, n.hi, n.lo) & (table.buckets.size() - 1);
  nodes_[idx].next = table.buckets[h];
  table.buckets[h] = idx;
  ++table.count;
}

void BddManager::subtable_remove(SubTable& table, std::uint32_t idx) noexcept {
  const Node& n = nodes_[idx];
  const std::uint64_t h =
      hash_triple(n.var, n.hi, n.lo) & (table.buckets.size() - 1);
  std::uint32_t* slot = &table.buckets[h];
  while (*slot != idx) {
    slot = &nodes_[*slot].next;
  }
  *slot = nodes_[idx].next;
  --table.count;
}

void BddManager::rebuild_subtables(std::uint32_t grow_level) {
  // Re-bucket every live node into its level's table.  `grow_level`
  // doubles that one table's bucket array first (the per-table analogue
  // of the old global rehash-on-load).
  if (grow_level != kTerminalVar) {
    // Walk the CHAINS, not the node store: during a reorder swap some
    // nodes of this variable are deliberately unlinked (awaiting their
    // in-place rewrite), and re-inserting those here would corrupt both
    // tables through the shared Node::next field.
    SubTable& table = subtables_[grow_level];
    std::vector<std::uint32_t> linked;
    linked.reserve(table.count);
    for (const std::uint32_t head : table.buckets) {
      for (std::uint32_t i = head; i != 0; i = nodes_[i].next) {
        linked.push_back(i);
      }
    }
    table.buckets.assign(table.buckets.size() * 2, 0u);
    table.count = 0;
    for (const std::uint32_t i : linked) {
      subtable_insert(table, i);
    }
    return;
  }
  for (SubTable& table : subtables_) {
    std::fill(table.buckets.begin(), table.buckets.end(), 0u);
    table.count = 0;
  }
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].var == kTerminalVar) {
      continue;  // freed slot (var reset when put on the free list)
    }
    subtable_insert(subtables_[level_of_var_[nodes_[i].var]], i);
  }
}

std::uint32_t BddManager::allocate_node() {
  if (free_list_ != 0) {
    const std::uint32_t idx = free_list_;
    free_list_ = nodes_[idx].next;
    --free_count_;
    return idx;
  }
  if (nodes_.size() > kMaxNodeIndex) {
    // Edges must fit the 30-bit operand fields of the packed computed
    // cache; 2^29 nodes is ~8 GiB of node store, far past practical use.
    throw std::length_error("BddManager: node capacity exceeded");
  }
  nodes_.push_back(Node{});
  refcount_.push_back(0);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

Edge BddManager::make_node(std::uint32_t var, Edge hi, Edge lo) {
  assert_owning_thread();
  if (hi == lo) {
    return hi;
  }
  // Canonical form: the then-edge is never complemented.
  bool complement_out = false;
  if (edge_complemented(hi)) {
    hi = edge_not(hi);
    lo = edge_not(lo);
    complement_out = true;
  }
  assert(node_level(hi) > level_of_var_[var] &&
         node_level(lo) > level_of_var_[var] &&
         "make_node: child level not below the parent");
  SubTable& table = subtables_[level_of_var_[var]];
  const std::uint64_t h =
      hash_triple(var, hi, lo) & (table.buckets.size() - 1);
  for (std::uint32_t i = table.buckets[h]; i != 0; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    if (n.var == var && n.hi == hi && n.lo == lo) {
      const Edge found = i << 1;
      return complement_out ? edge_not(found) : found;
    }
  }
  const std::uint32_t idx = allocate_node();
  nodes_[idx] = Node{var, hi, lo, table.buckets[h]};
  refcount_[idx] = 0;
  table.buckets[h] = idx;
  ++table.count;
  if (sifting_) {
    // A fresh node hands one sift-session reference to each child; its
    // own count starts at 0 and is set by the caller when it links the
    // node somewhere.
    if (sift_refs_.size() < nodes_.size()) {
      sift_refs_.resize(nodes_.size(), 0u);
    }
    const auto bump = [this](Edge e) {
      const std::uint32_t child = edge_index(e);
      if (child != 0) {
        ++sift_refs_[child];
      }
    };
    bump(hi);
    bump(lo);
  }
  ++stats_.nodes_created;
  const std::size_t live = live_nodes();
  stats_.live_nodes = live;
  stats_.peak_nodes = std::max(stats_.peak_nodes, live);
  if (table.count * 2 > table.buckets.size()) {
    rebuild_subtables(level_of_var_[var]);
  }
  const Edge fresh = idx << 1;
  return complement_out ? edge_not(fresh) : fresh;
}

// ---------------------------------------------------------------------------
// Computed cache
// ---------------------------------------------------------------------------

const char* bdd_op_name(BddOp op) noexcept {
  switch (op) {
    case BddOp::Ite:
      return "ite";
    case BddOp::And:
      return "and";
    case BddOp::Xor:
      return "xor";
    case BddOp::Cofactor:
      return "cofactor";
    case BddOp::Leq:
      return "leq";
    case BddOp::Exists:
      return "exists";
    case BddOp::AndExists:
      return "and_exists";
    case BddOp::Constrain:
      return "constrain";
    case BddOp::Restrict:
      return "restrict";
    case BddOp::Isop:
      return "isop";
    case BddOp::IsfMinimize:
      return "isf_minimize";
  }
  return "?";
}

std::uint64_t BddManager::hash_key(std::uint64_t key_ab, Edge c) noexcept {
  std::uint64_t h = key_ab * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h += std::uint64_t{c} * 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 32;
  return h;
}

bool BddManager::cache_lookup(Op op, Edge a, Edge b, Edge c, Edge& out,
                              CacheProbe& probe) {
  assert_owning_thread();  // per-op stats and MRU promotion both write
  const auto op_idx = static_cast<std::size_t>(op);
  ++stats_.op_lookups[op_idx];  // aggregates are folded on stats() read
  probe = make_probe(op, a, b, c);
  CacheEntry& primary = cache_[probe.slot];
  if (primary.key_ab == probe.key_ab && primary.c == c) {
    ++stats_.op_hits[op_idx];
    out = primary.result;
    return true;
  }
  CacheEntry& secondary = cache_[probe.slot + 1];
  if (secondary.key_ab == probe.key_ab && secondary.c == c) {
    ++stats_.op_hits[op_idx];
    out = secondary.result;
    std::swap(primary, secondary);  // promote to the MRU way
    return true;
  }
  return false;
}

void BddManager::cache_insert(const CacheProbe& probe, Edge result) {
  CacheEntry& primary = cache_[probe.slot];
  if (primary.key_ab != kEmptyCacheKey) {
    cache_[probe.slot + 1] = primary;  // demote; the LRU way is evicted
  }
  primary = CacheEntry{probe.key_ab, probe.c, result};
}

bool BddManager::isf_minimize_lookup(const Bdd& on, const Bdd& dc,
                                     std::uint32_t tag, Bdd& out) {
  if (on.manager() != this || dc.manager() != this) {
    throw std::invalid_argument(
        "isf_minimize_lookup: operands from a different manager");
  }
  Edge cached = 0;
  CacheProbe probe;
  if (!cache_lookup(Op::IsfMinimize, on.raw_edge(), dc.raw_edge(), tag,
                    cached, probe)) {
    return false;
  }
  out = wrap(cached);
  return true;
}

void BddManager::isf_minimize_insert(const Bdd& on, const Bdd& dc,
                                     std::uint32_t tag, const Bdd& result) {
  if (on.manager() != this || dc.manager() != this ||
      result.manager() != this) {
    throw std::invalid_argument(
        "isf_minimize_insert: operands from a different manager");
  }
  // Re-derive the probe rather than hand it out through the lookup: it
  // keeps CacheProbe (and raw edges) out of the public interface.
  assert_owning_thread();
  cache_insert(make_probe(Op::IsfMinimize, on.raw_edge(), dc.raw_edge(), tag),
               result.raw_edge());
}

// ---------------------------------------------------------------------------
// Reference counting and garbage collection
// ---------------------------------------------------------------------------

void BddManager::ref_edge(Edge e) noexcept {
  assert_owning_thread();
  const std::uint32_t idx = edge_index(e);
  if (idx != 0 && refcount_[idx]++ == 0) {
    ++external_roots_;
  }
}

void BddManager::deref_edge(Edge e) noexcept {
  assert_owning_thread();
  const std::uint32_t idx = edge_index(e);
  if (idx != 0 && --refcount_[idx] == 0) {
    --external_roots_;
  }
}

void BddManager::garbage_collect() {
  assert_owning_thread();
  // Mark phase: every externally referenced node is a root.  The mark
  // buffer is a reusable stamp array: a node is marked in this run iff
  // its stamp equals gc_stamp_, so no per-run clearing or allocation.
  if (++gc_stamp_ == 0) {  // stamp wrapped: invalidate all old stamps once
    std::fill(gc_mark_.begin(), gc_mark_.end(), 0u);
    gc_stamp_ = 1;
  }
  gc_mark_.resize(nodes_.size(), 0u);
  const std::uint32_t stamp = gc_stamp_;
  gc_mark_[0] = stamp;
  gc_stack_.clear();
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    if (refcount_[i] > 0 && nodes_[i].var != kTerminalVar) {
      gc_stack_.push_back(i);
    }
  }
  while (!gc_stack_.empty()) {
    const std::uint32_t idx = gc_stack_.back();
    gc_stack_.pop_back();
    if (gc_mark_[idx] == stamp) {
      continue;
    }
    gc_mark_[idx] = stamp;
    const Node& n = nodes_[idx];
    const std::uint32_t hi_idx = edge_index(n.hi);
    const std::uint32_t lo_idx = edge_index(n.lo);
    if (gc_mark_[hi_idx] != stamp) {
      gc_stack_.push_back(hi_idx);
    }
    if (gc_mark_[lo_idx] != stamp) {
      gc_stack_.push_back(lo_idx);
    }
  }
  // Sweep phase: unmarked nodes go to the free list.
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    if (gc_mark_[i] != stamp && nodes_[i].var != kTerminalVar) {
      nodes_[i].var = kTerminalVar;  // tombstone
      nodes_[i].next = free_list_;
      free_list_ = i;
      ++free_count_;
    }
  }
  // The computed cache and unique tables reference dead nodes; rebuild.
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  rebuild_subtables();
  // Freed indices can be reallocated to different functions; their
  // cached canonical hashes must not survive that.
  chash_invalidate();
  stats_.live_nodes = live_nodes();
  ++stats_.gc_runs;
}

void BddManager::garbage_collect_if_needed(std::size_t dead_node_threshold) {
  // Constant time on the decline path: external_roots_ is maintained
  // incrementally on every 0<->1 refcount transition, so deciding "mostly
  // garbage?" is two comparisons — no scan.  (The pre-overhaul version
  // walked every refcount here, on every solver expansion step.)
  ++stats_.gc_checks;
  std::size_t live = live_nodes();
  bool collected = false;
  if (live >= dead_node_threshold && live > external_roots_ * 4) {
    garbage_collect();
    live = live_nodes();
    collected = true;
  }
  // Auto-reorder hook: a live count that stays high after collection is
  // genuine BDD growth, the signal that the order — not garbage — is the
  // problem.  A count over the threshold that was NOT just collected may
  // be mostly garbage (deserialization scaffolding right after a parse
  // sits far below the GC threshold above) — collect first and re-check,
  // so only genuine growth pays for a sifting pass.  The threshold
  // doubles from the post-sift size so a workload sifting cannot shrink
  // does not re-sift every check.
  if (auto_reorder_ && live >= reorder_threshold_) {
    if (!collected) {
      garbage_collect();
      live = live_nodes();
      collected = true;
    }
    if (live >= reorder_threshold_) {
      reorder_internal(reorder_max_growth_, collected);
      reorder_threshold_ =
          std::max(stats_.live_nodes * 2, reorder_first_threshold_);
    }
  }
}

void BddManager::set_auto_reorder(bool enabled, std::size_t first_trigger,
                                  double max_growth) {
  auto_reorder_ = enabled;
  reorder_first_threshold_ = std::max<std::size_t>(first_trigger, 16);
  reorder_threshold_ = reorder_first_threshold_;
  reorder_max_growth_ = max_growth;
}

// ---------------------------------------------------------------------------
// Cube / cover conversion
// ---------------------------------------------------------------------------

Bdd BddManager::cube_bdd(const Cube& cube,
                         std::span<const std::uint32_t> var_map) {
  if (var_map.size() != cube.num_vars()) {
    throw std::invalid_argument("cube_bdd: var_map size mismatch");
  }
  // Build bottom-up in descending LEVEL order so make_node sees ordered
  // children; collect (level, manager-var, phase) triples first.  The
  // mapped variables must be validated before the level lookup — an
  // unknown variable would read past level_of_var_.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> literals;
  for (std::size_t i = 0; i < cube.num_vars(); ++i) {
    const Lit lit = cube.lit(i);
    if (lit != Lit::DontCare) {
      if (var_map[i] >= num_vars_) {
        throw std::out_of_range("cube_bdd: unknown variable in var_map");
      }
      literals.emplace_back(level_of(var_map[i]), var_map[i],
                            lit == Lit::One);
    }
  }
  std::sort(literals.begin(), literals.end());
  Edge acc = kOne;
  for (auto it = literals.rbegin(); it != literals.rend(); ++it) {
    acc = std::get<2>(*it) ? make_node(std::get<1>(*it), acc, kZero)
                           : make_node(std::get<1>(*it), kZero, acc);
  }
  return wrap(acc);
}

Bdd BddManager::cover_bdd(const Cover& cover,
                          std::span<const std::uint32_t> var_map) {
  Bdd acc = zero();
  for (const Cube& cube : cover.cubes()) {
    acc = acc | cube_bdd(cube, var_map);
  }
  return acc;
}

Edge BddManager::vars_cube(std::span<const std::uint32_t> vars) {
  std::vector<std::uint32_t> sorted(vars.begin(), vars.end());
  for (const std::uint32_t v : sorted) {
    if (v >= num_vars_) {
      throw std::out_of_range("vars_cube: unknown variable");
    }
  }
  // Bottom-up by LEVEL (a reordered manager's cube must be ordered too).
  std::sort(sorted.begin(), sorted.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return level_of(a) < level_of(b);
            });
  Edge acc = kOne;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    acc = make_node(*it, acc, kZero);
  }
  return acc;
}

}  // namespace brel
