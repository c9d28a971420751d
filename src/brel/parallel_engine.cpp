#include "brel/parallel_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bdd/bdd_transfer.hpp"
#include "brel/lock_stats.hpp"
#include "brel/quick_solver.hpp"
#include "brel/search.hpp"

namespace brel {

namespace {

/// A subproblem in flight between two managers: plain data, no handles,
/// safe to hand across threads (see bdd_transfer.hpp).  The push-time
/// best-first candidate does not travel — the thief re-seeds the
/// priority.  The global-memo key chain DOES travel: dropping it would
/// detach the stolen subtree's discoveries from its ancestors' memo
/// entries (a warm re-solve at the root would then return a worse cost
/// than the run that warmed it whenever the best solution was found in
/// stolen work).
/// Chain handles are lazy (LazyMemoKey) and a HASHED handle pins a Bdd
/// of the VICTIM's manager, so donate_work materializes every handle on
/// the victim's thread before serializing the batch — what crosses the
/// queue is plain data again, and the queue mutex is the barrier.
struct InjectedSubproblem {
  SerializedBdd chi;
  std::size_t depth = 0;
  std::vector<MemoKeyHandle> memo_chain;
  /// Incremental-delta cofactor (delta_context.hpp), present iff the
  /// victim was tracking a delta; it migrates with the subtree so the
  /// thief keeps classifying (and short-circuiting) exactly as the
  /// victim would have.
  std::optional<SerializedBdd> delta;
};

/// One donation: up to SolverOptions::steal_batch subproblems serialized
/// together, so a steal pays the transfer round trip once per SUBTREE
/// BATCH instead of once per node.
using InjectedBatch = std::vector<InjectedSubproblem>;

/// The only cross-worker state (see the ownership rules in the header).
struct SharedState {
  explicit SharedState(std::size_t worker_count) : workers(worker_count) {}

  const std::size_t workers;

  TimedMutex mutex{lock_names::kInject};  ///< guards queue / idle / done
  std::condition_variable_any work_ready;
  std::deque<InjectedBatch> queue;  ///< the injection queue (of batches)
  std::size_t idle = 0;             ///< workers blocked on the queue
  bool done = false;                ///< all idle and nothing queued

  /// Mirror of queue.size(), readable without the lock: victims size
  /// their donations against it so the build happens OUTSIDE the lock.
  std::atomic<std::size_t> queued_batches{0};

  std::atomic<std::size_t> steal_requests{0};  ///< waiting thieves
  std::atomic<std::size_t> steals{0};          ///< subproblems donated
  std::atomic<std::size_t> steal_batches{0};   ///< donation batches
  std::atomic<std::size_t> explored{0};        ///< global budget tickets
  std::atomic<bool> stop{false};               ///< budget/timeout/failure
  std::atomic<bool> budget_exhausted{false};
  /// Incumbent *bound* (best explored-candidate cost anywhere): one
  /// worker's discovery prunes every other worker's subtrees.  Costs
  /// only — the winning function stays in its worker's manager until the
  /// coordinator merges after join.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};

  /// Stop the fleet.  The flag is set under the mutex so a thief between
  /// its predicate check and its wait cannot miss the wake-up.
  void halt() {
    const std::scoped_lock lock(mutex);
    stop.store(true);
    work_ready.notify_all();
  }
};

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

/// Result slot filled by a worker before it exits; `best` lives in the
/// worker's manager and is read by the coordinator only after join (and
/// after re-binding the manager to the coordinating thread).
struct WorkerOutcome {
  MultiFunction best;
  double best_cost = std::numeric_limits<double>::infinity();
  /// Rank form of `best` (workers mirror the coordinator's layout, so
  /// forms are comparable fleet-wide): the coordinator breaks equal-cost
  /// merge ties with canonically_before instead of worker index, which
  /// would leak the schedule into the returned function.
  std::optional<PortableSolution> best_portable;
  SolverStats stats;
  /// Memo keys this worker's expansions created, with their depths, plus
  /// the worker's taint sets (plain data; the taint pointers stay alive
  /// through the shared_ptrs in the touched lists).  Whether the fleet
  /// drained naturally is only known after join, so the coordinator —
  /// not the worker — turns the fleet-wide union into completeness
  /// marks.
  std::vector<SearchContext::MemoTouch> memo_touched;
  std::unordered_set<const LazyMemoKey*> memo_hard_tainted;
  std::unordered_set<const LazyMemoKey*> memo_soft_tainted;
};

/// Serve pending steal requests from this worker's surplus: donate one
/// BATCH of up to `batch_limit` Frontier::steal() picks per waiting thief
/// not already covered by a queued batch, always keeping at least one
/// subproblem for ourselves.  The batch is serialized OUTSIDE the queue
/// lock — serialization only reads the victim's private frontier and
/// manager — so the critical section is reduced to deque pointer swaps.
/// Over-donation (a thief that found work elsewhere meanwhile) is safe:
/// surplus batches drain to the next idle worker.
void donate_work(SharedState& shared, Frontier& frontier, BddManager& mgr,
                 std::size_t batch_limit) {
  const std::size_t waiting = shared.steal_requests.load();
  if (waiting == 0 || frontier.size() <= 1) {
    return;
  }
  const std::size_t queued = shared.queued_batches.load();
  if (waiting <= queued) {
    return;
  }
  std::size_t need = waiting - queued;

  std::vector<InjectedBatch> batches;
  std::vector<Subproblem> picks;
  std::size_t donated_items = 0;
  while (need-- > 0 && frontier.size() > 1) {
    const std::size_t take = std::min(batch_limit, frontier.size() - 1);
    picks.clear();
    frontier.steal_into(picks, take);
    InjectedBatch batch;
    batch.reserve(picks.size());
    for (Subproblem& victim : picks) {
      // Materialize every chain handle HERE, on the victim's thread: a
      // HASHED handle pins a Bdd of this manager, which must not cross
      // to the thief (see LazyMemoKey's thread contract).  Once
      // materialized the handle is immutable plain data.
      for (const MemoKeyHandle& key : victim.memo_chain) {
        (void)key->get();
      }
      std::optional<SerializedBdd> delta;
      if (!victim.delta.is_null()) {
        delta = mgr.serialize_bdd(victim.delta);
      }
      batch.push_back(InjectedSubproblem{
          mgr.serialize_bdd(victim.rel.characteristic()), victim.depth,
          std::move(victim.memo_chain), std::move(delta)});
    }
    donated_items += batch.size();
    batches.push_back(std::move(batch));
  }
  if (batches.empty()) {
    return;
  }
  {
    const std::scoped_lock lock(shared.mutex);
    for (InjectedBatch& batch : batches) {
      shared.queue.push_back(std::move(batch));
    }
    shared.queued_batches.store(shared.queue.size());
  }
  shared.steals.fetch_add(donated_items);
  shared.steal_batches.fetch_add(batches.size());
  shared.work_ready.notify_all();
}

/// Idle path: take one injected BATCH (materializing every subproblem in
/// OUR manager) or detect global termination.  Returns false when the
/// worker should exit (all workers idle with an empty queue, stop flag,
/// or deadline).
bool acquire_injected(SearchContext& ctx, SharedState& shared,
                      Frontier& frontier, const BooleanRelation& root) {
  std::unique_lock<TimedMutex> lock(shared.mutex);
  if (shared.done || shared.stop.load()) {
    return false;
  }
  if (shared.queue.empty()) {
    ++shared.idle;
    shared.steal_requests.fetch_add(1);
    if (shared.idle == shared.workers && shared.queue.empty()) {
      // Nobody holds local work and nothing is queued: the tree is done.
      shared.done = true;
      shared.steal_requests.fetch_sub(1);
      shared.work_ready.notify_all();
      return false;
    }
    while (shared.queue.empty() && !shared.done && !shared.stop.load()) {
      if (ctx.timed_out()) {  // waiting workers also watch the deadline
        shared.stop.store(true);
        shared.budget_exhausted.store(true);
        ctx.stats.budget_exhausted = true;
        shared.work_ready.notify_all();
        break;
      }
      // Timed wait: a missed notify can only cost one period, never a
      // hang, and gives blocked workers a deadline heartbeat.
      shared.work_ready.wait_for(lock, std::chrono::milliseconds(20));
    }
    shared.steal_requests.fetch_sub(1);
    if (shared.done || shared.stop.load()) {
      return false;  // idle stays counted: the run is over
    }
    --shared.idle;
  }
  InjectedBatch batch = std::move(shared.queue.front());
  shared.queue.pop_front();
  shared.queued_batches.store(shared.queue.size());
  lock.unlock();

  // Materialize the whole batch locally — deserialization happens in OUR
  // manager, outside any shared lock.
  for (InjectedSubproblem& item : batch) {
    Bdd chi = ctx.mgr.deserialize_bdd(item.chi);
    Subproblem sub{BooleanRelation(ctx.mgr, root.inputs(), root.outputs(),
                                   std::move(chi)),
                   item.depth};
    // The global-memo chain travels with the work (it is plain data and
    // already ends with this node's own key): the stolen subtree keeps
    // publishing for its true ancestors, root included.  No probe here —
    // the victim already published this child's quick solution when it
    // generated the node, so a probe would "hit" our own fleet's pending
    // work and silently drop the stolen subtree.
    sub.memo_chain = std::move(item.memo_chain);
    if (item.delta.has_value()) {
      sub.delta = ctx.mgr.deserialize_bdd(*item.delta);
    }
    seed_priority(ctx, sub, frontier);
    frontier.push_root(std::move(sub));  // stolen work is never dropped
  }
  return true;
}

/// One worker: the serial engine's loop (same step-0 seeding on worker 0,
/// same expansion order within the local frontier) plus the donation /
/// injection / shared-bound / global-budget hooks.
/// `root_delta` is the root's serialized XOR change region when the
/// coordinator armed incremental mode (delta_context.hpp), null
/// otherwise; worker 0 materializes it onto the root subproblem, every
/// worker classifies while it is armed (stolen work carries its own
/// delta cofactor through the injection queue).
void run_worker(std::size_t worker_id, BddManager& mgr,
                const BooleanRelation& root, const SolverOptions& options,
                std::chrono::steady_clock::time_point start,
                const MemoRunStamp& memo_stamp,
                const SerializedBdd* root_delta, SharedState& shared,
                WorkerOutcome& out) {
  SearchContext ctx{mgr,
                    options,
                    options.cost ? options.cost : sum_of_bdd_sizes(),
                    start,
                    MultiFunction{},
                    std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(),
                    SolverStats{},
                    std::nullopt};
  if (options.use_symmetry) {
    ctx.symmetries.emplace(mgr, root.outputs());
  }
  // The rank tables are per-worker because they reference this worker's
  // manager variables; all workers mirror the coordinator's variable
  // layout, so every worker produces identical canonical forms.  Built
  // even without a memo: the space anchors the canonical equal-cost tie
  // order (canonically_before) for the incumbent and the merge.
  const std::shared_ptr<const MemoSpace> memo_space =
      std::make_shared<const MemoSpace>(make_memo_space(root));
  ctx.tie_space = memo_space.get();
  if (options.global_memo != nullptr) {
    // The memo itself is shared (thread-safe, plain-data entries).
    ctx.memo = options.global_memo.get();
    ctx.memo_space = memo_space.get();
    // Shared ref: HASHED key handles keep this worker's space alive.
    ctx.memo_space_ref = memo_space;
    // One stamp for the whole fleet: the fleet is one producing run.
    ctx.memo_stamp = memo_stamp;
  }
  if (root_delta != nullptr) {
    ctx.delta_active = true;
    ctx.stats.delta_active = true;
  }
  const std::unique_ptr<Frontier> frontier =
      make_frontier(options.order, options.fifo_capacity);

  // Reordering policy, per worker manager (each is private and fresh, so
  // no restore is needed): On sifts the imported root now; Auto arms the
  // GC-coupled trigger.  Sifting is deterministic over equal stores, so
  // all workers start in the same order.
  const ReorderMode reorder_mode = resolve_reorder_mode(options.reorder);
  const std::uint64_t reorders_before = mgr.stats().reorders;
  if (reorder_mode == ReorderMode::On) {
    mgr.reorder();
  } else if (reorder_mode == ReorderMode::Auto) {
    mgr.set_auto_reorder(true);
  }

  if (worker_id == 0) {
    // Step 0, exactly like SearchEngine::run(): the root subproblem and
    // the unconditional QuickSolver incumbent seed live on worker 0; the
    // other workers start empty and immediately post steal requests.
    if (ctx.symmetries.has_value()) {
      (void)ctx.symmetries->seen_before_or_insert(root.characteristic());
    }
    Subproblem root_item{root, 0};
    if (ctx.memo != nullptr) {
      // The coordinator already probed the memo before spawning the
      // fleet (a root hit never starts threads), so worker 0 only seeds
      // the publish chain here — a hash-only handle, like any child key.
      root_item.memo_chain.push_back(
          make_memo_handle(ctx.memo_space_ref, root.characteristic()));
      ctx.memo_touched.push_back({root_item.memo_chain.back(), 0});
    }
    if (root_delta != nullptr) {
      root_item.delta = mgr.deserialize_bdd(*root_delta);
    }
    MultiFunction quick = quick_solve(root, options.minimizer);
    ++ctx.stats.quick_solutions;
    ++ctx.stats.solutions_seen;
    const double quick_cost = ctx.cost(quick);
    if (ctx.memo != nullptr) {
      ctx.memo->publish(root_item.memo_chain.front(),
                        make_portable_solution(*ctx.memo_space, quick,
                                               quick_cost),
                        ctx.memo_stamp.run_id);
    }
    ctx.best_cost = quick_cost;
    ctx.best = std::move(quick);
    seed_priority(ctx, root_item, *frontier);
    frontier->push_root(std::move(root_item));
  }

  while (true) {
    if (shared.stop.load()) {
      break;
    }
    if (ctx.timed_out()) {
      shared.budget_exhausted.store(true);
      ctx.stats.budget_exhausted = true;
      shared.halt();
      break;
    }
    if (frontier->empty()) {
      if (!acquire_injected(ctx, shared, *frontier, root)) {
        break;
      }
      continue;
    }
    donate_work(shared, *frontier, mgr,
                std::max<std::size_t>(1, options.steal_batch));
    if (!options.exact) {
      // One global ticket per expansion, so N workers share the serial
      // budget instead of multiplying it.
      const std::size_t ticket = shared.explored.fetch_add(1);
      if (ticket >= options.max_relations) {
        shared.explored.fetch_sub(1);
        shared.budget_exhausted.store(true);
        ctx.stats.budget_exhausted = true;
        shared.halt();
        break;
      }
    }
    mgr.garbage_collect_if_needed();
    // Import the fleet-wide bound, expand, publish what we learned.
    const double fleet_bound = shared.bound.load(std::memory_order_relaxed);
    if (fleet_bound < ctx.bound_cost) {
      ctx.bound_cost = fleet_bound;
    }
    expand_subproblem(ctx, frontier->pop(), *frontier);
    atomic_min(shared.bound, ctx.bound_cost);
  }

  ctx.stats.reorders =
      static_cast<std::size_t>(mgr.stats().reorders - reorders_before);
  ctx.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.best = std::move(ctx.best);
  out.best_cost = ctx.best_cost;
  if (!out.best.outputs.empty()) {
    out.best_portable =
        ctx.best_portable.has_value()
            ? std::move(ctx.best_portable)
            : std::optional<PortableSolution>(make_portable_solution(
                  *memo_space, out.best, out.best_cost));
  }
  out.stats = ctx.stats;
  // Materialize every touched handle before it leaves this thread: the
  // coordinator reads shared_key() for the completeness marks, and a
  // still-HASHED handle (probe missed, nothing ever published under it)
  // can only be built where its manager lives — here.
  for (const SearchContext::MemoTouch& touch : ctx.memo_touched) {
    (void)touch.key->get();
  }
  out.memo_touched = std::move(ctx.memo_touched);
  out.memo_hard_tainted = std::move(ctx.memo_hard_tainted);
  out.memo_soft_tainted = std::move(ctx.memo_soft_tainted);
}

/// Counter-wise sum of two stats records (the flags merge by OR).
void accumulate_stats(SolverStats& into, const SolverStats& from) {
  into.relations_explored += from.relations_explored;
  into.splits += from.splits;
  into.quick_solutions += from.quick_solutions;
  into.misf_minimizations += from.misf_minimizations;
  into.conflicts += from.conflicts;
  into.pruned_by_cost += from.pruned_by_cost;
  into.pruned_by_symmetry += from.pruned_by_symmetry;
  into.memo_hits += from.memo_hits;
  into.fifo_overflow += from.fifo_overflow;
  into.depth_limited += from.depth_limited;
  into.solutions_seen += from.solutions_seen;
  into.steal_batches += from.steal_batches;
  into.reorders += from.reorders;
  into.delta_active = into.delta_active || from.delta_active;
  into.delta_reused += from.delta_reused;
  into.delta_researched += from.delta_researched;
  into.lock_wait_ns += from.lock_wait_ns;
  into.budget_exhausted = into.budget_exhausted || from.budget_exhausted;
}

}  // namespace

std::size_t resolve_worker_count(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ParallelEngine::ParallelEngine(const BooleanRelation& root,
                               const SolverOptions& options)
    : root_(root),
      options_(options),
      workers_(resolve_worker_count(options.num_workers)) {
  if (!root_.is_well_defined()) {
    throw std::invalid_argument("BrelSolver: relation is not well defined");
  }
  if (options_.global_memo != nullptr) {
    // The manager-independent memo CAN serve per-worker managers; fail
    // fast on a comparability mismatch before any thread starts.
    options_.global_memo->bind(MemoFingerprint{
        (options_.cost ? options_.cost : sum_of_bdd_sizes()).id(),
        options_.exact});
  }
}

SolveResult ParallelEngine::run() {
  const auto start = std::chrono::steady_clock::now();
  // Best-effort attribution (the registry is process-global): waits that
  // accrue on the memo/injection locks between here and join.
  const std::uint64_t lock_wait_before =
      total_lock_wait_ns({lock_names::kMemo, lock_names::kInject});
  BddManager& root_mgr = root_.manager();
  const std::size_t count = workers_;

  // Warm-memo fast path: probe the cross-solve memo with the root's
  // canonical key before paying for managers and threads.  A hit is the
  // memoized best of an identical earlier solve — return it directly.
  // The space and key outlive the probe: the incremental overlay below
  // and the end-of-run base registration reuse them.
  std::shared_ptr<const MemoSpace> memo_space;
  MemoKeyHandle root_key;
  if (options_.global_memo != nullptr) {
    memo_space = std::make_shared<const MemoSpace>(make_memo_space(root_));
    root_key = make_memo_handle(memo_space, root_.characteristic());
    if (const std::optional<PortableSolution> entry =
            options_.global_memo->lookup(root_key)) {
      if (options_.delta_registry != nullptr) {
        // A served root is as good as a drained one for the next diff.
        options_.delta_registry->remember(root_key->get());
      }
      SolveResult result;
      result.function =
          import_portable_solution(root_mgr, *memo_space, *entry);
      result.cost = entry->cost;
      result.stats.memo_hits = 1;
      result.stats.solutions_seen = 1;
      result.stats.workers = count;
      result.stats.runtime_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      return result;
    }
  }

  // Incremental delta (delta_context.hpp): on a root miss, diff against
  // the registry's most recent base while both BDDs live in the
  // caller's manager (the registry belongs to the calling thread), then
  // ship the change region to the fleet in serialized form — worker 0
  // materializes it onto the root, donations carry the per-subtree
  // cofactors from there.
  std::optional<SerializedBdd> root_delta;
  if (options_.delta_registry != nullptr && memo_space != nullptr) {
    // Rank-list overlay probe: a miss must not force the root key to
    // materialize (that would serialize on the cold path the lazy keys
    // exist to keep serialization-free).
    if (const SerializedBdd* base = options_.delta_registry->find_base(
            memo_space->input_ranks, memo_space->output_ranks)) {
      const Bdd base_chi =
          import_canonical_bdd(root_mgr, *memo_space, *base);
      root_delta =
          root_mgr.serialize_bdd(root_.characteristic() ^ base_chi);
    }
  }

  // Per-worker substrate, prepared on the coordinating thread: a private
  // manager with the same variable order, and the root relation imported
  // into it (direct transfer — both managers are owned by this thread
  // until the workers start).
  std::vector<std::unique_ptr<BddManager>> managers;
  std::vector<std::optional<BooleanRelation>> roots;
  managers.reserve(count);
  roots.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    managers.push_back(std::make_unique<BddManager>(root_mgr.num_vars()));
    Bdd chi = managers[w]->import_bdd(root_.characteristic());
    roots.emplace_back(BooleanRelation(*managers[w], root_.inputs(),
                                       root_.outputs(), std::move(chi)));
  }

  const MemoRunStamp memo_stamp = options_.global_memo != nullptr
                                      ? options_.global_memo->begin_run()
                                      : MemoRunStamp{};
  SharedState shared(count);
  std::vector<WorkerOutcome> outcomes(count);
  std::vector<std::exception_ptr> failures(count);

  std::vector<std::thread> threads;
  threads.reserve(count);
  try {
    for (std::size_t w = 0; w < count; ++w) {
      threads.emplace_back([&, w] {
        managers[w]->bind_to_current_thread();
        try {
          run_worker(w, *managers[w], *roots[w], options_, start,
                     memo_stamp, root_delta ? &*root_delta : nullptr,
                     shared, outcomes[w]);
        } catch (...) {
          failures[w] = std::current_exception();
          shared.halt();
        }
      });
    }
  } catch (...) {
    shared.halt();  // thread-spawn failure: stop whoever already started
    for (std::thread& t : threads) {
      t.join();
    }
    throw;
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // The join established happens-before; take the managers back so the
  // merge (and the outcome destructors) run on this thread legally.
  for (const std::unique_ptr<BddManager>& mgr : managers) {
    mgr->bind_to_current_thread();
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure) {
      std::rethrow_exception(failure);
    }
  }

  SolveResult result;
  result.worker_stats.reserve(count);
  std::size_t winner = count;  // index of the cheapest non-empty incumbent
  for (std::size_t w = 0; w < count; ++w) {
    const WorkerOutcome& outcome = outcomes[w];
    result.worker_stats.push_back(outcome.stats);
    accumulate_stats(result.stats, outcome.stats);
    if (outcome.best.outputs.empty()) {
      continue;
    }
    // NaN-safe: a NaN cost never displaces an earlier incumbent, and the
    // first non-empty one (worker 0's unconditional quick seed) always
    // enters, so even a pathological cost function yields a compatible
    // function — same contract as the serial engine.  Equal-cost ties
    // resolve through the canonical order, not worker index: which
    // worker happened to find a tied function is scheduling noise.
    if (winner == count || outcome.best_cost < outcomes[winner].best_cost ||
        (outcome.best_cost == outcomes[winner].best_cost &&
         outcome.best_portable.has_value() &&
         outcomes[winner].best_portable.has_value() &&
         canonically_before(*outcome.best_portable,
                            *outcomes[winner].best_portable))) {
      winner = w;
    }
  }
  if (winner == count) {
    throw std::logic_error("ParallelEngine: no worker produced a solution");
  }
  result.stats.workers = count;
  result.stats.steals = shared.steals.load();
  result.stats.steal_batches = shared.steal_batches.load();
  result.stats.lock_wait_ns =
      total_lock_wait_ns({lock_names::kMemo, lock_names::kInject}) -
      lock_wait_before;
  result.stats.budget_exhausted =
      result.stats.budget_exhausted || shared.budget_exhausted.load();
  result.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Depth-indexed completeness marking, mirroring SearchEngine::run (the
  // per-worker key lists only become safe to publish once the fleet-wide
  // outcome is known).  Taints are fleet-global — a bound prune in
  // worker A invalidates a chain that may continue in worker B's stolen
  // work — so the per-worker touched lists and taint sets are unioned
  // before make_memo_marks.  Key identity survives migration: chains
  // travel through the injection queue as shared_ptr copies, never
  // re-serialized, so one canonical key stays one object fleet-wide.
  if (options_.global_memo != nullptr && !result.stats.budget_exhausted) {
    std::vector<SearchContext::MemoTouch> touched;
    std::unordered_set<const LazyMemoKey*> hard_tainted;
    std::unordered_set<const LazyMemoKey*> soft_tainted;
    for (WorkerOutcome& outcome : outcomes) {
      touched.insert(touched.end(),
                     std::make_move_iterator(outcome.memo_touched.begin()),
                     std::make_move_iterator(outcome.memo_touched.end()));
      hard_tainted.insert(outcome.memo_hard_tainted.begin(),
                          outcome.memo_hard_tainted.end());
      soft_tainted.insert(outcome.memo_soft_tainted.begin(),
                          outcome.memo_soft_tainted.end());
    }
    if (!touched.empty()) {
      // touched.front() is worker 0's root key (pushed before any child
      // anywhere — the other workers start empty).
      const std::vector<MemoMark> marks = make_memo_marks(
          touched, hard_tainted, soft_tainted,
          options_.max_depth == static_cast<std::size_t>(-1),
          touched.front().key.get(), result.stats.fifo_overflow == 0);
      options_.global_memo->mark_complete(std::span<const MemoMark>(marks),
                                          memo_stamp);
      if (options_.delta_registry != nullptr &&
          result.stats.fifo_overflow == 0) {
        // The root entry is now marked: this run's relation becomes the
        // freshest base for the next nearly-identical request.  The
        // coordinator's handle materializes here at the latest (this
        // thread owns the root manager, so the build is legal).
        options_.delta_registry->remember(root_key->get());
      }
    }
  }

  // Transfer the winning solution back into the caller's manager.
  const WorkerOutcome& best = outcomes[winner];
  result.cost = best.best_cost;
  result.function.outputs.reserve(best.best.outputs.size());
  for (const Bdd& g : best.best.outputs) {
    result.function.outputs.push_back(root_mgr.import_bdd(g));
  }
  return result;
}

}  // namespace brel
