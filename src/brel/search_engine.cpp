// SearchEngine: the Fig. 6 driver loop, run by `num_workers` workers.
//
// The recursive solve tree is embarrassingly decomposable — every Split
// yields two independent subrelations — but the BDD substrate is not: a
// `BddManager` is strictly single-threaded.  Following the worker-local-
// state design of parallel Boolean synthesis (Akshay et al., TACAS 2017,
// PAPERS.md), every worker owns a manager plus a private frontier, and
// work moves between workers by value.  Ownership rules (DESIGN.md §1):
//
//   - with one worker, worker 0 runs inline on the calling thread, in the
//     caller's manager, on the caller's root relation: no thread, no
//     manager, no transfer;
//   - with N > 1, every worker owns a private manager with the caller's
//     variable layout; no edge, handle or relation of one manager is ever
//     touched by another worker's thread;
//   - subproblems cross worker boundaries only through the injection
//     queue, in the serialized transfer form (bdd_transfer.hpp);
//   - the only cross-thread state is the queue (mutex + condition
//     variable), a handful of atomics (incumbent bound, explored-node
//     budget, steal requests, stop flag) and the per-worker result slots,
//     which the coordinator reads after join.
//
// Scheduling is cooperative work *donation*: a worker that runs dry posts
// a steal request and blocks on the queue; workers with more than one
// pending subproblem serve requests between expansions by donating
// `Frontier::steal()` entries.  The shared atomic incumbent bound makes
// one worker's discoveries prune every other worker's subtrees.

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

/// The only cross-worker state (see the ownership rules above).
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
  /// its predicate check and its wait cannot miss the wake-up; a lone
  /// worker has no thief to wake and never takes the lock.
  void halt() {
    if (workers == 1) {
      stop.store(true);
      return;
    }
    const std::scoped_lock lock(mutex);
    stop.store(true);
    work_ready.notify_all();
  }
};

/// What every worker of one run reads and nothing writes.
struct RunSetup {
  const SolverOptions& options;
  std::chrono::steady_clock::time_point start;
  /// Rank tables of the root relation.  Every worker manager mirrors the
  /// caller's variable layout, so one space serves the whole fleet: it
  /// keys the memo and anchors the canonical equal-cost tie order
  /// (canonically_before), memo or not.
  std::shared_ptr<const MemoSpace> space;
  /// One stamp for the whole fleet: the fleet is one producing run.
  MemoRunStamp memo_stamp;
  /// An incremental base was found (delta_context.hpp): every worker
  /// classifies its expansions as reused or re-searched.
  bool delta_active = false;
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
  /// Rank form of `best`, when the worker already built it for a tie; the
  /// merge builds it only to break an exact cost tie between workers.
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
  if (shared.workers == 1) {
    return false;  // nobody else can donate: the tree is done
  }
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

/// One worker: Fig. 6 over a private frontier, plus the donation /
/// injection / shared-bound / global-budget hooks (all no-ops for a lone
/// worker).  `root` is the root relation in this worker's manager.
/// Worker 0 receives `root_item` — the root subproblem, already carrying
/// its memo handle and delta — and seeds the search (step 0); the other
/// workers start empty and immediately post steal requests.
void run_worker(const RunSetup& run, const BooleanRelation& root,
                std::optional<Subproblem> root_item, SharedState& shared,
                WorkerOutcome& out) {
  const SolverOptions& options = run.options;
  BddManager& mgr = root.manager();
  SearchContext ctx{mgr,
                    options,
                    options.cost ? options.cost : sum_of_bdd_sizes(),
                    run.start,
                    MultiFunction{},
                    std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(),
                    SolverStats{},
                    std::nullopt};
  if (options.use_symmetry) {
    ctx.symmetries.emplace(mgr, root.outputs());
  }
  ctx.tie_space = run.space.get();
  if (options.global_memo != nullptr) {
    // The memo itself is shared (thread-safe, plain-data entries).
    ctx.memo = options.global_memo.get();
    ctx.memo_space = run.space.get();
    // Shared ref: HASHED key handles keep the space alive.
    ctx.memo_space_ref = run.space;
    ctx.memo_stamp = run.memo_stamp;
  }
  ctx.delta_active = run.delta_active;
  ctx.stats.delta_active = run.delta_active;
  const std::unique_ptr<Frontier> frontier =
      make_frontier(options.order, options.fifo_capacity);

  // Dynamic reordering policy (SolverOptions::reorder, overridable via
  // BREL_REORDER): On sifts this manager once before exploration
  // (deterministic over equal stores, so all workers start in the same
  // order); Auto arms the GC-coupled trigger for the duration of the run
  // unless the manager is already armed.  The disarm guard runs on every
  // exit — a throwing cost function must not leave the caller's manager
  // (the lone worker's) permanently armed.  SolverStats::reorders reports
  // the sift passes this worker caused, whatever the trigger.
  const ReorderMode reorder_mode = resolve_reorder_mode(options.reorder);
  const std::uint64_t reorders_before = mgr.stats().reorders;
  const std::uint64_t swaps_before = mgr.stats().reorder_swaps;
  struct AutoReorderGuard {
    BddManager* mgr = nullptr;
    ~AutoReorderGuard() {
      if (mgr != nullptr) {
        mgr->set_auto_reorder(false);
      }
    }
  } disarm_guard;
  if (reorder_mode == ReorderMode::On) {
    mgr.reorder();
  } else if (reorder_mode == ReorderMode::Auto && !mgr.auto_reorder()) {
    mgr.set_auto_reorder(true, options.reorder_trigger);
    disarm_guard.mgr = &mgr;
  }

  if (root_item.has_value()) {
    // Step 0 (Sec. 7.2): QuickSolver guarantees at least one solution.
    // Its cost does NOT seed the branch-and-bound bound: Fig. 6 starts
    // the recursion with an infinite-cost BestF, and the quick fallbacks
    // serve only as a safety net.  (Seeding the bound with the quick cost
    // would prune the root whenever the MISF candidate merely ties it,
    // silencing the whole exploration.)  The root bypasses the symmetry
    // check (it seeds it) and the capacity bound.
    if (ctx.symmetries.has_value()) {
      (void)ctx.symmetries->seen_before_or_insert(root.characteristic());
    }
    if (ctx.memo != nullptr) {
      ctx.memo_touched.push_back({root_item->memo_chain.front(), 0});
    }
    // The root quick solution seeds the incumbent UNCONDITIONALLY: even a
    // cost function that maps it to +inf (or NaN) must leave a compatible
    // function in `best`, never an empty MultiFunction.
    MultiFunction quick = quick_solve(root, options.minimizer);
    ++ctx.stats.quick_solutions;
    ++ctx.stats.solutions_seen;
    const double quick_cost = ctx.cost(quick);
    if (ctx.memo != nullptr) {
      ctx.memo->publish(root_item->memo_chain.front(),
                        make_portable_solution(*ctx.memo_space, quick,
                                               quick_cost),
                        ctx.memo_stamp.run_id);
    }
    ctx.best_cost = quick_cost;
    ctx.best = std::move(quick);
    seed_priority(ctx, *root_item, *frontier);
    frontier->push_root(std::move(*root_item));
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
      // One global ticket per expansion, so N workers share the budget
      // instead of multiplying it.
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
  ctx.stats.reorder_swaps =
      static_cast<std::size_t>(mgr.stats().reorder_swaps - swaps_before);
  ctx.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run.start)
          .count();
  out.best = std::move(ctx.best);
  out.best_cost = ctx.best_cost;
  out.best_portable = std::move(ctx.best_portable);
  out.stats = ctx.stats;
  if (shared.workers > 1) {
    // Materialize every touched handle before it leaves this thread: the
    // coordinator reads shared_key() for the completeness marks, and a
    // still-HASHED handle (probe missed, nothing ever published under
    // it) can only be built where its manager lives — here.
    for (const SearchContext::MemoTouch& touch : ctx.memo_touched) {
      (void)touch.key->get();
    }
  }
  out.memo_touched = std::move(ctx.memo_touched);
  out.memo_hard_tainted = std::move(ctx.memo_hard_tainted);
  out.memo_soft_tainted = std::move(ctx.memo_soft_tainted);
}

/// N > 1 workers: give each a private manager with the caller's variable
/// layout and the root imported into it (direct transfer — every manager
/// is owned by this thread until the workers start), run them on their
/// own threads, and take the managers back after join so the merge (and
/// the outcome destructors) run on this thread legally.  `managers` must
/// outlive `outcomes`.  Exceptions thrown inside a worker stop the fleet
/// and are rethrown.  Returns the ns the run spent blocked on the memo /
/// injection locks (best effort: the registry is process-global).
std::uint64_t run_fleet(const RunSetup& run, const BooleanRelation& root,
                        const Bdd& root_delta, SharedState& shared,
                        std::vector<std::unique_ptr<BddManager>>& managers,
                        std::vector<WorkerOutcome>& outcomes) {
  const std::uint64_t lock_wait_before =
      total_lock_wait_ns({lock_names::kMemo, lock_names::kInject});
  const std::size_t count = outcomes.size();
  std::vector<std::optional<BooleanRelation>> roots;
  roots.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    managers.push_back(
        std::make_unique<BddManager>(root.manager().num_vars()));
    Bdd chi = managers[w]->import_bdd(root.characteristic());
    roots.emplace_back(BooleanRelation(*managers[w], root.inputs(),
                                       root.outputs(), std::move(chi)));
  }
  // Worker 0's root subproblem, in worker 0's manager: its own hash-only
  // memo handle (the caller's handle pins a Bdd of the caller's manager)
  // and the delta imported like the root itself.
  std::optional<Subproblem> root_item{std::in_place, *roots[0], 0};
  if (run.options.global_memo != nullptr) {
    root_item->memo_chain.push_back(
        make_memo_handle(run.space, roots[0]->characteristic()));
  }
  if (!root_delta.is_null()) {
    root_item->delta = managers[0]->import_bdd(root_delta);
  }

  std::vector<std::exception_ptr> failures(count);
  std::exception_ptr spawn_failure;
  std::vector<std::thread> threads;
  threads.reserve(count);
  try {
    for (std::size_t w = 0; w < count; ++w) {
      threads.emplace_back([&, w] {
        managers[w]->bind_to_current_thread();
        try {
          run_worker(run, *roots[w],
                     w == 0 ? std::move(root_item) : std::nullopt, shared,
                     outcomes[w]);
        } catch (...) {
          failures[w] = std::current_exception();
          shared.halt();
        }
      });
    }
  } catch (...) {
    spawn_failure = std::current_exception();
    shared.halt();  // stop whoever already started
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // The join established happens-before.
  for (const std::unique_ptr<BddManager>& mgr : managers) {
    mgr->bind_to_current_thread();
  }
  if (spawn_failure) {
    std::rethrow_exception(spawn_failure);
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure) {
      std::rethrow_exception(failure);
    }
  }
  return total_lock_wait_ns({lock_names::kMemo, lock_names::kInject}) -
         lock_wait_before;
}

}  // namespace

std::size_t resolve_worker_count(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

SearchEngine::SearchEngine(const BooleanRelation& root,
                           const SolverOptions& options)
    : root_(root),
      options_(options),
      workers_(resolve_worker_count(options.num_workers)) {
  if (!root_.is_well_defined()) {
    throw std::invalid_argument("BrelSolver: relation is not well defined");
  }
  if (options_.global_memo != nullptr) {
    // Fail fast on a comparability mismatch before any work starts.
    options_.global_memo->bind(MemoFingerprint{
        (options_.cost ? options_.cost : sum_of_bdd_sizes()).id(),
        options_.exact});
  }
}

SolveResult SearchEngine::run() {
  const auto start = std::chrono::steady_clock::now();
  BddManager& root_mgr = root_.manager();
  GlobalMemo* const memo = options_.global_memo.get();
  // The rank space is built unconditionally: besides keying the memo it
  // anchors the canonical equal-cost tie order, which must be identical
  // between memo-less and memo-backed runs of the same relation.  No
  // KEYS (and no hashes) are ever built on memo-less runs, though — the
  // rank tables are the only canonical-form work they pay for.
  const std::shared_ptr<const MemoSpace> space =
      std::make_shared<const MemoSpace>(make_memo_space(root_));

  // Warm-memo fast path, before any sift, manager or thread: a warm
  // re-solve of an identical relation (same canonical form and spaces)
  // returns the memoized best immediately — first-run quality at zero
  // exploration.  On a miss the root key seeds every descendant's
  // publish chain, so by the end of this run the memo's root entry
  // equals the returned incumbent.
  MemoKeyHandle root_key;
  if (memo != nullptr) {
    root_key = make_memo_handle(space, root_.characteristic());
    if (const std::optional<PortableSolution> entry = memo->lookup(root_key)) {
      if (options_.delta_registry != nullptr) {
        // A served root is as good as a drained one for the next diff:
        // its interior entries are whatever its producing run marked.
        // The hit verified the handle, so get() is already built.
        options_.delta_registry->remember(root_key->get());
      }
      SolveResult result;
      result.function = import_portable_solution(root_mgr, *space, *entry);
      result.cost = entry->cost;
      result.stats.memo_hits = 1;
      result.stats.solutions_seen = 1;
      result.stats.workers = workers_;
      result.stats.runtime_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      return result;
    }
  }

  // Incremental delta (delta_context.hpp): on a root miss, diff against
  // the registry's most recent base over the same variable spaces while
  // both BDDs live in the caller's manager (the registry belongs to the
  // calling thread), and carry the change region down the decomposition.
  // Purely an overlay — reuse itself happens through the ordinary memo
  // probes.  The base probe goes through the rank lists, so learning
  // whether a base exists does not materialize the hash-only root key.
  Bdd root_delta;
  if (options_.delta_registry != nullptr && memo != nullptr) {
    if (const SerializedBdd* base = options_.delta_registry->find_base(
            space->input_ranks, space->output_ranks)) {
      root_delta = root_.characteristic() ^
                   import_canonical_bdd(root_mgr, *space, *base);
    }
  }

  const RunSetup setup{options_, start, space,
                       memo != nullptr ? memo->begin_run() : MemoRunStamp{},
                       !root_delta.is_null()};
  SharedState shared(workers_);
  std::vector<std::unique_ptr<BddManager>> managers;  // outlives outcomes
  std::vector<WorkerOutcome> outcomes(workers_);
  std::uint64_t lock_wait_ns = 0;
  if (workers_ == 1) {
    Subproblem root_item{root_, 0};
    if (memo != nullptr) {
      root_item.memo_chain.push_back(root_key);
    }
    root_item.delta = root_delta;
    run_worker(setup, root_, std::move(root_item), shared, outcomes[0]);
  } else {
    lock_wait_ns =
        run_fleet(setup, root_, root_delta, shared, managers, outcomes);
  }

  // Merge.  NaN-safe: a NaN cost never displaces an earlier incumbent,
  // and the first non-empty one (worker 0's unconditional quick seed)
  // always enters, so even a pathological cost function yields a
  // compatible function.  Equal-cost ties resolve through the canonical
  // order, not worker index: which worker happened to find a tied
  // function is scheduling noise.
  const auto rank_form = [&](WorkerOutcome& o) -> const PortableSolution& {
    if (!o.best_portable.has_value()) {
      o.best_portable = make_portable_solution(*space, o.best, o.best_cost);
    }
    return *o.best_portable;
  };
  SolveResult result;
  result.worker_stats.reserve(workers_);
  std::size_t winner = workers_;  // index of the cheapest non-empty incumbent
  for (std::size_t w = 0; w < workers_; ++w) {
    WorkerOutcome& outcome = outcomes[w];
    result.worker_stats.push_back(outcome.stats);
    accumulate_stats(result.stats, outcome.stats);
    if (outcome.best.outputs.empty()) {
      continue;
    }
    if (winner == workers_ || outcome.best_cost < outcomes[winner].best_cost ||
        (outcome.best_cost == outcomes[winner].best_cost &&
         canonically_before(rank_form(outcome), rank_form(outcomes[winner])))) {
      winner = w;
    }
  }
  if (winner == workers_) {
    throw std::logic_error("SearchEngine: no worker produced a solution");
  }
  result.stats.workers = workers_;
  result.stats.steals = shared.steals.load();
  result.stats.steal_batches = shared.steal_batches.load();
  result.stats.lock_wait_ns = lock_wait_ns;
  result.stats.budget_exhausted =
      result.stats.budget_exhausted || shared.budget_exhausted.load();

  // Depth-indexed completeness marking (see global_memo.hpp).  An
  // interrupted run (budget/timeout stop) marks nothing — a later
  // identical solve must re-explore rather than inherit the degraded
  // result forever.  A drained run marks per subtree: untainted keys
  // naturally complete at their depth, depth-cap-truncated keys
  // truncated at theirs, hard-tainted keys not at all — except the root,
  // which is exactly what this solve returned and is marked
  // truncated-at-0 unless children were dropped to frontier overflow
  // (make_memo_marks).  Taints are fleet-global — a bound prune in
  // worker A invalidates a chain that may continue in worker B's stolen
  // work — so the workers' lists are unioned into worker 0's first.  Key
  // identity survives migration: chains travel through the injection
  // queue as shared_ptr copies, never re-serialized, so one canonical
  // key stays one object fleet-wide.
  if (memo != nullptr && !result.stats.budget_exhausted) {
    WorkerOutcome& fleet = outcomes.front();
    for (std::size_t w = 1; w < workers_; ++w) {
      WorkerOutcome& outcome = outcomes[w];
      fleet.memo_touched.insert(
          fleet.memo_touched.end(),
          std::make_move_iterator(outcome.memo_touched.begin()),
          std::make_move_iterator(outcome.memo_touched.end()));
      fleet.memo_hard_tainted.insert(outcome.memo_hard_tainted.begin(),
                                     outcome.memo_hard_tainted.end());
      fleet.memo_soft_tainted.insert(outcome.memo_soft_tainted.begin(),
                                     outcome.memo_soft_tainted.end());
    }
    if (!fleet.memo_touched.empty()) {
      // memo_touched.front() is worker 0's root key (pushed before any
      // child anywhere — the other workers start empty).
      const std::vector<MemoMark> marks = make_memo_marks(
          fleet.memo_touched, fleet.memo_hard_tainted,
          fleet.memo_soft_tainted,
          options_.max_depth == static_cast<std::size_t>(-1),
          fleet.memo_touched.front().key.get(),
          result.stats.fifo_overflow == 0);
      memo->mark_complete(std::span<const MemoMark>(marks),
                          setup.memo_stamp);
      if (options_.delta_registry != nullptr &&
          result.stats.fifo_overflow == 0) {
        // The root entry is now marked: this run's relation becomes the
        // freshest base for the next nearly-identical request.  The
        // caller's root handle materializes here at the latest (this
        // thread owns the caller's manager, so the build is legal).
        options_.delta_registry->remember(root_key->get());
      }
    }
  }

  // The lone worker's incumbent already lives in the caller's manager;
  // a fleet's winner is transferred back into it.
  WorkerOutcome& best = outcomes[winner];
  result.cost = best.best_cost;
  if (workers_ == 1) {
    result.function = std::move(best.best);
  } else {
    result.function.outputs.reserve(best.best.outputs.size());
    for (const Bdd& g : best.best.outputs) {
      result.function.outputs.push_back(root_mgr.import_bdd(g));
    }
  }
  result.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace brel
