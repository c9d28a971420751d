#pragma once
/// \file global_memo.hpp
/// Tier 0 of the tiered memo store: the sharded in-memory cross-solve
/// memo, keyed by the *manager-independent* serialized BDD form
/// (memo_backend.hpp holds the canonical forms and the tier interface).
///
/// The memo is the engines' one channel of subtree reuse ACROSS solves.
/// Within one solve it can never hit: Split partitions IF(R) (the
/// paper's Property 5.4), so no two nodes of one tree share a
/// characteristic.  Across solves, a subproblem first explored by worker
/// A (in A's manager, at A's variable offsets) must be recognizable when
/// worker B re-generates it in B's manager while solving a later request
/// — or when the same manager re-solves an overlapping relation.
/// `GlobalMemo` achieves that by keying
/// on the canonical portable form (GlobalMemoKey): the rank-remapped
/// characteristic plus the input/output rank split.  Memoized solutions
/// are stored in the same rank-mapped serialized form and materialized
/// into the prober's manager with `deserialize_bdd` — never a
/// cross-manager handle.
///
/// Lifetime/GC contract: entries are PLAIN DATA — no `Bdd` handles, no
/// pinned edges, no reference counts.  Any manager may garbage-collect at
/// any time without invalidating the memo, which is what lets managers
/// outlive individual solves in the pool.
///
/// TWO-PHASE PROBE (the hash-consed key fast path): the shard maps are
/// keyed by the 128-bit canonical hash (memo_key_hash128), not by the
/// serialized key itself.  The engines probe with a `MemoKeyHandle` — a
/// LazyMemoKey carrying just the hash plus the live chi handle — so a
/// MISS, the overwhelming majority of probes, costs one cached-hash
/// lookup and serializes NOTHING.  Only a candidate hit (the hash is
/// present) forces the full canonical key into existence, to verify the
/// match: the stored entry keeps its materialized key
/// (shared_ptr<const GlobalMemoKey>), the handle materializes its own
/// OUTSIDE the shard lock, and a word-compare disambiguates.  A verified
/// handle caches the entry's created_seq in `verified_seq`, so every
/// re-probe and ancestor republish skips even the compare.  A hash
/// collision against a DIFFERENT key (never observed for a 128-bit
/// structural hash, but load-bearing for soundness) is counted and
/// treated as a miss; publishes under a colliding hash are dropped
/// (first key wins), so a collision can cost a memo hit but can never
/// serve or corrupt a wrong solution.
///
/// Concurrency: the table is SHARDED by canonical-key hash into
/// independently locked shards (per-shard mutex, map, LRU list).  A probe
/// or publish takes exactly one shard lock, so workers hashing to
/// different shards never contend.  Keys and entries are value types, and
/// no BDD manager is ever touched under a shard lock (hash-to-key
/// materialization releases the shard lock around the manager work and
/// re-finds after relocking).  Counters
/// (probes/hits/publishes/evictions) are per-shard relaxed atomics folded
/// lazily on read, off the locked path entirely — the `BddStats` idiom.
/// Run ids and the entry-creation sequence are process-wide atomics: a
/// global watermark is still a valid per-shard watermark, and any race
/// errs toward *skipping* a mark_complete, the safe direction.
///
/// Comparability: memos are only sound between runs minimizing the same
/// objective in the same mode (see CostFunction::id).  bind() stamps
/// the memo with a `MemoFingerprint` and mismatched reuse throws.  A
/// memo additionally only reflects how deeply its producing run explored
/// — share among runs of one configuration (the pool enforces this by
/// fixing one SolverOptions for all requests).
///
/// Tiering (this PR's refactor): GlobalMemo is the hot tier of a
/// `MemoBackend` stack.  Its own probe/publish/mark paths are untouched
/// — probe order, run-stamp vouching, and the depth-indexed completeness
/// semantics below are exactly what they were when it was the only tier.
/// Two cold-path hooks integrate the other tiers:
///
///   - a FAULT TIER (set_fault_tier): a ROOT-position lookup() that
///     misses locally consults the next tier (the peer exchange) and, on
///     a hit, installs the faulted entry locally before serving it.
///     Interior probes (lookup_at at depth > 0) never fault — the hot
///     per-subproblem path pays zero network I/O;
///   - a COMPLETE LISTENER (set_complete_listener): mark_complete
///     notifies it, outside any shard lock, of every key whose new mark
///     is eligible to cross a tier boundary — the push-gossip feed of
///     the peer exchange.
///
/// install() / export_complete() / export_entry() translate between the
/// in-memory entries and the tier-crossing `MemoExportEntry` form under
/// the export policy documented in memo_backend.hpp: only
/// naturally-complete entries and root-exact (truncated-at-depth-0)
/// records ever leave; interior truncated and unmarked entries never do.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "brel/lock_stats.hpp"
#include "brel/memo_backend.hpp"

namespace brel {

/// Identity of one producing run, handed out by begin_run(): a unique
/// run id plus the entry-creation sequence watermark at run start.
/// mark_complete() uses it to refuse flipping entries the marking run
/// neither fed nor found already present — with LRU eviction an entry
/// can be evicted mid-run and re-created by a *different* concurrent
/// run holding only a partial solution, and stamping THAT entry
/// complete would lock a degraded result into the service (the exact
/// hazard the completeness protocol exists to prevent).
struct MemoRunStamp {
  std::uint64_t run_id = 0;     ///< 0 = anonymous (matches nothing)
  std::uint64_t start_seq = 0;  ///< entries created at or before: trusted
};

/// One engine-side completeness claim about a touched key, consumed by
/// the depth-indexed mark_complete overload.  `depth` is the root
/// distance at which the producing run generated the subproblem;
/// `truncated` records that the subtree under it was cut by the run's
/// depth cap (directly, or by importing another truncated entry) rather
/// than bottoming out naturally.  kAnyDepth marks a naturally drained
/// subtree of a run with no depth cap at all — valid for a prober at
/// any depth.
struct MemoMark {
  std::shared_ptr<const GlobalMemoKey> key;
  std::uint64_t depth = 0;
  bool truncated = false;
};

/// The cross-solve memo.  Thread-safe; entries are plain data.
///
/// Completeness protocol: publishes made *during* a run only accumulate
/// an entry's best-so-far; lookup()/lookup_at() return nothing until the
/// entry is marked **complete**.  A run that ends at its natural
/// frontier drain (not stopped by budget/timeout) marks, per touched
/// subproblem, what it can vouch for:
///
///   - a subtree cut by NOTHING (no cost-bound prune, no symmetry prune,
///     no frontier-overflow drop, no depth-cap cut anywhere under it) is
///     **naturally complete**: its entry is the subtree-final optimum
///     under the memo's fingerprint.  It is marked at its producing
///     depth d — or at kAnyDepth when the run had no depth cap — and
///     serves any prober at depth d' <= d, because a subtree that
///     bottomed naturally within budget d does so verbatim for every
///     shallower (more generous) prober;
///   - a subtree cut ONLY by the depth cap is **depth-truncated
///     complete**: its entry is the exact result of exploring that
///     characteristic with the remaining budget D - d, a pure function
///     of (key, d) under one configuration, so it serves a prober at
///     exactly d' == d (the pool fixes one SolverOptions for all
///     requests, and the fingerprint rejects cross-objective reuse);
///   - a subtree cut by anything else (cost bound, symmetry, cache hit,
///     overflow) holds only a lower-quality partial memo and is not
///     marked at all — as is every ancestor of such a cut.  The ROOT is
///     the one exception: unless the run dropped children to frontier
///     overflow, the root entry is exactly what the solve returned, so
///     it is marked depth-truncated at depth 0 — faithful by
///     construction for a prober re-solving the identical relation.
///
/// This is what keeps a long-lived service sound: a request that times
/// out publishes only invisible partial memos, so the next identical
/// request re-explores instead of being served the degraded result
/// forever.  Completeness is sticky — a later, strictly better publish
/// (same fingerprint, so the same objective) refines a complete entry
/// without un-completing it, and a later natural mark upgrades a
/// truncated one (never the reverse).  The protocol is purely
/// per-entry, so it holds unchanged per shard.
class GlobalMemo : public MemoBackend {
 public:
  /// Default (auto) shard policy when `shards == 0`: an UNLIMITED memo
  /// shards kDefaultShards ways — the long-lived service configuration,
  /// where contention matters and the capacity bound never fires.  A
  /// FINITE capacity resolves to ONE shard, preserving exact global-LRU
  /// semantics (per-shard LRU cannot promise a global recency order).
  /// Explicit shard counts are rounded up to a power of two and clamped
  /// to [1, kMaxShards]; a finite capacity is then split as
  /// ceil(capacity / shards) per shard, enforced per shard.
  explicit GlobalMemo(std::size_t capacity = static_cast<std::size_t>(-1),
                      std::size_t shards = 0);

  static constexpr std::size_t kDefaultShards = 16;
  static constexpr std::size_t kMaxShards = 256;

  /// Stamp with the run configuration; mismatched reuse throws
  /// std::invalid_argument.
  void bind(const MemoFingerprint& fp);

  /// The bound fingerprint (nullopt before the first bind) — the
  /// snapshot and exchange tiers stamp/validate their records with it.
  [[nodiscard]] std::optional<MemoFingerprint> fingerprint() const;

  /// Hand out this run's identity (see MemoRunStamp): call once when a
  /// producing run starts, pass the stamp to every publish and to the
  /// final mark_complete.
  [[nodiscard]] MemoRunStamp begin_run();

  /// Probe depth marking a no-depth-cap natural drain: valid for a
  /// prober at any depth (see the protocol above).
  static constexpr std::uint64_t kAnyDepth = kMemoAnyDepth;

  /// Probe for `key` on behalf of a subproblem at root distance `depth`;
  /// returns the memoized solution only when the entry is complete AND
  /// its completeness covers that depth: naturally complete entries
  /// serve depth' <= depth, depth-truncated entries serve exactly their
  /// own depth (see the protocol above).  Counts a hit only when it
  /// serves.  By-value so the record is immune to concurrent publish().
  /// LOCAL only — never faults to another tier (the hot interior path).
  ///
  /// The handle form is the two-phase probe (see the file comment): a
  /// miss serializes nothing; a candidate hit verifies by materializing
  /// the handle's key outside the shard lock.  The key form is the
  /// compat path for callers that already hold a materialized key (the
  /// exchange and snapshot tiers, tests) — identical semantics.
  [[nodiscard]] std::optional<MemoHit> lookup_at(const MemoKeyHandle& key,
                                                 std::uint64_t depth) const;
  [[nodiscard]] std::optional<MemoHit> lookup_at(const GlobalMemoKey& key,
                                                 std::uint64_t depth) const;

  /// Depth-agnostic probe (root position): lookup_at(key, 0) without the
  /// truncated-ness flag.  Every complete entry serves at depth 0 except
  /// interior truncated ones, which only a matching-depth prober may
  /// import.  On a local miss this — and only this — path faults
  /// through the configured fault tier (set_fault_tier): a peer-owned
  /// entry is pulled, installed locally, and served; the next identical
  /// root probe is a plain local hit.  The handle form materializes its
  /// key only when a fault tier is actually configured (the wire needs
  /// the full canonical form); a plain local root miss stays hash-only.
  [[nodiscard]] std::optional<PortableSolution> lookup(
      const MemoKeyHandle& key);
  [[nodiscard]] std::optional<PortableSolution> lookup(
      const GlobalMemoKey& key);

  /// MemoBackend: the local lookup_at, in tier form (never faults).
  [[nodiscard]] std::optional<MemoHit> probe(const GlobalMemoKey& key,
                                             std::uint64_t depth) override;

  /// Insert-or-improve: record `solution` for `key` when the key is new
  /// or when the cost beats the stored entry.  At capacity a brand-new
  /// key EVICTS the least-recently-touched entry of its shard (recency
  /// is refreshed by every lookup or publish that finds the key
  /// present), so a long-lived service retains its hot working set
  /// instead of freezing whatever happened to arrive first;
  /// improvements to present keys never evict anything.  Never sets
  /// completeness.  `run_id` (begin_run) records who created a newly
  /// inserted entry, which is what lets mark_complete tell its own
  /// re-created entries from a concurrent run's.
  ///
  /// The handle form materializes the key only on first insert (lazily,
  /// outside the shard lock); improvements to a verified present entry
  /// never touch the serialized form at all.  A publish whose hash is
  /// held by a DIFFERENT key is dropped (first key wins; counted by
  /// collisions()).
  void publish(const MemoKeyHandle& key, const PortableSolution& solution,
               std::uint64_t run_id = 0);
  void publish(const GlobalMemoKey& key, const PortableSolution& solution,
               std::uint64_t run_id = 0);

  /// Record the engine's per-subproblem completeness claims — the
  /// engine calls this once its run has provably drained (see the
  /// protocol above).  Absent keys (evicted by the capacity bound) are
  /// skipped, and so is any entry the marking run cannot vouch for: one
  /// created after `stamp.start_seq` by a different run (an eviction
  /// hole re-filled by a concurrent solve's partial publishes).
  /// Upgrade rules on an already-complete entry: a natural mark
  /// replaces a truncated one, a deeper natural mark widens a shallower
  /// one, and a truncated mark never downgrades anything.  The default
  /// stamp trusts everything — the single-producer configuration, where
  /// no foreign entry can exist.
  void mark_complete(std::span<const MemoMark> marks,
                     const MemoRunStamp& stamp = MemoRunStamp{
                         0, static_cast<std::uint64_t>(-1)});

  /// Legacy whole-run overload: every key marked naturally complete at
  /// kAnyDepth (valid for any prober) — the pre-depth-indexed protocol,
  /// kept for callers that vouch for full natural drains themselves.
  void mark_complete(
      std::span<const std::shared_ptr<const GlobalMemoKey>> keys,
      const MemoRunStamp& stamp = MemoRunStamp{
          0, static_cast<std::uint64_t>(-1)});

  /// Install a tier-crossing record (snapshot load, peer pull/push).
  /// The record arrives ALREADY COMPLETE — vouched for by the drained
  /// run that exported it, content-addressed by its canonical key, and
  /// fingerprint-validated by the calling tier — so installation
  /// bypasses the run-stamp voucher (that voucher guards against
  /// in-process races on entries still being built; an imported record
  /// was finished in another process).  A new key inserts complete with
  /// the record's original mark (natural at complete_depth, or
  /// truncated-at-0 for root_exact); a present key upgrades under
  /// exactly the mark_complete rules, and its solution improves under
  /// exactly the publish rules.  Returns true when anything changed.
  bool install(const MemoExportEntry& entry, MemoOrigin origin) override;

  /// Enumerate every entry of the export policy (naturally complete at
  /// any depth, or root-exact truncated-at-0) — the snapshot writer and
  /// the push path.  Entries are copied out shard by shard; the sink
  /// runs outside any shard lock.
  void export_complete(const std::function<void(const MemoExportEntry&)>&
                           sink) const override;

  /// Export one key under the same policy (nullopt when absent or not
  /// eligible) — the MEMO_PULL server path.
  [[nodiscard]] std::optional<MemoExportEntry> export_entry(
      const GlobalMemoKey& key) const;

  /// Wire the next tier for root-miss faulting (nullptr disconnects).
  /// The tier must outlive the memo or be disconnected first.
  void set_fault_tier(MemoBackend* tier);

  /// Register the completion listener (empty function disconnects): it
  /// receives, outside any shard lock, each key whose fresh
  /// mark_complete made it export-eligible.  The push-gossip feed.
  void set_complete_listener(std::function<void(const GlobalMemoKey&)> fn);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Number of independently locked shards (≥ 1, power of two).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Shard index `key` hashes to (stable for the memo's lifetime).
  [[nodiscard]] std::size_t shard_of(const GlobalMemoKey& key) const noexcept;
  /// Entry count of one shard (for distribution diagnostics/tests).
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;
  /// Per-shard slice of the capacity bound (SIZE_MAX when unlimited).
  [[nodiscard]] std::size_t shard_capacity() const noexcept {
    return shard_capacity_;
  }

  // Lazily folded totals over the per-shard relaxed atomics — no shard
  // lock is taken, so polling stats never perturbs the hot path.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t probes() const;
  [[nodiscard]] std::uint64_t publishes() const;
  /// Entries removed by the capacity bound's LRU policy so far.
  [[nodiscard]] std::uint64_t evictions() const;
  /// Probes/publishes whose 128-bit hash matched an entry holding a
  /// DIFFERENT canonical key (detected by the verify step; treated as a
  /// miss / dropped publish).  Expected to stay 0 outside the forced-
  /// collision tests — nonzero here in production means hash quality
  /// trouble worth investigating, never a wrong answer.
  [[nodiscard]] std::uint64_t collisions() const;
  /// Hits broken down by the serving entry's origin (run / snapshot /
  /// peer) — the per-tier accounting the STATS surface reports.
  [[nodiscard]] std::uint64_t hits_from(MemoOrigin origin) const;

 private:
  /// The map consumes the LOW word of the 128-bit canonical hash (its
  /// buckets take the bottom bits); shard selection takes the TOP bits
  /// of the same word, so the two never correlate.  The high word is
  /// pure collision margin for the verify step.
  struct Hash128Hasher {
    [[nodiscard]] std::size_t operator()(
        const CanonicalHash128& h) const noexcept {
      return static_cast<std::size_t>(h.lo);
    }
  };
  struct Entry {
    /// The verified canonical identity of this entry — shared with the
    /// publishing handle, so insertion never copies the arena.  Needed
    /// (beyond the map's hash key) to verify candidate hits and to
    /// export: entries stay PLAIN DATA.
    std::shared_ptr<const GlobalMemoKey> key;
    PortableSolution solution;
    bool complete = false;
    /// Depth the completeness claim covers (kAnyDepth = any prober);
    /// meaningful only while `complete` is set.
    std::uint64_t complete_depth = 0;
    /// Depth-truncated completeness: serves only probers at exactly
    /// complete_depth (see the protocol above).
    bool complete_truncated = false;
    MemoOrigin origin = MemoOrigin::kRun;  ///< who created the entry
    std::uint64_t creator_run = 0;  ///< run_id of the inserting publish
    std::uint64_t created_seq = 0;  ///< insertion order (for run stamps)
    /// Position in the shard's lru (most-recently-touched at the
    /// front).  List iterators survive splices, so a const lookup can
    /// refresh recency without touching the entry itself.
    std::list<CanonicalHash128>::iterator lru;
  };

  /// One independently locked slice of the table.  All shard mutexes
  /// share the "memo" lock-stats group, so contention reports aggregate
  /// across shards automatically.
  struct Shard {
    using Map =
        std::unordered_map<CanonicalHash128, Entry, Hash128Hasher>;
    mutable TimedMutex mutex{lock_names::kMemo};
    Map map;
    /// Recency order over this shard's hash keys (values, not pointers
    /// — a CanonicalHash128 is two words); back() is the victim.
    mutable std::list<CanonicalHash128> lru;
    // Folded lazily by the accessors; never read under the mutex.
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> publishes{0};
    std::atomic<std::uint64_t> evictions{0};
    mutable std::atomic<std::uint64_t> collisions{0};
    mutable std::atomic<std::uint64_t> hits_by_origin[kMemoOriginCount] = {};
  };

  /// Move `entry` to `shard`'s most-recently-touched position (call
  /// with the shard's mutex held).
  static void touch(const Shard& shard, const Entry& entry) {
    shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru);
  }

  /// Is `entry` eligible to cross a tier boundary?  (Call with the
  /// shard's mutex held.)
  [[nodiscard]] static bool exportable(const Entry& entry) noexcept {
    return entry.complete && entry.solution.has_solution() &&
           (!entry.complete_truncated || entry.complete_depth == 0);
  }
  /// Tier-crossing form of an exportable entry (mutex held).
  [[nodiscard]] static MemoExportEntry to_export(const Entry& entry) {
    return MemoExportEntry{*entry.key, entry.solution, entry.complete_depth,
                           entry.complete_truncated};
  }

  /// Shard index for a canonical hash (stable for the memo's lifetime).
  [[nodiscard]] std::size_t shard_of_hash(
      const CanonicalHash128& h) const noexcept;

  /// Resolve `handle` to its IDENTITY-VERIFIED entry, or map.end() on a
  /// miss / collision (counted).  Entered with `lk` holding the shard
  /// mutex; may RELEASE and re-acquire it to materialize the handle's
  /// key (manager work never runs under a shard lock), re-finding after
  /// relock since the entry may have moved.  On success the handle
  /// caches the entry's created_seq so its next probe skips the
  /// compare entirely.
  Shard::Map::iterator find_verified(Shard& shard,
                                     std::unique_lock<TimedMutex>& lk,
                                     const LazyMemoKey& handle) const;

  /// Key-form verify (compat path; mutex held, never released): the
  /// caller already owns a materialized key, so a candidate hit is one
  /// word-compare away.
  Shard::Map::iterator find_verified(Shard& shard,
                                     const CanonicalHash128& hash,
                                     const GlobalMemoKey& key) const;

  /// The completeness/depth gate shared by both lookup_at forms (mutex
  /// held; `entry` already identity-verified).  Touches recency, counts
  /// the hit, and copies the solution out.
  std::optional<MemoHit> serve(const Shard& shard, const Entry& entry,
                               std::uint64_t depth) const;

  /// Insert-or-touch an entry for (`hash`, `key`), evicting per the LRU
  /// policy (mutex held).  Returns nullptr when shard_capacity_ is 0.
  Entry* emplace_entry(Shard& shard, const CanonicalHash128& hash,
                       std::shared_ptr<const GlobalMemoKey> key,
                       std::uint64_t run_id, MemoOrigin origin);

  std::size_t capacity_;        ///< total bound across shards
  std::size_t shard_capacity_;  ///< per-shard slice of the bound
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex meta_mutex_;  ///< guards fingerprint_ only (cold)
  std::optional<MemoFingerprint> fingerprint_;

  /// Next tier for root-miss faulting; plain atomic pointer because the
  /// hookup happens before traffic (server start) and teardown after
  /// the drain.
  std::atomic<MemoBackend*> fault_tier_{nullptr};

  /// Completion listener (push-gossip feed); guarded by its own mutex —
  /// mark_complete is a cold once-per-run path.
  mutable std::mutex listener_mutex_;
  std::function<void(const GlobalMemoKey&)> complete_listener_;

  // The run-id and entry-creation sequence counters are PROCESS-GLOBAL
  // (file-local atomics in global_memo.cpp), not members: created_seq
  // values double as the verification tokens handles cache in
  // LazyMemoKey::verified_seq, and a handle could outlive one memo and
  // probe another (tests do; embedders may).  Process-unique tokens
  // make a stale token merely cost a redundant compare, never validate
  // against the wrong entry.  A global watermark is still a valid
  // per-memo watermark for the mark_complete voucher.
};

}  // namespace brel
