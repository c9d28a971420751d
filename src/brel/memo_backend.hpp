#pragma once
/// \file memo_backend.hpp
/// The manager-independent canonical forms of the memo layer, plus the
/// `MemoBackend` abstraction the tiered GlobalMemo store is built on.
///
/// Everything here is PLAIN DATA or pure translation:
///
///   - `MemoSpace` / `GlobalMemoKey` / `PortableSolution`: the canonical
///     rank-remapped serialized forms that make a subproblem
///     content-addressable across managers, processes, and hosts (see
///     global_memo.hpp for how the in-memory tier keys on them);
///   - the make_*/import_* translators between manager BDDs and the
///     canonical forms, and the text codecs the socket service and the
///     snapshot format share;
///   - `MemoBackend`: the storage-tier interface.  Tier 0 is the sharded
///     in-memory `GlobalMemo`; tier 1 (memo_snapshot.hpp) persists it to
///     disk; tier 2 (memo_exchange.hpp) faults missing entries from peer
///     servers over the framed-TCP wire.  A backend exchanges only
///     `MemoExportEntry` records — complete entries a drained run
///     vouched for — so the completeness protocol survives every tier
///     boundary: a partial or tainted result can no more cross a disk
///     or network hop than it can serve an in-memory probe.
///
/// What may cross a tier boundary: exactly the entries that can serve a
/// ROOT-position prober (depth 0) under the in-memory protocol —
/// naturally-complete entries (at any recorded depth; they serve every
/// shallower prober) and the root-exact records a drained solve marks
/// truncated-at-depth-0 (exactly what that solve returned).  Interior
/// depth-truncated entries are budget-relative by construction and
/// hard-tainted entries are never even marked; neither serializes.  An
/// imported record re-installs with its ORIGINAL mark (natural at its
/// depth, or truncated-at-0), so a restored memo answers probes
/// bit-identically to the memo that was saved.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd_hash.hpp"
#include "bdd/bdd_transfer.hpp"
#include "relation/relation.hpp"

namespace brel {

/// Rank tables of one relation's variable spaces: everything needed to
/// translate between manager variables and canonical ranks.  Build once
/// per solve (make_memo_space) and reuse for every key/solution.
struct MemoSpace {
  /// Relation variables (inputs ∪ outputs) in ascending manager order;
  /// rank r corresponds to manager variable sorted_vars[r].
  std::vector<std::uint32_t> sorted_vars;
  /// var → rank for every manager variable in the relation (entries for
  /// foreign variables hold kUnranked).
  std::vector<std::uint32_t> rank_of;
  std::vector<std::uint32_t> input_ranks;   ///< ranks of inputs, in order
  std::vector<std::uint32_t> output_ranks;  ///< ranks of outputs, in order
  /// Process-unique name of this rank map, handed to
  /// BddManager::canonical_hash so its per-node cache knows when the
  /// map changed (make_memo_space allocates; 0 = "uncacheable").
  std::uint64_t token = 0;

  static constexpr std::uint32_t kUnranked = 0xFFFFFFFFu;
};

/// Rank tables for `r` (ascending inputs+outputs order).
[[nodiscard]] MemoSpace make_memo_space(const BooleanRelation& r);

/// Canonical identity of one subproblem: rank-mapped characteristic plus
/// the input/output split.  Equal keys mean structurally identical
/// subrelations regardless of manager or variable offset.
///
/// Stored as fixed-width words in ONE contiguous arena —
/// [node_count, chi_root, #iranks, #oranks | var,hi,lo per node |
/// input ranks | output ranks] — so equality is a flat word compare and
/// an in-memory key costs a single allocation.  Text remains the format
/// at every snapshot/wire boundary: `chi()` reconstructs the exact
/// SerializedBdd the pre-arena key held (num_vars is derivable — always
/// 1 + the largest node rank), so `brelmemo 1` files and MEMO_PULL/PUSH
/// frames are byte-identical to the pre-arena format.
class GlobalMemoKey {
 public:
  GlobalMemoKey() : words_{0, 0, 0, 0} {}
  /// Pack a rank-form serialized chi (node vars are RANKS) and the rank
  /// lists.  Throws std::invalid_argument when the node list is not in
  /// child-before-parent order or the root id is out of range — the
  /// arena walkers (hash128, chi()) index by id and never re-validate.
  GlobalMemoKey(const SerializedBdd& chi,
                std::span<const std::uint32_t> input_ranks,
                std::span<const std::uint32_t> output_ranks);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return words_.empty() ? 0 : words_[0];
  }
  [[nodiscard]] std::uint32_t chi_root() const noexcept {
    return words_.empty() ? 0 : words_[1];
  }
  [[nodiscard]] std::uint32_t node_var(std::size_t k) const noexcept {
    return words_[4 + 3 * k];
  }
  [[nodiscard]] std::uint32_t node_hi(std::size_t k) const noexcept {
    return words_[4 + 3 * k + 1];
  }
  [[nodiscard]] std::uint32_t node_lo(std::size_t k) const noexcept {
    return words_[4 + 3 * k + 2];
  }
  [[nodiscard]] std::span<const std::uint32_t> input_ranks() const noexcept {
    return words_.empty()
               ? std::span<const std::uint32_t>{}
               : std::span<const std::uint32_t>{words_}.subspan(
                     4 + 3 * node_count(), words_[2]);
  }
  [[nodiscard]] std::span<const std::uint32_t> output_ranks()
      const noexcept {
    return words_.empty()
               ? std::span<const std::uint32_t>{}
               : std::span<const std::uint32_t>{words_}.subspan(
                     4 + 3 * node_count() + words_[2], words_[3]);
  }
  /// Exact translator back to the text-boundary form.
  [[nodiscard]] SerializedBdd chi() const;

  [[nodiscard]] bool operator==(const GlobalMemoKey&) const = default;

  friend std::uint64_t memo_key_hash(const GlobalMemoKey& key);
  friend CanonicalHash128 memo_key_hash128(const GlobalMemoKey& key);

 private:
  std::vector<std::uint32_t> words_;
};

/// Canonical key for a subrelation with characteristic `chi` living in
/// `space`.  Throws std::logic_error if chi depends on a variable
/// outside the space (a subrelation never does).
[[nodiscard]] GlobalMemoKey make_memo_key(const MemoSpace& space,
                                          const Bdd& chi);

/// 64-bit FNV-1a content hash of a canonical key.  One hash feeds three
/// consumers that must agree on identity ACROSS PROCESSES AND VERSIONS:
/// the snapshot entry checksum (memo_entry_checksum embeds it in
/// `check=` fields on disk), the peer-exchange consistent-hash ring
/// (memo_exchange.hpp — a key owned by peer P hashes identically in
/// every process), and the MEMO_PULL/PUSH frames.  Its feed sequence is
/// therefore frozen; the in-memory store keys on memo_key_hash128
/// instead, which needs no serialized form.
[[nodiscard]] std::uint64_t memo_key_hash(const GlobalMemoKey& key);

/// 128-bit canonical hash of a whole key: the structural hash of chi
/// (bdd_hash.hpp) folded with the rank lists.  The in-memory shard map,
/// the shard mix, and the two-phase probe key on this value.  Two ways
/// to compute it, guaranteed to agree:
///   - from a live manager:  memo_key_hash128(canonical_hash(chi), space)
///     — O(new nodes), nothing serialized;
///   - from a materialized key: memo_key_hash128(key) — the arena walk.
[[nodiscard]] CanonicalHash128 memo_key_hash128(const GlobalMemoKey& key);
[[nodiscard]] CanonicalHash128 memo_key_hash128(
    const CanonicalHash128& chi_hash,
    std::span<const std::uint32_t> input_ranks,
    std::span<const std::uint32_t> output_ranks);

/// A canonical key in one of two states: HASHED (the 128-bit identity
/// plus the live chi handle needed to materialize later) or MATERIALIZED
/// (the arena form built, the chi handle dropped — pure plain data from
/// then on).  The engines thread these through memo chains so the common
/// case — probe misses and ancestor republishes — never serializes;
/// get() materializes exactly once, on the first candidate hit to verify
/// or on first publish.
///
/// Thread contract: materialization touches chi's manager, so get() on a
/// HASHED handle may only run on that manager's owning thread.  Work
/// migration respects this by materializing every chain handle on the
/// victim's thread before the hand-off (the queue mutex is the barrier);
/// once materialized, the handle is immutable plain data and concurrent
/// get()/shared_key() are safe.  `verified_seq` is the only field
/// written after sharing and is a relaxed atomic (a stale read only
/// costs a redundant verification).
class LazyMemoKey {
 public:
  /// HASHED state.  `chi` pins the characteristic until materialization.
  LazyMemoKey(const CanonicalHash128& key_hash, Bdd chi,
              std::shared_ptr<const MemoSpace> space)
      : hash(key_hash), chi_(std::move(chi)), space_(std::move(space)) {}
  /// MATERIALIZED from the start (hash computed via the arena walk).
  explicit LazyMemoKey(GlobalMemoKey key)
      : hash(memo_key_hash128(key)),
        key_(std::make_shared<const GlobalMemoKey>(std::move(key))) {}
  /// MATERIALIZED with an EXPLICIT hash.  This is the collision
  /// injection seam for tests: a genuine 128-bit collision cannot be
  /// constructed, so the forced-collision test lies about the hash here
  /// and asserts the verify step still disambiguates.  Production code
  /// never calls this with a hash that is not memo_key_hash128(key).
  LazyMemoKey(const CanonicalHash128& key_hash, GlobalMemoKey key)
      : hash(key_hash),
        key_(std::make_shared<const GlobalMemoKey>(std::move(key))) {}

  [[nodiscard]] bool materialized() const noexcept {
    return key_ != nullptr;
  }
  /// The materialized key, building it on first call (see the thread
  /// contract above).
  [[nodiscard]] const GlobalMemoKey& get() const;
  /// Shared ownership of the materialized key (materializes too) — what
  /// GlobalMemo entries store, so insert never copies the arena.
  [[nodiscard]] std::shared_ptr<const GlobalMemoKey> shared_key() const;

  const CanonicalHash128 hash;
  /// created_seq of the store entry this handle last verified equal
  /// against (0 = never) — lets a re-publish skip the key compare.
  mutable std::atomic<std::uint64_t> verified_seq{0};

 private:
  mutable std::shared_ptr<const GlobalMemoKey> key_;
  mutable Bdd chi_;
  mutable std::shared_ptr<const MemoSpace> space_;
};

/// How the engines refer to a canonical key: shared so one handle (and
/// its one materialization) serves a subproblem, its ancestor chains,
/// and the touched-key list alike.
using MemoKeyHandle = std::shared_ptr<LazyMemoKey>;

/// HASHED handle for the subrelation with characteristic `chi` in
/// `space` — the probe-path constructor: one canonical_hash walk
/// (amortized O(new nodes)), nothing serialized.
[[nodiscard]] MemoKeyHandle make_memo_handle(
    std::shared_ptr<const MemoSpace> space, const Bdd& chi);

/// Process-wide materialization accounting: how many HASHED handles were
/// ever materialized and the wall time spent doing it.  Feeds the
/// `key_build_ms` bench field and the never-serializes-on-miss test.
struct MemoKeyBuildStats {
  std::uint64_t builds = 0;
  std::uint64_t ns = 0;
};
[[nodiscard]] MemoKeyBuildStats memo_key_build_stats() noexcept;
void reset_memo_key_build_stats() noexcept;

/// A manager-independent multi-output solution: one rank-mapped
/// serialized BDD per output, over the *input* ranks of its space.
struct PortableSolution {
  std::vector<SerializedBdd> outputs;
  double cost = 0.0;

  [[nodiscard]] bool has_solution() const noexcept {
    return !outputs.empty();
  }
  [[nodiscard]] bool operator==(const PortableSolution&) const = default;
};

/// Flatten `f` (BDDs of one manager) into the portable rank form.
[[nodiscard]] PortableSolution make_portable_solution(const MemoSpace& space,
                                                      const MultiFunction& f,
                                                      double cost);

/// Materialize a portable solution in `mgr` under `space`'s variable
/// assignment (the inverse remap of make_portable_solution).
[[nodiscard]] MultiFunction import_portable_solution(
    BddManager& mgr, const MemoSpace& space, const PortableSolution& s);

/// Materialize one rank-form serialized BDD (e.g. a GlobalMemoKey::chi)
/// in `mgr` under `space`'s variable assignment — the same inverse remap
/// import_portable_solution applies per output, exposed for callers that
/// need the characteristic itself (the incremental delta path diffs a
/// remembered base characteristic against a fresh one).
[[nodiscard]] Bdd import_canonical_bdd(BddManager& mgr,
                                       const MemoSpace& space,
                                       const SerializedBdd& s);

/// Text form of a portable solution — the response body of the socket
/// service (server.hpp), built from the same node-line grammar as the
/// `.bdd` relation format: a `.cost` line, an `.outputs` count, then per
/// output a `.bdd <node_count>` section (write_serialized_bdd).  An
/// empty-bodied solution (has_solution() == false) round-trips too.
void write_portable_solution(std::ostream& os, const PortableSolution& s);
/// Inverse of write_portable_solution.  Throws std::invalid_argument on
/// malformed input (bad counts, malformed node lines, trailing tokens).
[[nodiscard]] PortableSolution read_portable_solution(std::istream& in);

/// Strict total order on same-space portable solutions, used to break
/// COST TIES everywhere a winner is chosen — the engine incumbent, the
/// memo's cross-run accumulation, the parallel coordinator's merge.
/// Minimum under a total order is associative/commutative, so the tied
/// winner is the same no matter which schedule, worker, or run produced
/// the candidates — without it, equal-cost ties make repeat solves (and
/// memo-served solves) compatible-but-not-bit-identical.  The order is
/// lexicographic over the rank-form serialized outputs; it carries no
/// semantic meaning beyond being total and space-canonical.
[[nodiscard]] bool canonically_before(const PortableSolution& a,
                                      const PortableSolution& b);

/// The comparability stamp: solutions are only comparable between runs
/// that minimized the same objective (CostFunction::id) in the same mode
/// (exact or heuristic).  The variable spaces live inside each
/// GlobalMemoKey, as ranks, so the fingerprint carries nothing else.
struct MemoFingerprint {
  std::string cost_id;
  bool exact = false;

  [[nodiscard]] bool operator==(const MemoFingerprint&) const = default;
};

/// A complete-entry probe result: the memoized solution plus whether the
/// entry is only depth-truncated complete (see MemoMark).  Probers that
/// import a truncated entry must propagate truncated-ness to their own
/// ancestry or their later marks would overclaim.
struct MemoHit {
  PortableSolution solution;
  bool depth_truncated = false;
};

/// Probe depth marking a no-depth-cap natural drain: valid for a prober
/// at any depth (GlobalMemo::kAnyDepth aliases this).
inline constexpr std::uint64_t kMemoAnyDepth =
    static_cast<std::uint64_t>(-1);

/// Where an installed entry came from — tags per-tier hit accounting
/// (a warm service should show its restarts and peers paying off, not
/// just an aggregate hit rate).
enum class MemoOrigin : std::uint8_t {
  kRun = 0,       ///< published by a solve in this process
  kSnapshot = 1,  ///< restored from a disk snapshot (tier 1)
  kPeer = 2,      ///< faulted or pushed over the wire (tier 2)
};
inline constexpr std::size_t kMemoOriginCount = 3;

/// One entry in tier-crossing form: the canonical key, the complete
/// solution, and its completeness claim.  Only two claim shapes may
/// cross a tier boundary (see the file comment):
///
///   - `root_exact == false`: NATURALLY complete at `complete_depth`
///     (kMemoAnyDepth for a capless drain) — serves any prober at or
///     above that depth;
///   - `root_exact == true`: the drained solve's final root answer,
///     re-installed truncated-at-depth-0 — serves only a root-position
///     prober re-solving the identical relation (`complete_depth` is 0).
struct MemoExportEntry {
  GlobalMemoKey key;
  PortableSolution solution;
  std::uint64_t complete_depth = kMemoAnyDepth;
  bool root_exact = false;
};

/// A storage tier of the memo system.  Implementations: GlobalMemo
/// (tier 0, in-memory), MemoExchange (tier 2, peer fault path).  The
/// snapshot codec (tier 1) is a pair of free functions over this
/// interface rather than a class — a file has no probe path.
class MemoBackend {
 public:
  virtual ~MemoBackend() = default;

  /// Probe for `key` on behalf of a prober at root distance `depth`.
  /// Same depth-validity contract as GlobalMemo::lookup_at.
  [[nodiscard]] virtual std::optional<MemoHit> probe(
      const GlobalMemoKey& key, std::uint64_t depth) = 0;

  /// Install a tier-crossing entry (insert or upgrade; see
  /// GlobalMemo::install for the upgrade rules).  Returns true when the
  /// store changed.  `origin` tags the entry for per-tier accounting.
  virtual bool install(const MemoExportEntry& entry, MemoOrigin origin) = 0;

  /// Enumerate every entry eligible to cross a tier boundary (the
  /// export policy above), in unspecified order.
  virtual void export_complete(
      const std::function<void(const MemoExportEntry&)>& sink) const = 0;
};

}  // namespace brel
