// Shared-memory plan registry: the storage layer of the collective
// auto-tuner (docs/tuning.md).
//
// The registry is a fixed-size open-addressing hash table of PlanSlots
// living *inside the team's shared mapping*, so thread-backed and
// fork()-backed ranks see the same table at the same address and a plan
// committed by rank 0 is visible to every rank.  All hot-path operations
// are lock-free single-word atomics: a warm lookup is one hash, a short
// probe over `hash` words and one acquire load of the packed plan — no
// allocation, no locks, no barriers.
//
// The registry stores *packed* 64-bit keys and plans; what the bits mean
// (algorithm choice, slice schedule, NT decision) is owned by the
// collective layer (yhccl/coll/plan.hpp).  This split keeps the runtime
// free of collective semantics while the mapping layout stays runtime
// business, mirroring HbChecker and TraceBuffer.
#pragma once

#include <cstddef>
#include <cstdint>

#include "yhccl/common/types.hpp"
#include "yhccl/mc/atomic.hpp"
#include "yhccl/copy/cache_model.hpp"
#include "yhccl/runtime/topology.hpp"

namespace yhccl::rt {

/// Auto-tuner activation (TeamConfig::tune; docs/tuning.md).
enum class TuneMode : std::uint8_t {
  env,     ///< defer to $YHCCL_TUNE at construction (default: prior)
  prior,   ///< serve the analytic prior; the registry is never touched
  online,  ///< prior + epsilon-greedy exploration and rank-0 refinement
};

/// Resolve `env` against $YHCCL_TUNE (prior|online; unset -> prior).
TuneMode resolve_tune_mode(TuneMode cfg);

/// Exploration rate for TuneMode::online, per mille.  $YHCCL_TUNE_EPS is a
/// probability in [0, 1]; unset -> 0.1.
std::uint32_t tune_eps_mille_from_env();

/// Arms per plan slot.  The collective layer derives at most this many
/// candidate schedules per key (algorithm x NT / slice variants).
inline constexpr int kPlanMaxArms = 6;
/// Per-class wait-bound flags in the header (one per collective kind).
inline constexpr int kPlanClasses = 8;
/// Slots in every team's registry (open addressing, bounded probe).
inline constexpr std::uint32_t kPlanSlots = 512;

/// 64-bit finalizer (splitmix64); the registry's only hash.
constexpr std::uint64_t plan_mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The team facts a plan may depend on: the rank-to-socket layout, the
/// cache-capacity model (§4.2) the NT prior reads, and whether the ranks
/// share an address space (only then may a plan run the single-copy direct
/// arm).  Immutable.  Every plan decision — the prior, the arm tables,
/// the direct arm's guard — reads this record.
class PlanCaps {
 public:
  PlanCaps(const Topology& topo, const copy::CacheConfig& cache,
           bool shared_address_space) noexcept;
  const Topology& topo() const noexcept { return topo_; }
  const copy::CacheConfig& cache() const noexcept { return cache_; }
  bool shared_address_space() const noexcept { return shared_; }

  /// Identity cached plans are valid for: the machine signature plus the
  /// backend bit.  Forked teams — the paper's process
  /// setting — get the bare machine signature.
  std::uint64_t signature() const noexcept { return sig_; }
  /// Layout + cache model only: the online explore coin hashes it, so both
  /// backends explore a shared arm table alike.
  std::uint64_t machine_signature() const noexcept { return machine_sig_; }
 private:
  Topology topo_;
  copy::CacheConfig cache_;
  bool shared_ = false;
  std::uint64_t machine_sig_ = 0;
  std::uint64_t sig_ = 0;
};

// ---- packed-word structural invariants -------------------------------------
// The *meaning* of key/plan bits is owned by yhccl/coll/plan.hpp, but their
// reserved-bit skeleton is contracted here so the runtime's integrity sweep
// (Team::verify_integrity) and the read-side validators can reject torn or
// corrupted words without understanding them.  coll/plan.cpp static_asserts
// its packing against these masks.

/// Bit 63 of a committed plan word (0 = no plan committed).
inline constexpr std::uint64_t kPlanWordValidBit = 1ull << 63;
/// Plan-word bits no packer ever sets: 6-7, 14-15, 22-23, 27, 32-62.
inline constexpr std::uint64_t kPlanWordReservedMask = 0x7fffffff08c0c0c0ull;
/// Key-fields bits no packer ever sets: 40-63.
inline constexpr std::uint64_t kPlanFieldsReservedMask = 0xffffff0000000000ull;

/// Plan-word bits 28-31: the arm index into PlanSlot's arm arrays.
inline constexpr int kPlanWordArmShift = 28;

/// Structural sanity of a stored plan word: absent, or valid-bit set with
/// every reserved bit clear and an arm index inside the arm arrays.  A
/// single flipped byte always trips this (each byte of the word overlaps
/// the reserved mask or the valid bit).
constexpr bool plan_word_sane(std::uint64_t w) noexcept {
  return w == 0 ||
         ((w & kPlanWordValidBit) != 0 && (w & kPlanWordReservedMask) == 0 &&
          ((w >> kPlanWordArmShift) & 0xf) <
              static_cast<std::uint64_t>(kPlanMaxArms));
}

/// Structural sanity of stored key fields.
constexpr bool plan_fields_sane(std::uint64_t f) noexcept {
  return (f & kPlanFieldsReservedMask) == 0;
}

/// One cached plan.  `hash` is the probe identity (0 = empty); `fields`
/// holds the unhashed key bits, published with the claim;
/// `plan` is the committed packed plan (0 = none committed yet: every rank
/// recomputes the deterministic prior instead).  Arm statistics are
/// written by rank 0 only (single-writer; stored as double bit patterns).
struct PlanSlot {
  mc::atomic<std::uint64_t> hash{0};
  mc::atomic<std::uint64_t> fields{0};
  mc::atomic<std::uint64_t> plan{0};
  /// First team epoch at which this key may be served from cache again
  /// (0 = not quarantined).  Published with release order *after* the
  /// committed plan word is cleared, so any rank observing the mark also
  /// observes the cleared word (model-checked: protocol "quarantine").
  mc::atomic<std::uint64_t> quar{0};
  mc::atomic<std::uint64_t> hits{0};
  mc::atomic<std::uint64_t> arm_ewma[kPlanMaxArms]{};  ///< seconds (bits)
  mc::atomic<std::uint32_t> arm_n[kPlanMaxArms]{};     ///< samples per arm

  double ewma_seconds(int arm) const noexcept;
  /// Single-writer EWMA fold (alpha = 1/4; first sample seeds the average).
  void update_arm(int arm, double seconds) noexcept;
};

struct PlanRegistryStats {
  std::uint64_t lookups = 0;   ///< resolved calls (rank 0's count)
  std::uint64_t hits = 0;      ///< of which: slot already existed
  std::uint64_t misses = 0;    ///< of which: slot inserted (or table full)
  std::uint64_t inserts = 0;   ///< slots claimed (any rank's CAS win)
  std::uint64_t explores = 0;  ///< online exploration steps taken
  std::uint64_t commits = 0;   ///< plan-word rewrites from refinement
  std::uint64_t entries = 0;   ///< live slots right now
  std::uint64_t quarantines = 0;  ///< keys pinned out of rotation
};

class PlanRegistry {
 public:
  /// Throws yhccl::Error when the slot table would overflow std::size_t.
  static std::size_t required_bytes(std::uint32_t slots);

  /// Placement-construct a registry over `bytes` of zeroed shared memory.
  static PlanRegistry* create(void* mem, std::size_t bytes,
                              std::uint32_t slots, std::uint32_t eps_mille);

  std::uint32_t capacity() const noexcept { return slots_; }
  std::uint32_t eps_mille() const noexcept { return eps_mille_; }

  /// Probe for `hash` (nonzero).  Null when absent or the probe window is
  /// exhausted.  Wait-free: at most kProbe loads.
  PlanSlot* find(std::uint64_t hash) noexcept;
  const PlanSlot* find(std::uint64_t hash) const noexcept;

  /// Find-or-insert.  All ranks race the claiming CAS with identical
  /// `fields`, so the loser's view is the winner's slot.  Null when the
  /// probe window is full (callers fall back to the computed prior).
  /// `inserted` (optional) reports whether this call claimed the slot.
  PlanSlot* acquire(std::uint64_t hash, std::uint64_t fields,
                    bool* inserted = nullptr) noexcept;

  /// Slot iteration for diagnostics (includes empty slots).
  PlanSlot& slot(std::uint32_t i) noexcept { return slots_begin()[i]; }
  const PlanSlot& slot(std::uint32_t i) const noexcept {
    return const_cast<PlanRegistry*>(this)->slots_begin()[i];
  }

  // ---- resilience (docs/robustness.md §resume) -----------------------------
  /// Pin `hash`'s cached plan out of rotation until `until_epoch`: the
  /// committed word is cleared (resolvers fall back to the analytic prior)
  /// and the quarantine mark is raised, monotonically.  False when the key
  /// is not cached.  Safe concurrently with readers.
  bool quarantine(std::uint64_t hash, std::uint64_t until_epoch) noexcept;

  /// Is this slot's key quarantined at team epoch `epoch`?
  static bool quarantined(const PlanSlot& s, std::uint64_t epoch) noexcept {
    return s.quar.load(YHCCL_MC_ORDER(quar_publish_release,
                                      std::memory_order_acquire)) > epoch;
  }

  /// Last plan key rank 0 resolved (best effort): the retry engine reads it
  /// after a fault to attribute the failure to the in-flight plan.  A plain
  /// shared word — last resolve wins, cleared on clean completion.
  void note_inflight(std::uint64_t hash) noexcept {
    inflight_.store(hash, std::memory_order_relaxed);
  }
  std::uint64_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

  // Diagnostics counters.  The per-call ones (lookup/explore/commit) are
  // bumped by rank 0 only, so stats count calls, not calls x ranks.
  void note_lookup(bool hit) noexcept {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  }
  void note_explore() noexcept {
    explores_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_commit() noexcept {
    commits_.fetch_add(1, std::memory_order_relaxed);
  }

  PlanRegistryStats stats() const noexcept;

  /// Per-collective-class wait-bound flag: set when Team::straggler_check
  /// flags a fresh straggler on a team that has run the class, cleared by
  /// a sweep that flags nobody and by Team::recover().  Online exploration
  /// doubles epsilon for wait-bound classes.  The metrics sampler thread
  /// may flip it while ranks run; a relaxed flag makes that race harmless
  /// (a rank sees the change now or on a later call).
  bool wait_bound(int cls) const noexcept;
  void mark_wait_bound(int cls) noexcept;
  void clear_wait_bound() noexcept;

 private:
  PlanRegistry(std::uint32_t slots, std::uint32_t eps_mille) noexcept
      : slots_(slots), eps_mille_(eps_mille) {}

  PlanSlot* slots_begin() noexcept {
    return reinterpret_cast<PlanSlot*>(reinterpret_cast<std::byte*>(this) +
                                       sizeof(PlanRegistry));
  }

  static constexpr std::uint32_t kProbe = 16;

  std::uint32_t slots_;
  std::uint32_t eps_mille_;
  mc::atomic<std::uint64_t> lookups_{0};
  mc::atomic<std::uint64_t> hits_{0};
  mc::atomic<std::uint64_t> misses_{0};
  mc::atomic<std::uint64_t> inserts_{0};
  mc::atomic<std::uint64_t> explores_{0};
  mc::atomic<std::uint64_t> commits_{0};
  mc::atomic<std::uint64_t> quarantines_{0};
  mc::atomic<std::uint64_t> inflight_{0};
  /// A word per class, not a packed mask: the header keeps its size, so
  /// the slot table keeps its offset in the plans section.
  mc::atomic<std::uint64_t> wait_bound_[kPlanClasses]{};
};

}  // namespace yhccl::rt
