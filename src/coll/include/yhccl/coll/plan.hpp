// Plan-caching auto-tuner for the collective switching layer
// (docs/tuning.md).
//
// The paper picks algorithms with one static size threshold (§5.1) and a
// fixed analytic NT-store switch point (§5.4), but the real crossovers
// move with p, topology and message size.  This engine replaces the lone
// threshold with cached *plans*: a PlanKey (collective, dtype/op, size
// bucket, rank/socket shape), hashed with the team's rt::PlanCaps, maps to
// an immutable Plan holding the algorithm choice, the slice/pipeline
// schedule and the NT-store decision.  Plans live in the team's shared
// PlanRegistry (runtime/plan_registry.hpp), so all ranks — thread- and
// fork-backed alike — deterministically agree, and a warm repeat call is a
// single lock-free lookup with no per-call allocation.
//
// Plans are seeded from three layered sources:
//   prior   — the paper's rules evaluated analytically: §5.1 switching for
//             the algorithm, the §5.4 work-set model for the NT advisory.
//   bench   — offline warming from yhccl-bench/1 reports (PR-4 campaign),
//             persisted in the exact-JSON "yhccl-plan/1" format and loaded
//             via $YHCCL_PLAN_FILE.
//   online  — epsilon-greedy exploration refined from measured call times
//             and straggler feedback ($YHCCL_TUNE=online).
//
// Cross-rank agreement is the load-bearing invariant (ranks running
// different algorithms for the same collective deadlock).  It holds by
// construction: the prior and the explore schedule are pure functions of
// (key, per-rank tune_seq) — identical everywhere — and the committed plan
// word is rewritten only by rank 0 after the collective's trailing
// barrier, then read by every rank after the next call's leading barrier,
// so the barrier's release/acquire edge orders every write against every
// read (both barriers exist only in online mode; prior mode's registry is
// read-only after warming and needs no synchronization at all).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "yhccl/bench/json.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/runtime/plan_registry.hpp"

namespace yhccl::coll::plan {

inline constexpr const char* kPlanSchema = "yhccl-plan/1";

/// NT-store stance of a plan: keep the per-slice adaptive policy (§4.2
/// Algorithm 1), or pin the whole collective temporal / streaming.
enum class NtChoice : std::uint8_t { adaptive, temporal, stream };
constexpr const char* nt_choice_name(NtChoice n) noexcept {
  switch (n) {
    case NtChoice::adaptive: return "adaptive";
    case NtChoice::temporal: return "temporal";
    case NtChoice::stream: return "stream";
  }
  return "?";
}

enum class PlanSource : std::uint8_t { prior, bench, online };
constexpr const char* plan_source_name(PlanSource s) noexcept {
  switch (s) {
    case PlanSource::prior: return "prior";
    case PlanSource::bench: return "bench";
    case PlanSource::online: return "online";
  }
  return "?";
}

/// Identity of one cached decision.  `bucket` is a power-of-two size class
/// over the switching-rule message size — bucket b covers (2^(b-1), 2^b]
/// bytes — with bit 6 marking the above-threshold side when the caller's
/// small_msg_threshold splits a bucket, so the §5.1 decision is constant
/// within every bucket for *any* threshold, not just power-of-two ones.
struct PlanKey {
  CollKind kind = CollKind::allreduce;
  Datatype dtype = Datatype::f64;
  ReduceOp op = ReduceOp::sum;
  std::uint8_t bucket = 0;
  int ranks = 1;
  int sockets = 1;

  std::uint64_t packed_fields() const noexcept;
  static PlanKey from_fields(std::uint64_t fields) noexcept;
  /// Probe hash: mixes the fields with a PlanCaps signature and the
  /// tuning-relevant option fingerprint.  Never zero.
  std::uint64_t hash(std::uint64_t team_sig,
                     std::uint64_t opts_sig) const noexcept;
};

/// Tuning-relevant CollOpts fingerprint.  Calls with non-default slicing,
/// thresholds or copy policy tune in their own key space; persisted plans
/// are stored for (and only ever served to) default-option calls.
std::uint64_t opts_signature(const CollOpts& opts) noexcept;

/// Size bucket + representative size of the switching-rule message size
/// `msg_bytes` (total input for reduce_scatter, per-rank bytes otherwise).
std::uint8_t bucket_of(CollKind kind, std::size_t msg_bytes,
                       const CollOpts& opts) noexcept;
std::size_t bucket_rep_bytes(CollKind kind, std::uint8_t bucket,
                             const CollOpts& opts) noexcept;

/// Key of a concrete call (op is normalized to `sum` for the
/// non-reduction collectives, which take no operator).
PlanKey make_key(CollKind kind, std::size_t msg_bytes, Datatype d,
                 ReduceOp op, const rt::Topology& topo,
                 const CollOpts& opts) noexcept;

/// One immutable tuning decision.  Packs into a single 64-bit word (bit 63
/// = valid) so registry reads/writes are tear-free single atomics.
struct Plan {
  Algorithm algorithm = Algorithm::automatic;
  NtChoice nt = NtChoice::adaptive;
  std::uint8_t slice_log2 = 0;  ///< 0 = keep the caller's slice_max
  std::uint8_t chunk_log2 = 0;  ///< 0 = keep the caller's dpml_chunk
  bool nt_prior = false;        ///< §5.4 analytic NT prediction (advisory)
  PlanSource source = PlanSource::prior;
  std::uint8_t arm = 0;         ///< index into the key's arm table

  std::uint64_t pack() const noexcept;
  static Plan unpack(std::uint64_t word) noexcept;

  /// Fold the plan into the caller's options.  Only fields the caller left
  /// at their defaults are overridden: an explicit policy or slice request
  /// always wins over the tuner.
  void apply(CollOpts& o) const noexcept;
};

// ---- analytic prior ---------------------------------------------------------

/// True for the collectives the §5.1 rule switches (allreduce, reduce,
/// reduce_scatter); broadcast and allgather always run the pipeline.
constexpr bool is_reduction(CollKind k) noexcept {
  return k == CollKind::allreduce || k == CollKind::reduce ||
         k == CollKind::reduce_scatter;
}

/// The §5.1 switching rule over a team's caps (no RankCtx needed, so the
/// prior is computable parent-side and in offline tools): the direct arm
/// where serves_direct() holds, else staged_reduction_algorithm().  An
/// explicit opts.algorithm is returned as is.
Algorithm choose_reduction_algorithm(CollKind kind, std::size_t msg_bytes,
                                     const CollOpts& opts,
                                     const rt::PlanCaps& caps) noexcept;

/// Where the prior serves the single-copy direct arm: allreduces above the
/// fold cut on teams whose ranks share an address space, and allreduces
/// and reduce_scatters in the MA regime (above opts.small_msg_threshold)
/// on every team.  A forked team runs direct there only when every rank's
/// buffers lie in shared windows; its verdict otherwise falls back to
/// staged_reduction_algorithm().
bool serves_direct(CollKind kind, std::size_t msg_bytes, const CollOpts& opts,
                   const rt::PlanCaps& caps) noexcept;

/// The §5.1 rule for ranks that cannot load each other's buffers:
/// allreduces of at most fold_max_bytes(p) take the one-barrier fold, other
/// messages up to opts.small_msg_threshold two-level DPML, larger ones
/// socket-aware MA (flat MA on single-socket topologies).  Pure, so every
/// rank whose direct verdict is negative falls back to the same arm.
Algorithm staged_reduction_algorithm(CollKind kind, std::size_t msg_bytes,
                                     const CollOpts& opts,
                                     const rt::Topology& topo) noexcept;

/// §5.4 NT prediction: does the collective's work-data-set W (§4.3
/// formulas) exceed the cache capacity available to p cores?  For
/// allreduce this reproduces model::nt_switch_point_allreduce exactly.
bool prior_nt(CollKind kind, std::size_t msg_bytes, int p, int m,
              const copy::CacheConfig& cache, std::size_t slice_max) noexcept;

/// The full analytic prior for a key: §5.1 algorithm + §5.4 NT advisory
/// (the direct arm's own work set when it is served), caller's slice
/// schedule untouched.  Deterministic, allocation-free.
Plan prior_plan(const PlanKey& key, const CollOpts& opts,
                const rt::PlanCaps& caps) noexcept;

// ---- candidate arms ---------------------------------------------------------

/// Candidate schedules the online mode explores for a key: for reductions
/// the prior's algorithm and the DPML/MA arms (socket-aware only on valid
/// topologies; fold and direct are only ever arm 0, because the buckets
/// they may serve are exactly those whose prior picks them) plus
/// pinned-NT variants of the prior's choice; for broadcast/allgather
/// alternative pipeline slice sizes plus pinned-NT variants.  Arm 0 is
/// always the analytic prior, and arm[i].arm == i.  Pure function of
/// (key, opts, caps), so all ranks enumerate identical tables.
struct ArmTable {
  Plan arm[rt::kPlanMaxArms];
  int n = 0;
};
ArmTable arms(const PlanKey& key, const CollOpts& opts,
              const rt::PlanCaps& caps) noexcept;

// ---- the per-call engine ----------------------------------------------------

/// Resolves a plan at collective entry and (online mode) feeds the
/// measured call time back at exit.  Usage in the switching layer:
///
///   TunedCall tc(ctx, CollKind::allreduce, total, d, op, opts);
///   ... dispatch on tc.plan().algorithm with tc.opts() ...
///   tc.finish(ctx);   // success path only: never from unwinding
///
/// An explicit opts.algorithm or an empty payload never touches the
/// registry: the plan then carries the caller's arm (pipelined for
/// broadcast/allgather) and opts() the caller's options verbatim.
/// finish() is deliberately not run by the destructor: it arrives at a
/// barrier, which must not happen while peers are aborting.
class TunedCall {
 public:
  TunedCall(rt::RankCtx& ctx, CollKind kind, std::size_t msg_bytes,
            Datatype d, ReduceOp op, const CollOpts& opts);

  /// Caller options with the plan folded in (slice/policy overrides).
  const CollOpts& opts() const noexcept { return opts_; }
  const Plan& plan() const noexcept { return plan_; }

  void finish(rt::RankCtx& ctx);

 private:
  CollOpts opts_;       ///< caller's options with the plan applied
  CollOpts base_opts_;  ///< caller's options verbatim (arm tables key on it)
  Plan plan_;
  PlanKey key_;
  rt::PlanSlot* slot_ = nullptr;
  double t0_ = 0;
  int narms_ = 1;  ///< arm-table size; set only for online refinement
  bool online_ = false;
  bool finished_ = true;  ///< also set for calls that bypass the registry
  bool degraded_ = false;     ///< retry engine pinned the conservative lane
  bool quarantined_ = false;  ///< this key is pinned out of rotation
};

/// Packed plan word of the last TunedCall resolved on this thread (0 when
/// none yet).  Thread-local: observability for tests and tools.
std::uint64_t last_plan_word() noexcept;

// ---- parent-side queries ----------------------------------------------------

/// The plan a call with these arguments would serve right now (cached word
/// if present, else the analytic prior).  No side effects; callable from
/// the parent of either backend.
Plan query(const rt::Team& team, CollKind kind, std::size_t msg_bytes,
           Datatype d, ReduceOp op, const CollOpts& opts = {});

rt::PlanRegistryStats tune_stats(const rt::Team& team);

// ---- persistence (yhccl-plan/1) ---------------------------------------------

/// Serialize every plan cached for this team's signature and default
/// options into a "yhccl-plan/1" document.  Save -> load round-trips to
/// identical decisions (and identical JSON).
bench::Json save_plans(const rt::Team& team);
void save_plans_file(const rt::Team& team, const std::string& path);

/// Install plans whose signature/shape match `team`; returns the number
/// installed.  Parent-side only (team quiesced).  Marks the registry warm,
/// so a later $YHCCL_PLAN_FILE does not overwrite the installed plans.
int load_plans(rt::Team& team, const bench::Json& doc);
int load_plans_file(rt::Team& team, const std::string& path);

/// Run the lazy $YHCCL_PLAN_FILE warm-up now, from the parent (the same
/// handshake the first in-run resolve would perform).
void warm_now(rt::Team& team);

/// Throws yhccl::Error unless `doc` is a well-formed yhccl-plan/1 file.
void validate_plan_json(const bench::Json& doc);

/// Offline warming: pick the fastest measured algorithm arm per
/// (collective, shape, size bucket) from a merged yhccl-bench/1 report and
/// emit a plan document (source "bench").  Series whose arm name does not
/// map to a schedulable algorithm (baselines, "auto") are skipped.  Each
/// cell is emitted once per backend, signed with that backend's
/// PlanCaps::signature(), so one file warms thread and process teams
/// alike; the process entries never name direct.
bench::Json warm_from_bench(const bench::Json& bench_report);

}  // namespace yhccl::coll::plan
