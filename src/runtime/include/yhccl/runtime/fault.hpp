// Team-wide fault detection, coherent abort propagation, and deterministic
// fault injection (docs/robustness.md).
//
// Three cooperating pieces, all living in the team's MAP_SHARED mapping so
// they work identically for thread- and fork()-backed ranks:
//
//  * Liveness slots — one cacheline per rank: a heartbeat counter bumped on
//    every backoff step / fault point, the rank's current collective
//    sequence number, its pid, two tombstones (`left`: the rank exited
//    the SPMD function; `dead`: its process died — written by the parent's
//    reaped-child bookkeeping or by the injector) and a forked rank's posted
//    completion (`done`).  Watchdog expiries are classified against these
//    slots into PeerDead / PeerDiverged / Timeout instead of one generic
//    "sync timeout" error.
//
//  * The abort word — a single epoch-stamped word the *first* detecting
//    rank CASes from 0.  Every spin loop polls it, so all survivors leave
//    the collective within milliseconds of first detection (instead of each
//    serially burning its own full watchdog) and all throw a yhccl::Error
//    naming the same faulting rank and team epoch.  Stale aborts from a
//    previous team epoch are ignored; Team::recover() clears the word and
//    bumps the epoch.
//
//  * Deterministic injection — YHCCL_FAULT=action@site[:rank=R][:iter=N]
//    [:ms=M] (e.g. `die@barrier:rank=2:iter=3`, `stall@flag:rank=1:ms=50`)
//    makes the R-th rank die or stall at the N-th time it passes the named
//    fault point within one Team::run.  Sites are threaded through the sync
//    primitives (`barrier`, `flag`, `fifo`, `rndv`, `pagelock`) and the
//    collective slice loops (`slice`, `pipeline`), replacing the ad-hoc
//    early-return kill logic the failure tests used to hand-roll.
#pragma once

#include <cstdint>
#include <string>

#include "yhccl/common/error.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/mc/atomic.hpp"

namespace yhccl::rt {

/// Mirrors rt::kMaxRanks (team.hpp static_asserts they stay compatible;
/// kept separate to avoid a header cycle, like kMaxBarrierRanks).
inline constexpr int kMaxFaultRanks = 256;

/// Exit code a fork()-backed rank dies with under `die@...` injection;
/// the parent's reap bookkeeping treats it like a signal death.
inline constexpr int kDieExitCode = 86;

/// What one aborted collective reports — identical on every survivor.
struct FaultInfo {
  FaultKind kind = FaultKind::none;
  int rank = -1;            ///< faulting rank (-1 unknown)
  std::uint64_t epoch = 0;  ///< team epoch the fault was raised in
};

/// One-line human description ("rank 2 died (team epoch 1)").
std::string describe_fault(const FaultInfo& f);

/// Per-rank liveness slot (shared mapping).
struct alignas(kCacheline) HeartbeatSlot {
  mc::atomic<std::uint64_t> beat{0};  ///< bumps while the rank makes progress
  mc::atomic<std::uint64_t> seq{0};   ///< last collective sequence entered
  mc::atomic<std::uint64_t> epoch{0}; ///< team epoch the rank runs under
  mc::atomic<int> pid{0};             ///< rank pid (== parent for threads)
  mc::atomic<std::uint8_t> left{0};   ///< rank exited the SPMD function
  mc::atomic<std::uint8_t> dead{0};   ///< rank process died (reap/probe)
  /// A forked rank's posted completion (1 ok, 2 failed), release-stored
  /// after its last write to the team mapping; ProcessTeam's run() returns
  /// on it instead of on the rank's reaping.
  mc::atomic<std::uint8_t> done{0};
};
static_assert(sizeof(HeartbeatSlot) == kCacheline,
              "a liveness slot is one cache line");

/// Fault-detection state embedded in TeamShared.
struct FaultState {
  /// Packed abort word: (epoch << 32) | ((rank + 1) << 8) | kind.
  /// 0 ⇔ no abort raised.  First CAS from 0 wins; later detectors adopt
  /// the winner's verdict so every survivor reports the same fault.
  alignas(kCacheline) mc::atomic<std::uint64_t> abort_word{0};
  /// Bumped by Team::recover(); stale ranks (and stale abort words) from
  /// earlier epochs are fenced out by comparing against it.
  alignas(kCacheline) mc::atomic<std::uint64_t> team_epoch{1};
  /// Number of times the injection plan fired, across runs and retries.
  /// `:once=1` plans consult it so a self-healing retry is not re-killed.
  alignas(kCacheline) mc::atomic<std::uint64_t> inject_fired{0};
  HeartbeatSlot hb[kMaxFaultRanks];

  static std::uint64_t pack(const FaultInfo& f) noexcept {
    return (f.epoch << 32) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.rank + 1) &
                                       0xffffffu)
            << 8) |
           static_cast<std::uint64_t>(f.kind);
  }
  static FaultInfo unpack(std::uint64_t w) noexcept {
    if (w == 0) return {};
    FaultInfo f;
    f.kind = static_cast<FaultKind>(w & 0xff);
    f.rank = static_cast<int>((w >> 8) & 0xffffffu) - 1;
    f.epoch = w >> 32;
    return f;
  }
};

/// Deterministic fault-injection plan, parsed from the YHCCL_FAULT grammar
///   action '@' site (':' key '=' value)*
/// with action ∈ {die, stall, corrupt}, keys rank (default: any rank), iter
/// (default 0: the first matching hit), ms (stall bound; default: stall
/// until the team aborts, capped at a few multiples of the watchdog), off
/// (corrupt: byte offset into the target section, default 0) and once
/// (fire at most once per team lifetime — across runs and resilient
/// retries — so a self-healing retry is not re-injected).
///
/// For die/stall, `site` names a call site threaded through the sync
/// primitives (`barrier`, `flag`, `fifo`, `rndv`, `pagelock`, `slice`,
/// `pipeline`).  For corrupt, `site` instead names a *shared section* to
/// damage (`plans`, `fifo`, `arena`): the plan fires at the iter-th fault
/// point the matching rank passes, whatever its call site, and flips one
/// byte of the section's validated control words — exercising exactly the
/// integrity checks docs/robustness.md documents.
struct FaultPlan {
  enum class Action : std::uint8_t { none = 0, die, stall, corrupt };
  Action action = Action::none;
  std::string site;
  int rank = -1;           ///< -1: any rank
  std::uint64_t iter = 0;  ///< trigger on the iter-th matching hit (per run)
  double stall_ms = -1;    ///< <0: stall until aborted (bounded)
  std::uint64_t corrupt_off = 0;  ///< corrupt: byte offset into the section
  bool once = false;       ///< fire at most once per team lifetime

  bool active() const noexcept { return action != Action::none; }
  /// Parse a spec; throws yhccl::Error on grammar errors.
  static FaultPlan parse(const std::string& spec);
  /// Parse $YHCCL_FAULT (inactive plan when unset).
  static FaultPlan from_env();
};

/// Thrown by a `die` injection on thread-backed ranks.  Deliberately NOT
/// derived from std::exception so it unwinds through user catch blocks and
/// reaches the team backend, which treats it as the rank's death (thread
/// teams swallow it; fork()-backed ranks _exit(kDieExitCode) at the
/// injection point without unwinding at all, like a real crash).
struct FaultInjectedDeath {
  int rank = -1;
  const char* site = nullptr;
};

/// One corruptible shared section a `corrupt@<name>` plan can target: the
/// team installs pointers to each section's *validated* control words (plan
/// slot headers, FIFO head/tail counters, the arena section directory), so
/// a flipped byte always lands on state some integrity check covers.
struct CorruptTarget {
  const char* name = nullptr;
  unsigned char* base = nullptr;
  std::size_t bytes = 0;
};

inline constexpr int kMaxCorruptTargets = 8;

namespace detail {
/// Per-thread (post-fork: per-process) fault context installed by Team::run
/// for the duration of one SPMD function.  Null st ⇒ every hook is a no-op.
struct FaultCtx {
  FaultState* st = nullptr;
  const FaultPlan* plan = nullptr;
  int rank = 0;
  int nranks = 0;
  std::uint64_t epoch = 0;  ///< team epoch this run started under
  bool forked = false;      ///< ranks are processes (enables pid probing)
  std::uint64_t hits = 0;   ///< matching fault-point hits so far this run
  const CorruptTarget* targets = nullptr;  ///< corrupt@ section table
  int ntargets = 0;
};
extern thread_local FaultCtx tl_fault;

/// Bump my heartbeat (called from every backoff step).
inline void fault_heartbeat() noexcept {
  auto& c = tl_fault;
  if (c.st != nullptr)
    c.st->hb[c.rank].beat.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

/// RAII context installer used by Team::run.  The destructor marks the
/// rank's `left` tombstone: a rank that exited the SPMD function (normally
/// or by exception) will never arrive at a peer's barrier again, which is
/// what the PeerDead classification keys on for thread-backed teams.
class FaultRunScope {
 public:
  FaultRunScope(FaultState& st, const FaultPlan& plan, int rank, int nranks,
                std::uint64_t epoch, bool forked,
                const CorruptTarget* targets = nullptr,
                int ntargets = 0) noexcept;
  ~FaultRunScope();
  FaultRunScope(const FaultRunScope&) = delete;
  FaultRunScope& operator=(const FaultRunScope&) = delete;
};

// ---- hooks threaded through the runtime and collectives --------------------

/// Throw if the team's abort word is raised for my epoch.  No-op without an
/// installed context.  Every spin loop's backoff calls this; collectives
/// also call it at slice granularity so compute-heavy phases abort promptly.
void fault_poll_abort();

/// Named injection + liveness point: bumps my heartbeat, fences out stale
/// epochs, polls the abort word, and fires the fault plan when (site, rank,
/// iter) match.  Cheap no-op without an installed context.
void fault_point(const char* site);

/// Scan peers' `dead` tombstones (written by the parent's wait loop the
/// moment a child exits without posting `done`, reaped at once); classify +
/// raise on the first hit so a real process death is detected at reap
/// latency, not watchdog latency.
void fault_check_dead();

/// Watchdog expiry: classify the failure against the liveness slots, CAS
/// the abort word (first detector wins; losers adopt the winner's verdict)
/// and throw.  Falls back to a generic timeout error without a context.
[[noreturn]] void fault_timeout(const char* what);

/// A read-side integrity check tripped: raise a team-wide abort classified
/// as FaultKind::corruption (blaming the detecting rank's epoch; the
/// corruption itself has no attributable rank) and throw.  Falls back to a
/// plain corruption error without an installed context, so standalone
/// validators (verify_integrity, protocol engines under the model checker)
/// can use the same entry point.
[[noreturn]] void fault_raise_corruption(const char* what);

}  // namespace yhccl::rt
