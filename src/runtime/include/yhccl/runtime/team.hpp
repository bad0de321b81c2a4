// Rank teams: the shared-memory "mini-MPI" the collectives run on.
//
// A Team owns one shared mapping laid out in the Section order below and
// executes SPMD functions over `nranks` ranks.  Two backends exist:
//   ThreadTeam  — ranks are threads (deterministic, XPMEM-faithful)
//   ProcessTeam — ranks are fork()ed processes (the paper's true setting)
// Collective code only ever touches the shared mapping plus rank-private
// buffers, so the same implementation runs unchanged on both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/copy/cache_model.hpp"
#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/metrics/export.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/metrics/sampler.hpp"
#include "yhccl/runtime/channel.hpp"
#include "yhccl/runtime/fault.hpp"
#include "yhccl/runtime/plan_registry.hpp"
#include "yhccl/runtime/remote_access.hpp"
#include "yhccl/runtime/resilience.hpp"
#include "yhccl/runtime/shm_region.hpp"
#include "yhccl/runtime/sync.hpp"
#include "yhccl/runtime/topology.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::rt {

inline constexpr int kMaxRanks = 256;
inline constexpr int kMaxSockets = 16;
inline constexpr int kRegistrySlots = 4;
/// Bytes of one fold stage (coll::Algorithm::fold).  Every team reserves
/// two, on top of TeamConfig::shared_heap_bytes, at construction.
inline constexpr std::size_t kFoldStageBytes = 16u << 10;

// The barriers in sync.hpp and the fault subsystem size their per-rank
// arrays independently (header cycle); a team must never exceed either.
static_assert(kMaxRanks <= static_cast<int>(kMaxBarrierRanks),
              "barrier flag arrays cannot serve kMaxRanks participants");
static_assert(kMaxRanks <= kMaxFaultRanks,
              "fault liveness slots cannot serve kMaxRanks participants");

/// Whether a team runs the happens-before race checker (analysis/hb.hpp).
enum class HbMode : std::uint8_t {
  env,  ///< enabled iff YHCCL_CHECK contains "hb" (read at construction)
  off,
  on,
};

struct TeamConfig {
  int nranks = 4;
  int nsockets = 1;
  copy::CacheConfig cache = copy::CacheConfig::detect();
  std::size_t scratch_bytes = 64u << 20;     ///< collective scratch (shm)
  std::size_t shared_heap_bytes = 48u << 20; ///< persistent user shm heap
  std::size_t chunk_bytes = 16u << 10;       ///< pt2pt eager chunk size
  HbMode hb_check = HbMode::env;             ///< race-checker activation
  /// Watchdog applied via rt::set_sync_timeout at construction: > 0 seconds,
  /// 0 disables, < 0 keeps the process-wide setting (or $YHCCL_SYNC_TIMEOUT
  /// when set).  Note the timeout is process-wide, not per-team.
  double sync_timeout = -1.0;
  /// Phase tracer activation (docs/observability.md); `env` defers to
  /// $YHCCL_TRACE at construction.
  trace::Mode trace = trace::Mode::env;
  /// Auto-tuner plan cache (docs/tuning.md); `env` defers to $YHCCL_TUNE
  /// at construction (unset -> prior, which reproduces the static §5.1
  /// switching rules from the analytic prior).
  TuneMode tune = TuneMode::env;
  /// Automatic retry/fallback on classified faults (docs/robustness.md).
  /// The default defers to $YHCCL_RESILIENCE (unset: 0 retries — run() is
  /// byte-for-byte the legacy rethrow-immediately path).
  ResiliencePolicy resilience;
  /// Always-on metrics registry (docs/observability.md §6); `env` defers
  /// to $YHCCL_METRICS at construction (unset -> off: no section mapped,
  /// every hook a dead branch).
  metrics::Mode metrics = metrics::Mode::env;
};

/// The sections of a team's shared mapping, in mapping order.  Each starts
/// page-aligned where the previous one ends; a service the team runs
/// without (race checker, tracer, metrics) gets an empty section.
enum class Section : std::uint8_t {
  control,    ///< TeamShared
  channels,   ///< nranks² FifoChannel descriptors
  chan_data,  ///< nranks² eager chunk arenas
  heap,       ///< shared heap (TeamConfig::shared_heap_bytes + fold stages)
  scratch,    ///< collective scratch
  hb,         ///< race-checker shadow cells
  trace,      ///< phase-tracer rings
  plans,      ///< plan registry
  metrics,    ///< metrics registry
  kCount_,
};
inline constexpr int kMaxSections = static_cast<int>(Section::kCount_);

/// Integrity header for one section of the team's shared mapping.  Written
/// parent-side while the team is quiesced (construction, recovery) and
/// audited by Team::verify_integrity(): the canary catches wild writes, the
/// epoch-tagged checksum catches bit flips in the header itself.
struct SectionHeader {
  std::uint64_t canary = 0;  ///< kSectionCanary ^ off
  std::uint64_t off = 0;     ///< section offset into the mapping
  std::uint64_t bytes = 0;   ///< section length
  std::uint64_t epoch = 0;   ///< team epoch this header was stamped at
  std::uint64_t sum = 0;     ///< checksum over the four fields above
};

inline constexpr std::uint64_t kSectionCanary = 0x5948434353454354ull;

/// Epoch-tagged header checksum (splitmix64 chain over the fields).
constexpr std::uint64_t section_sum(const SectionHeader& h) noexcept {
  std::uint64_t s = plan_mix64(h.canary);
  s = plan_mix64(s ^ h.off);
  s = plan_mix64(s ^ h.bytes);
  s = plan_mix64(s ^ h.epoch);
  return s != 0 ? s : 1;
}

/// Control block at the start of the shared mapping.
struct TeamShared {
  BarrierState node_barrier;
  BarrierState socket_barrier[kMaxSockets];
  PaddedFlag step[kMaxRanks];  ///< per-rank pipeline progress counters
  PaddedFlag flag[kMaxRanks];  ///< generic per-rank flags
  RemoteWindow registry[kMaxRanks][kRegistrySlots];
  copy::Dav dav_out[kMaxRanks]{};  ///< per-rank DAV of the last run()
  double time_out[kMaxRanks]{};    ///< per-rank wall time of the last run()
  copy::KernelCounts kernels_out[kMaxRanks]{};  ///< per-rank ISA-tier calls
  SyncCounts sync_out[kMaxRanks]{};             ///< per-rank sync-op counts
  alignas(kCacheline) mc::atomic<std::uint64_t> heap_cursor{0};
  struct alignas(kCacheline) Persist {
    std::uint64_t coll_seq = 0;
    std::uint64_t tune_seq = 0;  ///< tuner resolve counter (docs/tuning.md)
    std::uint64_t fold_seq = 0;  ///< fold allreduce calls (stage parity)
    std::uint32_t node_sense = 0;
    std::uint32_t sock_sense = 0;
  };
  Persist persist[kMaxRanks];
  PageLockTable page_locks;  ///< shared lock table for the CMA emulation
  FaultState fault;          ///< abort word + liveness slots (fault.hpp)
  /// Arena section directory, one header per Section (integrity sweep).
  /// Plain data: stamped parent-side while the team is quiesced, read by
  /// verify_integrity().
  SectionHeader sections[kMaxSections];
};

class RankCtx;

class Team {
 public:
  virtual ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Execute `fn` SPMD over all ranks; returns when every rank finished.
  /// Per-rank DAV counters and wall times are captured automatically.
  ///
  /// With a resilience policy attached (TeamConfig::resilience or
  /// $YHCCL_RESILIENCE), a classified fault is handled in place: the team
  /// recovers (integrity-swept + repaired), backs off deterministically and
  /// re-issues `fn`, degrading to conservative collective plans and
  /// quarantining a repeatedly-failing cached plan along the way.  Under
  /// the default 0-retry policy this is byte-for-byte the legacy
  /// fail-fast path.
  void run(const std::function<void(RankCtx&)>& fn);

  const TeamConfig& config() const noexcept { return cfg_; }
  const Topology& topo() const noexcept { return caps_.topo(); }
  /// The team facts plans depend on (plan_registry.hpp).  Ranks share an
  /// address space on thread teams (XPMEM semantics for free), not on
  /// fork()ed ones.  Rebuilt when recovery shrinks the membership.
  const PlanCaps& caps() const noexcept { return caps_; }
  /// Current (active) membership; shrinks when recover() excludes dead
  /// ranks on a process-backed team.
  int nranks() const noexcept { return nranks_; }

  // ---- fault detection & recovery (docs/robustness.md) ---------------------
  /// Recover the team after a failed run(): re-initializes every piece of
  /// shared synchronization state (barriers, progress flags, FIFO channels,
  /// rendezvous descriptors, buffer registry, page locks), clears the abort
  /// word, bumps the team epoch so stale in-flight writes from the faulting
  /// rank are fenced out, and — for process-backed teams — excludes ranks
  /// whose process died (thread-backed ranks always rejoin, restoring full
  /// membership).  Shared-heap allocations survive.  Must be called from the
  /// parent with no run() in flight (run() is synchronous, so any return —
  /// normal or thrown — leaves the team quiesced).  Returns the fault the
  /// team is recovering from (kind none when no abort was raised).
  FaultInfo recover();

  /// The abort raised by the last failed run (kind none if none).
  FaultInfo last_fault() const noexcept {
    return FaultState::unpack(
        shared_->fault.abort_word.load(std::memory_order_acquire));
  }
  /// Current team epoch (bumped by every recover()).
  std::uint64_t team_epoch() const noexcept {
    return shared_->fault.team_epoch.load(std::memory_order_acquire);
  }
  /// Original rank id of current logical rank `r` (identity until a
  /// process-team recovery shrinks the membership).
  int global_rank(int r) const { return active_.at(static_cast<std::size_t>(r)); }
  /// Programmatic route to the YHCCL_FAULT injection layer (tests).
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  const FaultPlan& fault_plan() const noexcept { return fault_plan_; }

  // ---- resilient execution (docs/robustness.md §resume) --------------------
  /// The policy run() retries under (resolved against $YHCCL_RESILIENCE at
  /// construction) and the counters its retry engine maintained so far.
  const ResiliencePolicy& resilience_policy() const noexcept {
    return resilience_;
  }
  void set_resilience_policy(const ResiliencePolicy& p) {
    resilience_ = p.resolved();
  }
  const ResilienceStats& resilience_stats() const noexcept { return rstats_; }
  /// True while re-issues run in the degraded algorithm lane (conservative
  /// plans, no exploration).  Reset on the next successful run().
  bool degraded() const noexcept { return degraded_; }
  void set_degraded(bool d) noexcept { degraded_ = d; }

  /// What verify_integrity() found in one sweep of the shared mapping.
  struct IntegrityReport {
    std::uint64_t sections_checked = 0;
    std::uint64_t plan_slots_checked = 0;
    std::uint64_t channels_checked = 0;
    std::vector<std::string> findings;
    bool ok() const noexcept { return findings.empty(); }
  };

  /// Audit the shared mapping's control state: section-directory canaries
  /// and epoch-tagged checksums, plan-slot structural invariants, FIFO and
  /// rendezvous descriptor sanity.  With `repair`, found damage is fixed in
  /// place (headers re-stamped, bad plan slots wiped, channels re-inited).
  /// Parent-side, team quiesced.  recover() runs a repairing sweep first.
  IntegrityReport verify_integrity(bool repair = false);

  /// Memory every forked rank maps at the same address: the ShmRegion
  /// mappings (this team's own included) the parent held when the last
  /// run() forked.  Empty on thread teams, whose ranks share one address
  /// space; a region a rank creates inside its body is never listed.
  const ShmWindows& windows() const noexcept { return windows_; }

  /// Bump-allocate persistent shared memory (test/app IO buffers).  Valid
  /// in all ranks of both backends; never freed until the Team dies.
  std::byte* shared_alloc(std::size_t bytes, std::size_t align = kCacheline);

  /// Fold stage `parity` (0 or 1): kFoldStageBytes of the shared heap,
  /// reserved at construction.
  std::byte* fold_stage(std::uint64_t parity) noexcept {
    return fold_stage_[parity & 1];
  }

  copy::Dav last_dav(int rank) const { return shared_->dav_out[rank]; }
  double last_time(int rank) const { return shared_->time_out[rank]; }
  copy::KernelCounts last_kernels(int rank) const {
    return shared_->kernels_out[rank];
  }
  SyncCounts last_sync(int rank) const { return shared_->sync_out[rank]; }
  /// Sum of all ranks' DAV for the last run() — the per-node DAV of the
  /// paper's tables.
  copy::Dav total_dav() const;
  /// Sum of all ranks' kernel-dispatch counts for the last run().
  copy::KernelCounts total_kernels() const;
  /// Sum of all ranks' sync-op counts for the last run().
  SyncCounts total_sync() const;
  /// Max of the per-rank wall times (collectives finish at the slowest rank).
  double max_time() const;

  // ---- phase tracer (YHCCL_TRACE, docs/observability.md) -------------------
  /// Non-null when this team traces (mode spans or flight).  The rings live
  /// in the shared mapping, so the parent of a ProcessTeam can harvest them
  /// after the children exited.
  trace::TraceBuffer* trace_buffer() noexcept { return trace_; }
  const trace::TraceBuffer* trace_buffer() const noexcept { return trace_; }
  trace::Mode trace_mode() const noexcept { return trace_mode_; }

  // ---- auto-tuner plan cache (YHCCL_TUNE, docs/tuning.md) ------------------
  /// Never null: every team maps the plan table.  Lives in the shared
  /// mapping: every rank of both backends sees the same table, and cached
  /// plans survive across run() calls.
  PlanRegistry* plan_registry() noexcept { return plans_; }
  const PlanRegistry* plan_registry() const noexcept { return plans_; }
  TuneMode tune_mode() const noexcept { return tune_mode_; }
  /// Identity cached plans are valid for: caps().signature().  Changes
  /// when recovery shrinks the membership, so stale plans from the old
  /// shape simply stop matching.
  std::uint64_t plan_signature() const noexcept { return caps_.signature(); }

  // ---- always-on metrics (YHCCL_METRICS, docs/observability.md §6) ---------
  /// Non-null when this team meters (mode on or serve).  Lives in the
  /// shared mapping: identical for thread- and fork()-backed ranks, and
  /// the parent (or the serve-mode sampler) reads it live.
  metrics::MetricsBuffer* metrics_buffer() noexcept { return metrics_; }
  const metrics::MetricsBuffer* metrics_buffer() const noexcept {
    return metrics_;
  }
  metrics::Mode metrics_mode() const noexcept { return metrics_mode_; }
  /// Run the straggler detector over the current barrier-arrival windows:
  /// newly flagged ranks bump the straggler gauge, land a Phase::straggler
  /// instant on the control ring, and mark every collective kind the team
  /// ran as wait-bound for the tuner.  Called by the serve-mode sampler
  /// every tick; callable directly by tests/tools.
  /// Empty report when metrics are off.
  metrics::StragglerReport straggler_check();

  // ---- happens-before race checker (YHCCL_CHECK=hb) -----------------------
  /// Non-null when this team runs with the vector-clock checker.
  analysis::HbChecker* hb_checker() noexcept { return hb_; }
  /// Races recorded so far (0 when the checker is off).  Works from the
  /// parent of a ProcessTeam too: the counter lives in the shared mapping.
  std::uint64_t hb_races() const;
  /// First race report, empty if none.
  std::string hb_report() const;

  // -- internals used by RankCtx and the collectives ------------------------
  TeamShared& shared() noexcept { return *shared_; }
  std::byte* scratch_base() noexcept { return section(Section::scratch); }
  std::size_t scratch_bytes() const noexcept { return cfg_.scratch_bytes; }
  FifoChannel& channel(int src, int dst) noexcept;
  std::byte* channel_data(int src, int dst) noexcept;
  /// Length of the shared mapping: the end of its last section.
  std::size_t mapping_bytes() const noexcept { return region_.size(); }

 protected:
  /// `forked_ranks`: the backend runs each rank in its own fork()ed process.
  Team(TeamConfig cfg, bool forked_ranks);
  /// Backend hook: execute `wrapped(rank)` once per rank, concurrently.
  virtual void run_ranks(const std::function<void(int)>& wrapped) = 0;

  TeamConfig cfg_;
  /// Ranks are fork()ed processes (enables pid probing and rank exclusion).
  bool forked_ = false;
  int nranks_ = 0;           ///< active membership (≤ cfg_.nranks)
  std::vector<int> active_;  ///< logical rank -> original rank id
  FaultPlan fault_plan_;     ///< parsed from $YHCCL_FAULT at construction
  ResiliencePolicy resilience_;  ///< resolved retry policy
  ResilienceStats rstats_;       ///< parent-side retry/degrade counters
  bool degraded_ = false;        ///< serve conservative plans (both backends
                                 ///< see this: threads share it, forked ranks
                                 ///< inherit it at fork time)
  std::uint64_t fail_hash_ = 0;  ///< plan key of the last faulting attempt
  int fail_streak_ = 0;          ///< consecutive faults on that key
  CorruptTarget corrupt_targets_[kMaxCorruptTargets];
  int n_corrupt_targets_ = 0;
  PlanCaps caps_;
  ShmRegion region_;
  ShmWindows windows_;  ///< frozen by ProcessTeam::run_ranks before fork
  /// Start offset of each Section, then the mapping length.
  std::size_t section_off_[kMaxSections + 1] = {};
  std::size_t heap_bytes_ = 0;  ///< shared heap incl. the fold stages
  std::byte* fold_stage_[2] = {};
  TeamShared* shared_ = nullptr;
  analysis::HbChecker* hb_ = nullptr;
  trace::TraceBuffer* trace_ = nullptr;
  trace::Mode trace_mode_ = trace::Mode::off;
  PlanRegistry* plans_ = nullptr;
  TuneMode tune_mode_ = TuneMode::prior;
  bool flight_dumped_ = false;  ///< one flight dump per fault, not per retry
  metrics::MetricsBuffer* metrics_ = nullptr;
  metrics::Mode metrics_mode_ = metrics::Mode::off;

 private:
  /// The record plans read for a team of this layout on this backend.
  PlanCaps caps_for(const Topology& topo) const noexcept {
    return PlanCaps(topo, cfg_.cache, /*shared_address_space=*/!forked_);
  }
  std::byte* section(Section s) noexcept {
    return region_.data() + section_off_[static_cast<int>(s)];
  }
  /// The nranks² pt2pt channel descriptors, sender-major.
  std::span<FifoChannel> channels() noexcept {
    return {reinterpret_cast<FifoChannel*>(section(Section::channels)),
            static_cast<std::size_t>(cfg_.nranks) * cfg_.nranks};
  }
  /// Write the flight-recorder dump for the abort currently recorded in the
  /// team's fault word (flight mode only; no-op when already dumped).
  void flight_dump();
  /// One attempt of run(): the pre-resilience body, byte for byte.
  void run_once(const std::function<void(RankCtx&)>& fn);
  /// (Re-)write the arena section directory for the current team epoch.
  void stamp_sections();
  /// Retry-engine bookkeeping: track the consecutive-fault streak on the
  /// in-flight plan key and quarantine it once the streak repeats.
  void note_failed_plan(std::uint64_t hash);
  /// Copy the parent-owned aggregates (ResilienceStats, PlanRegistryStats,
  /// epoch, membership) into the shared TeamGauges.  Parent-side, at
  /// quiesced points only — the sampler thread never calls this.
  void metrics_fold_team();
  /// One serve-mode sampler tick: straggler sweep + snapshot export to
  /// $YHCCL_METRICS_DIR (atomic rename) + shm-mirror republish.
  void metrics_tick();
  /// Write yhccl_metrics_<pid>_<n>.{json,prom} into $YHCCL_METRICS_DIR
  /// (`live=true` writes the _live pair via tmp+rename instead).
  void metrics_export(bool live);
  /// Push an instant onto the parent-written control ring.  The sampler
  /// thread shares this ring with run()/recover(), so every push funnels
  /// through here under metrics_mu_ (the ring protocol is single-writer).
  void control_instant(trace::Phase phase, std::uint64_t arg);

  std::uint64_t run_seq_ = 0;  ///< run() ordinal (metrics window grouping)
  std::unique_ptr<metrics::Sampler> sampler_;  ///< serve mode only
  ShmRegion mirror_;           ///< named live-snapshot mirror (serve mode)
  std::mutex metrics_mu_;      ///< serializes control-ring writers
  std::vector<int> last_stragglers_;  ///< dedupe: currently-flagged ranks
  bool trace_dir_warned_ = false;
  bool metrics_dir_warned_ = false;
};

/// Per-rank handle passed to SPMD functions; everything a collective needs.
class RankCtx {
 public:
  RankCtx(Team& team, int rank);

  int rank() const noexcept { return rank_; }
  int nranks() const noexcept { return nranks_; }
  Team& team() noexcept { return *team_; }
  const Team& team() const noexcept { return *team_; }
  const TeamConfig& config() const noexcept { return team_->config(); }
  const copy::CacheConfig& cache() const noexcept {
    return team_->config().cache;
  }

  // Topology shortcuts.
  int nsockets() const noexcept { return team_->topo().nsockets(); }
  int socket() const noexcept { return team_->topo().socket_of(rank_); }
  int socket_rank() const noexcept { return team_->topo().socket_rank(rank_); }
  int socket_size() const noexcept {
    return team_->topo().socket_size(socket());
  }
  int socket_base() const noexcept { return team_->topo().socket_base(socket()); }

  std::byte* scratch() noexcept { return team_->scratch_base(); }
  std::size_t scratch_bytes() const noexcept { return team_->scratch_bytes(); }

  // ---- synchronization ----------------------------------------------------
  void barrier();
  void socket_barrier();

  /// Leave promptly (throwing the team-wide fault) if a peer raised the
  /// abort word.  Collectives call this at slice granularity so compute
  /// phases between synchronizations abort within milliseconds too.
  void check_abort() { fault_poll_abort(); }

  /// Per-call sequence number; identical across ranks because collectives
  /// are invoked in the same order everywhere (MPI semantics).
  std::uint64_t next_seq();

  /// Tuner resolve counter, same cross-rank-identical property as
  /// next_seq(); the online explore schedule hashes it so every rank takes
  /// the same exploration step without communicating (docs/tuning.md).
  std::uint64_t next_tune_seq() { return ++persist_->tune_seq; }

  /// The fold stage of this rank's next fold allreduce.  The two stages
  /// alternate on a per-rank call counter — identical across ranks, like
  /// next_seq() — so call k+2 rewrites call k's stage only after every
  /// rank crossed call k+1's barrier, i.e. after every read of call k.
  std::byte* next_fold_stage() {
    return team_->fold_stage(persist_->fold_seq++);
  }

  /// Publish my pipeline progress (release) / wait on a peer's (acquire).
  /// Values must be strictly increasing within a team epoch; collectives
  /// encode them with step_value(seq, local_step).
  void step_publish(std::uint64_t v);
  void step_wait(int peer, std::uint64_t v);

  /// Monotone encoding of (collective sequence, step-within-collective).
  static constexpr std::uint64_t step_value(std::uint64_t seq,
                                            std::uint64_t step) noexcept {
    return (seq << 32) + step;
  }

  mc::atomic<std::uint64_t>& flag(int rank) noexcept {
    return team_->shared().flag[rank].v;
  }

  // ---- remote buffer registry (XPMEM/CMA) ---------------------------------
  void publish_buffer(int slot, const void* p, std::size_t bytes);
  RemoteBuf remote_buffer(int peer, int slot) const;
  /// Writable pointer to a peer's published buffer, for slots whose owner
  /// publishes memory peers may store into (a receive buffer).  Only
  /// meaningful when the team shares one address space.
  void* remote_target(int peer, int slot) const;
  PageLockTable& page_locks() noexcept { return team_->shared().page_locks; }

  // ---- point-to-point ------------------------------------------------------
  /// Eager two-copy send/recv through a shared-memory FIFO (the classic
  /// MPI intra-node path: copy-in by sender, copy-out by receiver).
  void send(int dst, const void* p, std::size_t n, int tag = 0);
  void recv(int src, void* p, std::size_t n, int tag = 0);

  /// Rendezvous single-copy transfer (kernel-assisted model: the receiver
  /// pulls straight from the sender's buffer).
  void send_zc(int dst, const void* p, std::size_t n);
  void recv_zc(int src, void* p, std::size_t n,
               RemoteMode mode = RemoteMode::direct);

  /// Simultaneous exchange (MPI_Sendrecv).  Interleaves chunk production
  /// and consumption so rings and recursive-halving exchanges cannot
  /// deadlock on FIFO capacity.
  void sendrecv(int dst, const void* sbuf, std::size_t sn, int src,
                void* rbuf, std::size_t rn, int tag = 0);

  /// Rendezvous variant: posts my descriptor, pulls from `src`, then waits
  /// for my own buffer to be drained.
  void sendrecv_zc(int dst, const void* sbuf, std::size_t sn, int src,
                   void* rbuf, std::size_t rn,
                   RemoteMode mode = RemoteMode::direct);

 private:
  Team* team_;
  int rank_;
  int nranks_;
  TeamShared::Persist* persist_;
};

}  // namespace yhccl::rt
