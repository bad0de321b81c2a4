// Always-on shared-memory metrics registry (docs/observability.md §6).
//
// One `[metrics]` section of the team's MAP_SHARED mapping holds a per-rank
// slot of counters, gauges and log2-bucketed latency histograms keyed by
// (collective, algorithm, size bucket).  The hot-path discipline mirrors
// the phase tracer (trace.hpp):
//   * every hook is a thread-local load + one predictable branch when the
//     team runs with metrics off (the default) — no section is mapped, no
//     counter exists, the schedule is bit-identical;
//   * when on, updates are relaxed *single-writer* stores into the rank's
//     own cacheline-padded slot: no RMW, no reads of other ranks' state,
//     zero allocation, wait-free — cheap enough to leave on in production;
//   * everything is mc::atomic, so the atomics lint and the -DYHCCL_MC
//     model checker cover this layer like the rest of src/runtime.
//
// Unlike the tracer (a bounded flight recorder of *events*), this layer is
// a live *aggregate* view: cumulative counters a sampler thread or an
// external `yhccl_top` can read while the team is running.  Readers take
// relaxed snapshots — monotone counters make torn cross-field reads
// benign — and the barrier-arrival sliding window is published with the
// same release-counter protocol as the trace rings.
//
// Activation: TeamConfig::metrics, defaulting to $YHCCL_METRICS
// (off | on | serve); `serve` additionally starts the parent-side sampler
// (sampler.hpp) that exports snapshots and runs the straggler detector.
#pragma once

#include <cstddef>
#include <cstdint>

#include "yhccl/common/coll_names.hpp"
#include "yhccl/common/error.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/mc/atomic.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::metrics {

inline constexpr const char* kMetricsSchema = "yhccl-metrics/1";

/// Metrics activation level (TeamConfig::metrics / $YHCCL_METRICS).
enum class Mode : std::uint8_t {
  env,    ///< resolve from $YHCCL_METRICS at team construction (default off)
  off,    ///< no section mapped; every hook is a dead branch
  on,     ///< live registry; final snapshot export via $YHCCL_METRICS_DIR
  serve,  ///< `on` + sampler thread: periodic export, live shm mirror,
          ///< straggler detection (docs/observability.md §6)
};

/// Parse $YHCCL_METRICS (unset/empty -> off; anything else unknown raises).
Mode mode_from_env();
/// TeamConfig::metrics resolution: Mode::env defers to mode_from_env().
Mode resolve_mode(Mode cfg);
const char* mode_name(Mode m) noexcept;
/// $YHCCL_METRICS_DIR, or nullptr when unset/empty.
const char* metrics_dir() noexcept;
/// $YHCCL_METRICS_INTERVAL_MS clamped to [10, 600000]; default 1000.
int interval_ms_from_env();

// ---- registry geometry ------------------------------------------------------

/// Collective-kind ids: 0 = outside/unknown, 1 + coll::CollKind otherwise —
/// the same convention as trace::coll_id_name.
inline constexpr int kCollSlots = 1 + coll::kCollKindCount;
/// Algorithm ids: 0 = unknown, 1 + coll::Algorithm otherwise.
inline constexpr int kAlgSlots = 1 + coll::kAlgorithmCount;
/// log2 size classes over payload bytes (covers 0 .. >8 GiB).
inline constexpr int kSizeBuckets = 34;
/// log2 latency histogram buckets over TSC ticks.
inline constexpr int kLatBuckets = 32;
/// Barrier-arrival sliding-window capacity per rank (power of two).
inline constexpr int kWindowSlots = 128;
inline constexpr int kCellCount = kCollSlots * kAlgSlots * kSizeBuckets;

/// Slot labels: trace::coll_id_name for kinds, and coll::algorithm_name
/// for algorithms ("?" for slot 0).
constexpr const char* alg_slot_name(int id) noexcept {
  return id == 0 ? "?"
                 : coll::algorithm_name(static_cast<coll::Algorithm>(id - 1));
}

/// log2 bucketing shared by the latency histograms and the size classes:
/// bucket 0 holds exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b); the
/// last bucket absorbs everything above 2^(cap-2) (incl. UINT64_MAX).
constexpr int log2_bucket(std::uint64_t v, int cap) noexcept {
  if (v == 0) return 0;
  int b = 1;
  while (v > 1 && b < cap - 1) {
    v >>= 1;
    ++b;
  }
  return b;
}
constexpr int lat_bucket(std::uint64_t ticks) noexcept {
  return log2_bucket(ticks, kLatBuckets);
}
constexpr int size_bucket(std::uint64_t bytes) noexcept {
  return log2_bucket(bytes, kSizeBuckets);
}
/// Exclusive upper bound of bucket `b` (UINT64_MAX for the last bucket).
constexpr std::uint64_t bucket_limit(int b, int cap) noexcept {
  if (b <= 0) return 1;
  if (b >= cap - 1) return ~0ull;
  return 1ull << b;
}

/// Packed per-collective plan gauge (note_plan): what the tuner served
/// last.  bit 63 = valid, byte 0 = algorithm id, byte 1 = arm, byte 2 =
/// PlanSource, byte 3 = plan-key size bucket.
constexpr std::uint64_t plan_gauge_pack(int alg_id, int arm, int source,
                                        int bucket) noexcept {
  return (1ull << 63) |
         (static_cast<std::uint64_t>(bucket & 0xff) << 24) |
         (static_cast<std::uint64_t>(source & 0xff) << 16) |
         (static_cast<std::uint64_t>(arm & 0xff) << 8) |
         static_cast<std::uint64_t>(alg_id & 0xff);
}
constexpr bool gauge_valid(std::uint64_t g) noexcept { return (g >> 63) != 0; }
constexpr int gauge_alg(std::uint64_t g) noexcept {
  return static_cast<int>(g & 0xff);
}
constexpr int gauge_arm(std::uint64_t g) noexcept {
  return static_cast<int>((g >> 8) & 0xff);
}
constexpr int gauge_source(std::uint64_t g) noexcept {
  return static_cast<int>((g >> 16) & 0xff);
}
constexpr int gauge_bucket(std::uint64_t g) noexcept {
  return static_cast<int>((g >> 24) & 0xff);
}

// ---- shared-memory layout ---------------------------------------------------

/// Single-writer relaxed bump: load + store, no RMW.  Only the owning rank
/// (or the quiesced parent) writes a given counter, so this is exact — and
/// it is the entire hot-path write cost of the metrics layer.
inline void bump(mc::atomic<std::uint64_t>& c, std::uint64_t d = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

/// One (collective, algorithm, size-bucket) accounting cell; coll::collective
/// lands one sample per call in its rank's slot.
struct Cell {
  mc::atomic<std::uint64_t> calls{0};
  mc::atomic<std::uint64_t> bytes{0};
  mc::atomic<std::uint64_t> ticks{0};  ///< summed call latency (trace_now)
  mc::atomic<std::uint64_t> hist[kLatBuckets]{};  ///< log2 latency histogram
};

/// One barrier arrival..depart stamp.  All-atomic so a live sampler read
/// during wraparound is a benign stale value, never a data race.
struct WindowEntry {
  mc::atomic<std::uint64_t> ordinal{0};  ///< (run_seq << 24) | barrier ordinal
  mc::atomic<std::uint64_t> arrive{0};
  mc::atomic<std::uint64_t> depart{0};
};

/// Per-rank metrics slot.  Rank-written fields use relaxed single-writer
/// stores from the hot path; the `runs`/`wall_ns`/`dav_*` cumulatives are
/// folded in by the parent after each run() while the team is quiesced.
struct alignas(kCacheline) RankSlot {
  mc::atomic<std::uint64_t> barriers{0};
  mc::atomic<std::uint64_t> flag_posts{0};
  mc::atomic<std::uint64_t> flag_waits{0};
  mc::atomic<std::uint64_t> barrier_wait_ticks{0};  ///< arrive..depart sums
  mc::atomic<std::uint64_t> plan_gauge[kCollSlots]{};  ///< last served plan
  mc::atomic<std::uint64_t> runs{0};
  mc::atomic<std::uint64_t> wall_ns{0};
  mc::atomic<std::uint64_t> dav_loads{0};
  mc::atomic<std::uint64_t> dav_stores{0};
  /// Node-barrier arrival window: slots published by a release store of
  /// `window_next` (the trace-ring protocol; readers acquire the counter).
  mc::atomic<std::uint64_t> window_next{0};
  WindowEntry window[kWindowSlots];
  Cell cells[kCellCount];
};

/// Team-wide gauges, written only by the parent (under the team's metrics
/// mutex): run counts, membership, and the folded ResilienceStats /
/// PlanRegistryStats so exporters read everything from this one section.
struct alignas(kCacheline) TeamGauges {
  mc::atomic<std::uint64_t> runs{0};
  mc::atomic<std::uint64_t> epoch{0};
  mc::atomic<std::uint64_t> active_ranks{0};
  mc::atomic<std::uint64_t> straggler_flags{0};
  // ResilienceStats mirror (docs/robustness.md).
  mc::atomic<std::uint64_t> rs_faults{0};
  mc::atomic<std::uint64_t> rs_retries{0};
  mc::atomic<std::uint64_t> rs_recoveries{0};
  mc::atomic<std::uint64_t> rs_degrades{0};
  mc::atomic<std::uint64_t> rs_quarantines{0};
  mc::atomic<std::uint64_t> rs_corruptions{0};
  mc::atomic<std::uint64_t> rs_giveups{0};
  mc::atomic<std::uint64_t> rs_heals{0};
  // PlanRegistryStats mirror (docs/tuning.md).
  mc::atomic<std::uint64_t> plan_lookups{0};
  mc::atomic<std::uint64_t> plan_hits{0};
  mc::atomic<std::uint64_t> plan_misses{0};
  mc::atomic<std::uint64_t> plan_inserts{0};
  mc::atomic<std::uint64_t> plan_explores{0};
  mc::atomic<std::uint64_t> plan_commits{0};
  mc::atomic<std::uint64_t> plan_entries{0};
  mc::atomic<std::uint64_t> plan_quarantines{0};
};

/// The per-team metrics registry, placement-constructed over the `[metrics]`
/// section of the shared mapping (mirrors TraceBuffer / PlanRegistry):
///   [MetricsBuffer header][TeamGauges][RankSlot 0]...[RankSlot p-1]
/// Trivially destructible: the mapping just goes away.
class MetricsBuffer {
 public:
  static std::size_t required_bytes(int nranks);
  static MetricsBuffer* create(void* mem, std::size_t bytes, int nranks,
                               Mode mode);

  MetricsBuffer(const MetricsBuffer&) = delete;
  MetricsBuffer& operator=(const MetricsBuffer&) = delete;

  int nranks() const noexcept { return nranks_; }
  Mode mode() const noexcept { return mode_; }
  /// Timestamp origin: trace_now() at create; every stamp is later.
  std::uint64_t t_origin() const noexcept { return clock_.tsc0; }
  /// Ticks-per-second calibration for converting stamps.
  double ticks_per_second() const noexcept {
    return clock_.ticks_per_second();
  }

  TeamGauges& team() const noexcept {
    return *reinterpret_cast<TeamGauges*>(base());
  }
  RankSlot& rank(int r) const noexcept { return slots()[r]; }

  static constexpr int cell_index(int coll, int alg, int szb) noexcept {
    const int c = coll < 0 ? 0 : (coll >= kCollSlots ? kCollSlots - 1 : coll);
    const int a = alg < 0 ? 0 : (alg >= kAlgSlots ? kAlgSlots - 1 : alg);
    const int b = szb < 0 ? 0 : (szb >= kSizeBuckets ? kSizeBuckets - 1 : szb);
    return (c * kAlgSlots + a) * kSizeBuckets + b;
  }
  Cell& cell(int r, int coll, int alg, int szb) const noexcept {
    return rank(r).cells[cell_index(coll, alg, szb)];
  }

 private:
  MetricsBuffer() = default;

  std::byte* base() const noexcept {
    return const_cast<std::byte*>(reinterpret_cast<const std::byte*>(this)) +
           round_up(sizeof(MetricsBuffer), kCacheline);
  }
  RankSlot* slots() const noexcept {
    return reinterpret_cast<RankSlot*>(base() +
                                       round_up(sizeof(TeamGauges),
                                                alignof(RankSlot)));
  }

  int nranks_ = 0;
  Mode mode_ = Mode::off;
  trace::ClockOrigin clock_;  ///< started at create
};

// ---- hot-path hooks ---------------------------------------------------------

namespace detail {
/// Per-thread (post-fork: per-process) metrics context installed by
/// Team::run_once (mirrors trace::TraceCtx).  Null buf ⇒ every hook is a
/// single dead branch.
struct MetricsCtx {
  MetricsBuffer* buf = nullptr;
  int rank = 0;                      ///< my slot index (original rank id)
  std::uint64_t run_seq = 0;         ///< team-wide run() ordinal
  std::uint64_t node_barriers = 0;   ///< node barriers entered this run
};
inline thread_local MetricsCtx tl_metrics;
}  // namespace detail

/// True when this thread is currently metering (one TL load).
inline bool active() noexcept { return detail::tl_metrics.buf != nullptr; }

/// RAII context installer used by Team::run_once (mirrors TraceRunScope).
class RunScope {
 public:
  RunScope(MetricsBuffer* buf, int rank, std::uint64_t run_seq) noexcept {
    auto& c = detail::tl_metrics;
    c.buf = buf;
    c.rank = rank;
    c.run_seq = run_seq;
    c.node_barriers = 0;
  }
  ~RunScope() { detail::tl_metrics = detail::MetricsCtx{}; }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;
};

inline void note_flag_post() noexcept {
  auto& c = detail::tl_metrics;
  if (c.buf == nullptr) return;
  bump(c.buf->rank(c.rank).flag_posts);
}

inline void note_flag_wait() noexcept {
  auto& c = detail::tl_metrics;
  if (c.buf == nullptr) return;
  bump(c.buf->rank(c.rank).flag_waits);
}

/// The tuner's per-collective serving gauge (plan_engine.cpp).
inline void note_plan(int coll_id, std::uint64_t gauge) noexcept {
  auto& c = detail::tl_metrics;
  if (c.buf == nullptr) return;
  const int id =
      coll_id < 0 ? 0 : (coll_id >= kCollSlots ? kCollSlots - 1 : coll_id);
  c.buf->rank(c.rank).plan_gauge[id].store(gauge, std::memory_order_relaxed);
}

/// Barrier arrive..depart accounting, placed inside barrier_arrive /
/// dissemination_arrive next to the trace span.  Every scope counts into
/// `barriers` / `barrier_wait_ticks`; node-scope arrivals additionally land
/// in the sliding window the straggler detector groups by ordinal (socket
/// barriers have per-socket participant sets, so their skew is not
/// team-comparable and stays out of the window).
class BarrierScope {
 public:
  explicit BarrierScope(std::uint8_t trace_scope) noexcept
      : buf_(detail::tl_metrics.buf), node_(trace_scope == 0) {
    if (buf_ == nullptr) return;
    t0_ = trace::trace_now();
  }
  BarrierScope(const BarrierScope&) = delete;
  BarrierScope& operator=(const BarrierScope&) = delete;
  ~BarrierScope() {
    if (buf_ == nullptr) return;
    auto& c = detail::tl_metrics;
    RankSlot& s = buf_->rank(c.rank);
    const std::uint64_t t1 = trace::trace_now();
    bump(s.barriers);
    bump(s.barrier_wait_ticks, t1 - t0_);
    if (!node_) return;
    // Ordinals mix the team-wide run ordinal with the per-run barrier count
    // so arrivals group correctly across run() calls (the per-run counter
    // restarts, the timestamps do not).
    const std::uint64_t ord =
        (c.run_seq << 24) | (++c.node_barriers & 0xffffffull);
    const std::uint64_t n = s.window_next.load(std::memory_order_relaxed);
    WindowEntry& w = s.window[n & (kWindowSlots - 1)];
    w.ordinal.store(ord, std::memory_order_relaxed);
    w.arrive.store(t0_, std::memory_order_relaxed);
    w.depart.store(t1, std::memory_order_relaxed);
    // The trace-ring publish protocol (and its WeakPoint): slot stores
    // ordered before a release store of the counter; readers acquire it.
    s.window_next.store(n + 1, YHCCL_MC_ORDER(ring_push_release,
                                              std::memory_order_release));
  }

 private:
  MetricsBuffer* buf_;
  std::uint64_t t0_ = 0;
  bool node_;
};

}  // namespace yhccl::metrics
