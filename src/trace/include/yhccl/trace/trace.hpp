// Intra-collective phase tracing: a shared-memory flight recorder.
//
// One fixed-size single-writer ring buffer per rank lives inside the team's
// MAP_SHARED mapping (plus one "control" ring the parent writes while the
// team is quiesced), so the tracer works identically for thread-backed and
// fork()-backed rank teams: children's records survive their _exit and the
// parent harvests every ring after thread-join, or after acquiring each
// child's posted completion (HeartbeatSlot::done).
//
// The hot path is wait-free and cheap by construction:
//   * a Span's constructor is one thread-local load + one predictable branch
//     when tracing is off (the common case), plus one TSC read when on;
//   * completing a span is one plain 32-byte store into the writer's own
//     ring slot followed by a release store of the ring counter — no RMW,
//     no loads of other ranks' state, never blocks;
//   * rings are strictly single-writer (one per rank), so wraparound simply
//     overwrites the writer's own oldest record: the ring always holds the
//     newest `slots` events, which is exactly what a flight recorder wants.
//
// Activation: TeamConfig::trace, defaulting to $YHCCL_TRACE
// (off | spans | flight).  `flight` records like `spans` and additionally
// dumps the last events of every rank when a run aborts (docs/observability.md).
#pragma once

#include <cstdint>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/common/coll_names.hpp"
#include "yhccl/common/error.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/mc/atomic.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#else
#include <time.h>
#endif

namespace yhccl::trace {

/// Tracing activation level (TeamConfig::trace / $YHCCL_TRACE).
enum class Mode : std::uint8_t {
  env,     ///< resolve from $YHCCL_TRACE at team construction (default off)
  off,     ///< no rings allocated; every hook is a dead branch
  spans,   ///< record phase spans; export on demand / via $YHCCL_TRACE_DIR
  flight,  ///< spans + flight-recorder dump on coherent abort / recover()
};

/// Parse $YHCCL_TRACE (unset/empty -> off; anything else unknown raises).
Mode mode_from_env();
/// TeamConfig::trace resolution: Mode::env defers to mode_from_env().
Mode resolve_mode(Mode cfg);
/// Ring capacity in events per rank: $YHCCL_TRACE_EVENTS rounded up to a
/// power of two and clamped to [64, 2^20]; default 4096.
std::uint32_t slots_from_env();
/// $YHCCL_TRACE_DIR, or nullptr when unset/empty (exports stay in-memory).
const char* trace_dir() noexcept;

/// The span taxonomy (docs/observability.md §2).  One byte in the record.
enum class Phase : std::uint8_t {
  coll,       ///< whole collective call (one per call, coll::collective)
  copy_in,    ///< slice copy into shared memory (bytes, t/nt path, ISA)
  copy_out,   ///< slice copy out of shared memory into the receive buffer
  reduce,     ///< reduce round / fused final reduce (bytes, ISA tier)
  barrier,    ///< barrier arrive..depart (duration == my barrier wait)
  flag_wait,  ///< progress-flag wait (step_wait)
  flag_post,  ///< progress-flag publish (instant)
  fifo,       ///< eager FIFO send/recv/sendrecv (incl. slot spin-waits)
  rndv,       ///< rendezvous post/pull/drain spin-waits
  pagelock,   ///< page-lock acquisition (CMA emulation)
  fault,      ///< instant: abort observed / death injected (variant = site)
  recover,    ///< instant: Team::recover() epoch bump (control ring)
  retry,      ///< instant: resilient run() re-issue (control ring)
  degrade,    ///< instant: retry entered the degraded plan lane
  straggler,  ///< instant: metrics straggler detector flagged a rank
  kCount_,
};

const char* phase_name(Phase p) noexcept;

/// Collective-kind ids stamped into records: 0 = outside any collective,
/// 1 + coll::CollKind otherwise, named by coll::coll_kind_name.
constexpr const char* coll_id_name(std::uint8_t id) noexcept {
  return id == 0 ? ""
                 : coll::coll_kind_name(static_cast<coll::CollKind>(id - 1));
}

/// Algorithm ids in the variant byte of Phase::coll records: coll::Algorithm
/// (0 = auto), named by coll::algorithm_name; the Chrome export and
/// trace_check use it.
constexpr const char* alg_id_name(std::uint8_t id) noexcept {
  return coll::algorithm_name(static_cast<coll::Algorithm>(id));
}

/// Where a fault was raised/injected (variant byte of Phase::fault records).
enum class Site : std::uint8_t {
  unknown = 0,
  barrier,
  flag,
  fifo,
  rndv,
  pagelock,
  slice,
  pipeline,
  liveness,
  kCount_,
};
const char* site_name(Site s) noexcept;
/// Best-effort mapping of a fault_point site / SpinGuard description
/// ("barrier", "barrier wait", "liveness scan", ...) onto a Site.
Site site_from_string(const char* s) noexcept;

/// Record flags.
inline constexpr std::uint8_t kFlagInstant = 1;  ///< point event (t1 == t0)
inline constexpr std::uint8_t kFlagMarker = 2;   ///< in-flight stall marker (t1 == 0)

/// One ring slot: a completed span, an instant, or an in-flight marker.
/// 32 bytes so a ring slot never straddles more cachelines than it must.
struct Rec {
  std::uint64_t t0 = 0;      ///< span begin (trace_now ticks)
  std::uint64_t t1 = 0;      ///< span end; == t0 for instants, 0 for markers
  std::uint64_t arg = 0;     ///< bytes / flag value / barrier ordinal / epoch
  std::uint8_t phase = 0;    ///< Phase
  std::uint8_t coll = 0;     ///< collective-kind id (0 outside a collective)
  std::uint8_t variant = 0;  ///< nt|isa bits, barrier scope, Site, alg id
  std::uint8_t flags = 0;    ///< kFlagInstant / kFlagMarker
  std::uint32_t seq = 0;     ///< per-ring record ordinal (assigned by push)
};
static_assert(sizeof(Rec) == 32, "ring slots must stay 32 bytes");

/// Cheap monotonic timestamp: the TSC on x86 (invariant on every CPU this
/// targets; cross-rank comparable on one node), CLOCK_MONOTONIC elsewhere.
inline std::uint64_t trace_now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#endif
}

/// A tick origin and its ticks-per-second calibration, embedded in the
/// shared headers of the trace and metrics buffers.  The calibration is
/// derived from (trace_now, wall-clock) pairs at start() vs. first use and
/// cached in the shared header, so readers on either side of a fork()
/// convert ticks identically.
struct ClockOrigin {
  std::uint64_t tsc0 = 0;  ///< trace_now() at start()
  double wall0 = 0;        ///< wall_seconds() at start()
  mutable mc::atomic<std::uint64_t> hz_bits{0};  ///< cached calibration

  void start() noexcept;
  double ticks_per_second() const noexcept;
};

/// Variant byte for copy/reduce spans: bit 0 = non-temporal store path,
/// bits 1-2 = ISA tier (copy::IsaTier; passed as int to keep trace a leaf).
constexpr std::uint8_t copy_variant(bool nt, int isa_tier) noexcept {
  return static_cast<std::uint8_t>((nt ? 1u : 0u) |
                                   (static_cast<unsigned>(isa_tier) << 1));
}

/// The per-rank flight-recorder rings, placement-constructed over raw bytes
/// of the team's shared mapping (mirrors analysis::HbChecker).  Layout:
///   [TraceBuffer header][ring 0][ring 1]...[ring nranks]
/// where ring i is [cacheline: atomic next][slots * Rec] and ring `nranks`
/// is the parent-side control ring (recover events; written only while the
/// team is quiesced).  Trivially destructible: the mapping just goes away.
class TraceBuffer {
 public:
  /// Throws yhccl::Error when the ring arena would overflow std::size_t.
  static std::size_t required_bytes(int nranks, std::uint32_t slots);
  /// `slots` must be a power of two (slots_from_env guarantees it).
  static TraceBuffer* create(void* mem, std::size_t bytes, int nranks,
                             std::uint32_t slots, Mode mode);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  int nranks() const noexcept { return nranks_; }
  int nrings() const noexcept { return nranks_ + 1; }
  int control_ring() const noexcept { return nranks_; }
  std::uint32_t slots() const noexcept { return slots_; }
  Mode mode() const noexcept { return mode_; }
  /// Timestamp origin: trace_now() at create; every record is later.
  std::uint64_t t_origin() const noexcept { return clock_.tsc0; }

  /// Append one record (single writer per ring; wait-free).  The release
  /// store of the counter publishes the slot; the hb hook documents the
  /// write-then-harvest edge for the race checker (no-op unless installed).
  void push(int ring, Rec rec) noexcept {
    auto& next = *ring_next(ring);
    const std::uint64_t n = next.load(std::memory_order_relaxed);
    rec.seq = static_cast<std::uint32_t>(n);
    analysis::hb_write(&ring_slot(ring, n & mask_), sizeof(Rec),
                       "trace ring slot");
    ring_slot(ring, n & mask_) = rec;
    analysis::hb_release(&next);
    next.store(n + 1, YHCCL_MC_ORDER(ring_push_release,
                                     std::memory_order_release));
  }

  /// Records ever pushed to `ring` (acquire: pairs with push's release; the
  /// harvesting parent additionally orders via thread-join or the
  /// release/acquire of a forked rank's posted completion).
  std::uint64_t count(int ring) const noexcept {
    return ring_next(ring)->load(std::memory_order_acquire);
  }
  /// First retained ordinal: wraparound keeps the newest `slots` records.
  std::uint64_t first_kept(int ring) const noexcept {
    const std::uint64_t n = count(ring);
    return n > slots_ ? n - slots_ : 0;
  }
  /// Read record ordinal `i` of `ring`; valid for i in [first_kept, count).
  Rec read(int ring, std::uint64_t i) const noexcept {
    analysis::hb_read(&ring_slot(ring, i & mask_), sizeof(Rec),
                      "trace ring slot");
    return ring_slot(ring, i & mask_);
  }

  /// Ticks-per-second calibration for converting record timestamps.
  double ticks_per_second() const noexcept {
    return clock_.ticks_per_second();
  }

 private:
  TraceBuffer() = default;

  mc::atomic<std::uint64_t>* ring_next(int ring) const noexcept {
    return reinterpret_cast<mc::atomic<std::uint64_t>*>(base() +
                                                        ring * stride_);
  }
  Rec& ring_slot(int ring, std::uint64_t slot) const noexcept {
    return *reinterpret_cast<Rec*>(base() + ring * stride_ + kCacheline +
                                   slot * sizeof(Rec));
  }
  std::byte* base() const noexcept {
    return const_cast<std::byte*>(
               reinterpret_cast<const std::byte*>(this)) +
           round_up(sizeof(TraceBuffer), kCacheline);
  }

  int nranks_ = 0;
  std::uint32_t slots_ = 0;
  std::uint64_t mask_ = 0;
  std::size_t stride_ = 0;
  Mode mode_ = Mode::off;
  ClockOrigin clock_;  ///< started at create
};

namespace detail {
/// Per-thread (post-fork: per-process) tracer context installed by
/// Team::run.  Null buf ⇒ every span/instant is a single dead branch.
struct TraceCtx {
  TraceBuffer* buf = nullptr;
  int ring = 0;           ///< my ring index (== rank)
  std::uint8_t coll = 0;  ///< current collective-kind id (0 = none)
};
inline thread_local TraceCtx tl_trace;
}  // namespace detail

/// True when this thread is currently recording (cheap: one TL load).
inline bool active() noexcept { return detail::tl_trace.buf != nullptr; }

/// RAII phase span: timestamp on construction, one ring store on
/// destruction.  Copy/reduce call sites set the variant only when active()
/// so the off path never pays for ISA/NT classification.
class Span {
 public:
  explicit Span(Phase ph, std::uint64_t arg = 0,
                std::uint8_t variant = 0) noexcept
      : buf_(detail::tl_trace.buf), arg_(arg), ph_(ph), var_(variant) {
    if (buf_ == nullptr) return;
    t0_ = trace_now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (buf_ == nullptr) return;
    const auto& c = detail::tl_trace;
    buf_->push(c.ring, Rec{t0_, trace_now(), arg_,
                           static_cast<std::uint8_t>(ph_), c.coll, var_, 0, 0});
  }

  bool active() const noexcept { return buf_ != nullptr; }
  void add_bytes(std::uint64_t n) noexcept { arg_ += n; }
  void set_variant(std::uint8_t v) noexcept { var_ = v; }

 private:
  TraceBuffer* buf_;
  std::uint64_t t0_ = 0;
  std::uint64_t arg_;
  Phase ph_;
  std::uint8_t var_;
};

/// Point event (flag publish, abort site, recover).
inline void instant(Phase ph, std::uint64_t arg = 0,
                    std::uint8_t variant = 0) noexcept {
  auto& c = detail::tl_trace;
  if (c.buf == nullptr) return;
  const std::uint64_t t = trace_now();
  c.buf->push(c.ring, Rec{t, t, arg, static_cast<std::uint8_t>(ph), c.coll,
                          variant, kFlagInstant, 0});
}

/// In-flight stall marker, emitted by SpinGuard once a wait escalates to the
/// sleep stage: a rank wedged inside a span never completes it, and without
/// this the flight dump of the *stuck* rank would end before the stall.
inline void stall_marker(Phase ph) noexcept {
  auto& c = detail::tl_trace;
  if (c.buf == nullptr) return;
  c.buf->push(c.ring, Rec{trace_now(), 0, 0, static_cast<std::uint8_t>(ph),
                          c.coll, 0, kFlagMarker, 0});
}

/// RAII context installer used by Team::run (mirrors FaultRunScope /
/// HbRunScope).  Null buf keeps the context empty: every hook no-ops.
class TraceRunScope {
 public:
  TraceRunScope(TraceBuffer* buf, int ring) noexcept {
    auto& c = detail::tl_trace;
    c.buf = buf;
    c.ring = ring;
    c.coll = 0;
  }
  ~TraceRunScope() { detail::tl_trace = detail::TraceCtx{}; }
  TraceRunScope(const TraceRunScope&) = delete;
  TraceRunScope& operator=(const TraceRunScope&) = delete;
};

}  // namespace yhccl::trace
