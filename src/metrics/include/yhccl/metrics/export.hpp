// Metrics snapshot readers and exporters (docs/observability.md §6).
//
// Snapshot::capture lifts the live shared registry into plain values —
// acquire on each rank's window counter, relaxed on the monotone counters
// (torn cross-field reads are benign; a quiesced capture is exact).  On top
// of the snapshot sit the two export formats (the `yhccl-metrics/1` JSON
// schema and Prometheus text exposition), their validators (bench/
// metrics_check), the snapshot merger for multi-process artifacts, the
// MAD-based straggler detector, the `yhccl_top` renderer, and the seqlock
// shm mirror a live `serve` team publishes for external attach.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "yhccl/bench/json.hpp"
#include "yhccl/metrics/metrics.hpp"

namespace yhccl::metrics {

// ---- plain-value snapshot ---------------------------------------------------

struct CellSnap {
  int coll = 0;
  int alg = 0;
  int size_bucket = 0;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ticks = 0;
  std::uint64_t hist[kLatBuckets] = {};
};

struct WindowSnap {
  std::uint64_t ordinal = 0;
  std::uint64_t arrive = 0;
  std::uint64_t depart = 0;
};

struct RankSnap {
  int rank = 0;
  std::uint64_t barriers = 0;
  std::uint64_t flag_posts = 0;
  std::uint64_t flag_waits = 0;
  std::uint64_t barrier_wait_ticks = 0;
  std::uint64_t plan_gauge[kCollSlots] = {};
  std::uint64_t runs = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t dav_loads = 0;
  std::uint64_t dav_stores = 0;
  std::vector<WindowSnap> window;  ///< oldest..newest, at most kWindowSlots
  std::vector<CellSnap> cells;     ///< non-empty cells only
};

/// TeamGauges mirror, plain values.
struct TeamSnap {
  std::uint64_t runs = 0;
  std::uint64_t epoch = 0;
  std::uint64_t active_ranks = 0;
  std::uint64_t straggler_flags = 0;
  std::uint64_t rs_faults = 0, rs_retries = 0, rs_recoveries = 0,
                rs_degrades = 0, rs_quarantines = 0, rs_corruptions = 0,
                rs_giveups = 0, rs_heals = 0;
  std::uint64_t plan_lookups = 0, plan_hits = 0, plan_misses = 0,
                plan_inserts = 0, plan_explores = 0, plan_commits = 0,
                plan_entries = 0, plan_quarantines = 0;
};

struct Snapshot {
  int pid = 0;
  int nranks = 0;
  double ticks_per_second = 0;
  std::uint64_t t_origin = 0;
  TeamSnap team;
  std::vector<RankSnap> ranks;
  std::vector<int> stragglers;  ///< ranks currently flagged by the detector

  /// Lift the live registry; exact when the team is quiesced, benignly
  /// torn (monotone per-counter) while ranks are running.
  static Snapshot capture(const MetricsBuffer& buf);

  /// The `yhccl-metrics/1` document (all counters exact int64; times stay
  /// in ticks + the ticks_per_second calibration, so it round-trips).
  bench::Json to_json() const;
  static Snapshot from_json(const bench::Json& j);

  /// Prometheus text exposition: per-rank counters, per-(coll,alg)
  /// latency histograms with cumulative log2 `le` edges in seconds,
  /// team/resilience/plan counters and gauges.
  std::string prometheus() const;

  /// Fold another snapshot in (multi-process artifact merge): counters and
  /// cells sum, gauges take the maximum, windows/stragglers drop (they are
  /// only meaningful within one live team).
  void merge(const Snapshot& o);
};

// ---- validators (bench/metrics_check) ---------------------------------------

/// Structural validation of a `yhccl-metrics/1` document: schema tag,
/// rank-array shape, name-table membership, bucket ranges, histogram
/// arity.  Counter *exactness* is deliberately not checked here — live
/// captures may be torn — the quiesced-parity test asserts it instead.
bool validate_metrics_json(const bench::Json& j, std::string* err = nullptr);

/// Prometheus text-format validation: HELP/TYPE grammar, every sample
/// names a declared metric of a declared type, histogram series carry
/// `le`, end at `+Inf`, and are cumulative-monotone.
bool validate_prometheus(const std::string& text, std::string* err = nullptr);

// ---- straggler detection ----------------------------------------------------

/// Rolling barrier-arrival anomaly detector.  A rank's time to a node
/// barrier is its arrival minus its own departure from the previous node
/// barrier of the same run, so being released late (spawn skew, a wake-up
/// from the backoff's sleep stage) is never charged to it; a run's first
/// node barrier has no such departure and is never examined.  The detector
/// groups these times by barrier ordinal, keeps ordinals stamped by
/// *every* rank with window data (full-team), measures each rank's mean
/// signed deviation from the per-ordinal median, and flags ranks whose
/// deviation exceeds the median deviation by max(k * MAD, min_seconds).
struct StragglerReport {
  struct RankVerdict {
    int rank = 0;
    double mean_dev_seconds = 0;  ///< signed; positive = slower
    bool flagged = false;
  };
  std::vector<RankVerdict> ranks;
  std::vector<int> flagged;
  int ordinals = 0;  ///< full-team barrier ordinals the verdict is based on
};
StragglerReport detect_stragglers(const Snapshot& s, double k = 4.0,
                                  double min_seconds = 2e-4);

// ---- yhccl_top renderer -----------------------------------------------------

/// One refresh frame: team header, resilience/plan counters, a per-rank
/// wait/work/skew table (rates against `prev` when given) and per-
/// (coll,alg) histogram summaries.  Pure string building — the CLI owns
/// cursor control.
std::string render_top(const Snapshot& snap, const Snapshot* prev = nullptr,
                       bool color = true);

// ---- live shm mirror (`serve` mode) -----------------------------------------
//
// The sampler republishes each JSON snapshot into a named shm segment
// ("/yhccl-metrics-<pid>") through a seqlock header, so `yhccl_top <pid>`
// attaches read-only from outside the process.  Single writer (the
// sampler); readers retry on odd/changed sequence.

inline constexpr std::size_t kMirrorBytes = std::size_t{4} << 20;

std::string mirror_shm_name(int pid);

struct MirrorHeader {
  mc::atomic<std::uint64_t> seq{0};    ///< seqlock: odd = write in progress
  mc::atomic<std::uint64_t> bytes{0};  ///< payload length
};

/// Publish `text` into the mirror segment (header + payload).  Returns
/// false (and publishes nothing) when the payload would not fit.
bool mirror_publish(void* mem, std::size_t cap,
                    const std::string& text) noexcept;

/// Seqlock-consistent read of the mirror payload; false when empty, torn
/// past the retry budget, or the segment is malformed.
bool mirror_read(const void* mem, std::size_t cap, std::string& out);

}  // namespace yhccl::metrics
