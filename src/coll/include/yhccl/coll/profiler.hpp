// Collective profiling (the paper ships a PMPI-based profiling tool with
// YHCCL, §5.1).  Each rank keeps a CollProfiler; wrappers time every
// collective call and attribute its wall time, payload bytes, measured
// data-access volume (DAV) and dispatched ISA kernel tier per collective
// kind.  Per-rank profiles merge
// into a node view whose achieved DAB (DAV / time) can be compared with
// the machine's memory bandwidth — the paper's §5.4 analysis in tool form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "yhccl/bench/json.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/runtime/resilience.hpp"
#include "yhccl/runtime/sync_counts.hpp"
#include "yhccl/trace/export.hpp"

namespace yhccl::coll {

class CollProfiler {
 public:
  struct Record {
    std::uint64_t calls = 0;
    std::uint64_t payload_bytes = 0;  ///< message bytes (user-visible)
    double seconds = 0;               ///< wall time inside the collective
    double wait_seconds = 0;          ///< of which: spin-waiting (tracer)
    copy::Dav dav;                    ///< measured memory traffic
    copy::KernelCounts kernels;       ///< dispatched kernel calls per ISA tier
    rt::SyncCounts sync;              ///< barrier / progress-flag operations
    std::uint64_t skew_barriers = 0;  ///< node barriers with full-team stamps
    double skew_sum = 0;              ///< sum of per-barrier max-min arrival
    double skew_max = 0;              ///< worst single-barrier arrival skew

    /// Achieved data-access bandwidth, bytes/s.
    double dab() const noexcept {
      return seconds > 0 ? static_cast<double>(dav.total()) / seconds : 0;
    }
    /// Wall time minus attributed spin-wait time (clamped at 0: the two
    /// come from different clocks, so tiny payloads can jitter negative).
    double work_seconds() const noexcept {
      const double w = seconds - wait_seconds;
      return w > 0 ? w : 0;
    }
    /// Mean per-barrier arrival skew, seconds.
    double skew_mean() const noexcept {
      return skew_barriers > 0 ? skew_sum / static_cast<double>(skew_barriers)
                               : 0;
    }
  };

  void add(CollKind k, std::size_t payload, double seconds,
           const copy::Dav& dav, const copy::KernelCounts& kernels = {},
           const rt::SyncCounts& sync = {},
           double wait_seconds = 0) noexcept;
  /// Fold a harvested per-barrier skew rollup (max-minus-min rank arrival,
  /// from the phase tracer) into the per-kind records.
  void add_skew(CollKind k, std::uint64_t barriers, double skew_sum,
                double skew_max) noexcept;
  /// Fold the team's retry/degrade/quarantine counters (parent-side — the
  /// retry engine runs outside any rank, so these are per-team, not
  /// per-kind).  Snapshot-merge: pass the *delta* since the last fold.
  void add_resilience(const rt::ResilienceStats& s) noexcept {
    resilience_ += s;
  }
  const rt::ResilienceStats& resilience() const noexcept {
    return resilience_;
  }
  const Record& get(CollKind k) const noexcept;
  Record total() const noexcept;

  /// Merge another rank's profile into this one (times are summed; the
  /// node-level DAB then reflects aggregate traffic over summed time).
  CollProfiler& operator+=(const CollProfiler& o) noexcept;

  void reset() noexcept { *this = CollProfiler{}; }

  /// Human-readable per-kind table.
  std::string report() const;

  /// Machine-readable profile (schema "yhccl-profiler/1"); round-trips
  /// through from_json exactly (integers are exact, doubles via %.17g).
  bench::Json report_json() const;
  static CollProfiler from_json(const bench::Json& j);

 private:
  Record records_[static_cast<int>(CollKind::kCount_)];
  rt::ResilienceStats resilience_;
};

/// Merge a tracer barrier-skew rollup (trace::Harvest::skew()) into the
/// profiler: rollup slot 1+k holds CollKind k (slot 0 = outside any
/// collective, dropped).
void merge_trace_skew(CollProfiler& prof,
                      const trace::SkewRollup& rollup) noexcept;

// ---- profiled wrappers -------------------------------------------------------
// Identical signatures to yhccl::coll with a leading per-rank profiler.

void allreduce(CollProfiler& prof, RankCtx& ctx, const void* send,
               void* recv, std::size_t count, Datatype d, ReduceOp op,
               const CollOpts& opts = {});
void reduce(CollProfiler& prof, RankCtx& ctx, const void* send, void* recv,
            std::size_t count, Datatype d, ReduceOp op, int root,
            const CollOpts& opts = {});
void reduce_scatter(CollProfiler& prof, RankCtx& ctx, const void* send,
                    void* recv, std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts = {});
void broadcast(CollProfiler& prof, RankCtx& ctx, void* buf,
               std::size_t count, Datatype d, int root,
               const CollOpts& opts = {});
void allgather(CollProfiler& prof, RankCtx& ctx, const void* send,
               void* recv, std::size_t count, Datatype d,
               const CollOpts& opts = {});

}  // namespace yhccl::coll
