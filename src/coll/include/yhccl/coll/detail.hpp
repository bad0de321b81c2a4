// Internal helpers shared by the collective implementations.
#pragma once

#include <algorithm>
#include <cstddef>

#include "yhccl/common/error.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll::detail {

/// Collective-kind id stamped into trace records (trace::Rec::coll):
/// 1 + CollKind, because 0 means "outside any collective".
constexpr std::uint8_t trace_coll_id(CollKind k) noexcept {
  static_assert(static_cast<int>(CollKind::kCount_) + 1 <=
                    trace::kMaxCollIds,
                "trace coll-id byte cannot hold every CollKind");
  return static_cast<std::uint8_t>(1 + static_cast<int>(k));
}

/// Algorithm id for the trace's coll-span variant byte.
constexpr std::uint8_t trace_alg_id(Algorithm a) noexcept {
  static_assert(static_cast<int>(Algorithm::direct) < trace::kMaxAlgIds,
                "trace alg-id table cannot hold every Algorithm");
  return static_cast<std::uint8_t>(a);
}

/// Blocked slice geometry for the sliced-reduction problem (§3.1).
///
/// The message is split into `parts` ownership *blocks* of (nominal) B
/// bytes; block l belongs to logical slice group G_l.  Large blocks are
/// processed in rounds: round t covers sub-range [t*I, t*I+I) of *every*
/// block, so the shared buffer only ever holds parts*I bytes and stays
/// cache-resident (§3.3: "performs reduce-scatter multiple times to keep
/// the data slice sufficiently small to be cached").
///
/// I = clamp(B, Imin, Imax) rounded up to a cache line, which is a
/// multiple of every supported element size (§5.1).
struct BlockSlicing {
  std::size_t total = 0;  ///< message bytes
  std::size_t block = 0;  ///< B: nominal block size (last may be ragged)
  std::size_t slice = 0;  ///< I: bytes of one block processed per round
  std::size_t nrounds = 0;

  /// For reduce-scatter the block size is fixed by the API (count*esize);
  /// for allreduce/reduce we pick B = ceil(total/parts) cacheline-aligned.
  static BlockSlicing with_block(std::size_t total_bytes,
                                 std::size_t block_bytes,
                                 const CollOpts& opts) {
    BlockSlicing s;
    s.total = total_bytes;
    s.block = block_bytes;
    const std::size_t imax =
        std::max(round_up(opts.slice_max, kCacheline), kCacheline);
    const std::size_t imin = std::max(opts.slice_min, kCacheline);
    s.slice = std::clamp(
        round_up(std::max<std::size_t>(block_bytes, 1), kCacheline), imin,
        imax);
    s.nrounds = std::max<std::size_t>(ceil_div(block_bytes, s.slice), 1);
    return s;
  }

  static BlockSlicing partitioned(std::size_t total_bytes, int parts,
                                  const CollOpts& opts) {
    const std::size_t b = round_up(
        ceil_div(total_bytes, static_cast<std::size_t>(parts)), kCacheline);
    return with_block(total_bytes, std::max<std::size_t>(b, kCacheline),
                      opts);
  }

  /// Actual bytes of block `l` (ragged tail aware).
  std::size_t block_len(std::size_t l) const noexcept {
    const std::size_t start = l * block;
    return start >= total ? 0 : std::min(block, total - start);
  }

  /// Bytes of block l's round-t sub-slice.
  std::size_t len(std::size_t l, std::size_t t) const noexcept {
    const std::size_t bl = block_len(l);
    const std::size_t start = t * slice;
    return start >= bl ? 0 : std::min(slice, bl - start);
  }

  /// Offset of block l's round-t sub-slice within the whole message.
  std::size_t off(std::size_t l, std::size_t t) const noexcept {
    return l * block + t * slice;
  }

  /// Offset within block (== offset in a per-rank receive buffer).
  std::size_t off_in_block(std::size_t t) const noexcept { return t * slice; }
};

/// Paper work-data-size (W) formulas, §4.3.  `s` is the message size in
/// bytes, `p` ranks, `m` sockets, `I` the slice size.
struct WorkSet {
  static std::size_t reduce_scatter(std::size_t s, int p, std::size_t I) {
    return s * static_cast<std::size_t>(p) + s +
           static_cast<std::size_t>(p) * I;
  }
  static std::size_t allreduce(std::size_t s, int p, int m, std::size_t I) {
    return 2 * s * static_cast<std::size_t>(p) +
           static_cast<std::size_t>(m) * static_cast<std::size_t>(p) * I;
  }
  static std::size_t reduce(std::size_t s, int p, int m, std::size_t I) {
    return s * static_cast<std::size_t>(p) + s +
           static_cast<std::size_t>(m) * static_cast<std::size_t>(p) * I;
  }
  static std::size_t broadcast(std::size_t s, int p, std::size_t I) {
    return s * static_cast<std::size_t>(p) + 2 * I;
  }
  static std::size_t allgather(std::size_t s, int p, std::size_t I) {
    const auto pp = static_cast<std::size_t>(p);
    return s * pp + s * pp * pp + 2 * pp * I;
  }
  /// Single-copy allreduce: p send buffers plus p receive buffers, no
  /// shared-memory slices.
  static std::size_t direct_allreduce(std::size_t s, int p) {
    return 2 * s * static_cast<std::size_t>(p);
  }
  /// Single-copy reduce_scatter over per-rank inputs of s bytes: p send
  /// buffers plus the p receive blocks.
  static std::size_t direct_reduce_scatter(std::size_t s, int p) {
    return s * static_cast<std::size_t>(p) + s;
  }
};

/// The ranks' private caches, p·c'': the only place a line one rank
/// stores into a peer's buffer can be reused from when the LLC is
/// non-inclusive and the writer never reads it back.
inline std::size_t private_caches(int p, const copy::CacheConfig& cache) {
  return static_cast<std::size_t>(p) * cache.l2_per_core;
}

/// Does the direct allreduce run its push schedule?  Yes when its work
/// set W = 2ps outgrows the private caches p·c'' (docs/algorithms.md).
/// Pure in (s, p, cache), so every rank takes the same schedule.
inline bool direct_pushes(std::size_t s, int p,
                          const copy::CacheConfig& cache) {
  return WorkSet::direct_allreduce(s, p) > private_caches(p, cache);
}

/// What a direct arm does when its window verdict is negative (some
/// rank's buffers are not in a shared window of a forked team): return
/// false before touching any peer's buffer, so the caller runs the §5.1
/// staged arm (a plan served direct), or throw the same yhccl::Error on
/// every rank (the caller named direct).
enum class DirectMiss { raise, fall_back };

/// The direct allreduce (coll::direct_allreduce).  `xpmem_baseline` pins
/// the XPMEM baseline's semantics: the pull schedule at every size and a
/// temporal reduce store whatever opts.policy says (base::xpmem_allreduce
/// pairs it with CopyPolicy::memmove_model).  False only on a negative
/// verdict under DirectMiss::fall_back.
bool direct_allreduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op,
                      const CollOpts& opts, bool xpmem_baseline,
                      DirectMiss miss);

/// The direct reduce_scatter (coll::direct_reduce_scatter); returns as
/// direct_allreduce does.
bool direct_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           const CollOpts& opts, DirectMiss miss);

/// Validate buffers/args shared by every reduction collective.
inline void check_reduction_args(RankCtx& ctx, const void* send,
                                 std::size_t count, Datatype d, ReduceOp op) {
  YHCCL_REQUIRE(op_valid_for(op, d), "reduce op invalid for datatype");
  YHCCL_REQUIRE(send != nullptr || count == 0, "null send buffer");
  (void)ctx;
}

/// Scratch carve-out with bounds checking; all ranks compute identical
/// offsets so the same address results everywhere.
class ScratchCarver {
 public:
  explicit ScratchCarver(RankCtx& ctx)
      : base_(ctx.scratch()), cap_(ctx.scratch_bytes()) {}

  std::byte* take(std::size_t bytes) {
    const std::size_t off = round_up(used_, kCacheline);
    YHCCL_REQUIRE(off + bytes <= cap_,
                  "collective scratch exhausted; raise "
                  "TeamConfig::scratch_bytes or lower slice_max");
    used_ = off + bytes;
    return base_ + off;
  }

 private:
  std::byte* base_;
  std::size_t cap_;
  std::size_t used_ = 0;
};

}  // namespace yhccl::coll::detail
