// Internal helpers shared by the collective implementations.
#pragma once

#include <algorithm>
#include <cstddef>

#include "yhccl/common/error.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/coll/coll.hpp"

namespace yhccl::coll::detail {

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

// ---- the arm bodies ---------------------------------------------------------
// Each runs one arm of the arm table (yhccl/coll/arm_table.hpp), which is
// their only caller besides socket-MA's flat fallback and the XPMEM
// baseline: user code names an arm through CollOpts::algorithm.  The
// buffer semantics are the generic entry points' (coll.hpp).

void ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                       std::size_t count, Datatype d, ReduceOp op,
                       const CollOpts& opts);
void ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                  std::size_t count, Datatype d, ReduceOp op,
                  const CollOpts& opts);
void ma_reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, int root, const CollOpts& opts);

/// Two-level socket-aware MA; the flat arm's schedule when the sockets do
/// not divide the ranks.
void socket_ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts);
void socket_ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d, ReduceOp op,
                         const CollOpts& opts);
void socket_ma_reduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op, int root,
                      const CollOpts& opts);

void dpml_two_level_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                                   std::size_t count, Datatype d, ReduceOp op,
                                   const CollOpts& opts);
void dpml_two_level_allreduce(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts);
void dpml_two_level_reduce(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           int root, const CollOpts& opts);

/// One barrier per call: stage my s bytes, sync once, fold all p slots in
/// rank order into `recv`.  Requires s <= fold_max_bytes(p).
void fold_allreduce(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts);

void pipelined_broadcast(RankCtx& ctx, void* buf, std::size_t count,
                         Datatype d, int root, const CollOpts& opts);
void pipelined_allgather(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d, const CollOpts& opts);

/// Single-copy allreduce over peers' own buffers: rank r reduces block r
/// of every send buffer, in rank order, into its recv, then copies the
/// other blocks from their owners' recv buffers (pull, three barriers), or
/// above the private-cache cut 2ps > p·c'' streams its block into every
/// peer's recv (push, two barriers).  DAV s(3p-1) either way.  Requires
/// ranks that share an address space, or every rank's send and recv in a
/// shared window (rt::Team::windows()).  `xpmem_baseline` pins the XPMEM
/// baseline's semantics: the pull schedule at every size and a temporal
/// reduce store whatever opts.policy says (base::xpmem_allreduce pairs it
/// with CopyPolicy::memmove_model).  False only on a negative verdict
/// under DirectMiss::fall_back.
bool direct_allreduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op,
                      const CollOpts& opts, bool xpmem_baseline,
                      DirectMiss miss);

/// Single-copy reduce_scatter: rank r reduces block r of every send
/// buffer, in rank order, into its recv, slice by slice, then passes a
/// trailing barrier.  DAV (p+1)s over the input s, two barriers.  In place
/// when recv is block r of send.  Requires what direct_allreduce does, for
/// the send buffers; returns as it does.
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
