// YHCCL public collective API (the paper's contribution).
//
// Generic entry points (allreduce, reduce, reduce_scatter, broadcast,
// allgather) pick an algorithm per the paper's switching rules (§5.1):
// two-level DPML for small messages (the one-barrier fold for allreduces
// small enough that p·s fits the team's 16 KB fold stage), socket-aware
// movement-avoiding (MA) reduction otherwise, flat MA when the topology has
// one socket.  On teams whose ranks share an address space, allreduces
// above the fold cut take the single-copy direct arm instead, and in the
// MA regime allreduce and reduce_scatter take it on every team: a forked
// team runs it when all ranks' buffers lie in shared windows and falls
// back to the MA arm otherwise (docs/algorithms.md §3c).  Every slice
// copy goes through the adaptive non-temporal policy (§4) unless the
// caller forces a policy arm for experiments.
//
// Buffer semantics follow MPI:
//   reduce_scatter — `send` holds nranks*count elements; rank i receives
//                    the reduced block i (count elements) in `recv`.
//   allreduce      — `send`/`recv` hold count elements on every rank.
//   reduce         — like allreduce but only `root` receives (recv may be
//                    null elsewhere).
//   broadcast      — `buf` holds count elements; root's contents end up in
//                    every rank's buf.
//   allgather      — `send` holds count elements; `recv` (nranks*count)
//                    receives every rank's block in rank order.
//
// All ranks of a team must call each collective with matching arguments
// (same count/dtype/op/root/options), in the same order.
#pragma once

#include <bit>
#include <cstddef>

#include "yhccl/common/types.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/runtime/team.hpp"

namespace yhccl::coll {

using rt::RankCtx;

enum class CollKind : int {
  allreduce,
  reduce,
  reduce_scatter,
  broadcast,
  allgather,
  kCount_,
};

constexpr const char* coll_kind_name(CollKind k) noexcept {
  switch (k) {
    case CollKind::allreduce: return "allreduce";
    case CollKind::reduce: return "reduce";
    case CollKind::reduce_scatter: return "reduce_scatter";
    case CollKind::broadcast: return "broadcast";
    case CollKind::allgather: return "allgather";
    default: return "?";
  }
}

enum class Algorithm : int {
  automatic,        ///< paper §5.1 switching rules (tuner-eligible)
  ma_flat,          ///< movement-avoiding reduction, single level (§3.3)
  ma_socket_aware,  ///< two-level socket-aware MA (§3.3, Fig. 7)
  dpml_two_level,   ///< hierarchical parallel reduction for small messages
  pipelined,        ///< sliced pipeline (broadcast/allgather only, §3.4)
  fold,             ///< one-barrier staged fold (small allreduce only)
  direct,           ///< single-copy allreduce/reduce_scatter (shared
                    ///< address space or shared windows only)
};

constexpr const char* algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::automatic: return "auto";
    case Algorithm::ma_flat: return "ma";
    case Algorithm::ma_socket_aware: return "socket-ma";
    case Algorithm::dpml_two_level: return "dpml-2l";
    case Algorithm::pipelined: return "pipelined";
    case Algorithm::fold: return "fold";
    case Algorithm::direct: return "direct";
  }
  return "?";
}

/// Largest allreduce message the fold arm serves on a p-rank team: each
/// rank owns one power-of-two slot of the team's fold stage, so p·s never
/// exceeds rt::kFoldStageBytes (4 KB at p = 4).
constexpr std::size_t fold_max_bytes(int p) noexcept {
  return std::bit_floor(rt::kFoldStageBytes /
                        static_cast<std::size_t>(p < 1 ? 1 : p));
}

struct CollOpts {
  copy::CopyPolicy policy = copy::CopyPolicy::adaptive;
  Algorithm algorithm = Algorithm::automatic;
  std::size_t slice_max = 256u << 10;  ///< Imax (256 KB on NodeA, §5.3)
  std::size_t slice_min = kCacheline;  ///< Imin = cache line (§5.1)
  /// Below this message size the reduction collectives switch to the
  /// two-level DPML algorithm (§5.1: "e.g. s <= 256 KB").
  std::size_t small_msg_threshold = 256u << 10;
  /// Per-round chunk (bytes of each ownership block) for the DPML-style
  /// parallel reduction; the paper tunes this to small values (8 KB on
  /// NodeA, §5.3).  Clamped to the available scratch automatically.
  std::size_t dpml_chunk = 32u << 10;
  /// Force the DPML algorithm to ignore the socket hierarchy (this is the
  /// paper's original single-level DPML baseline [13]).
  bool dpml_flat = false;
};

// ---- generic, algorithm-switching entry points ----------------------------

void reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts = {});
void allreduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, const CollOpts& opts = {});
void reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
            Datatype d, ReduceOp op, int root, const CollOpts& opts = {});
void broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
               int root, const CollOpts& opts = {});
void allgather(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, const CollOpts& opts = {});

// ---- explicit algorithm arms (benchmarks compare these directly) ----------

void ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                       std::size_t count, Datatype d, ReduceOp op,
                       const CollOpts& opts = {});
void ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                  std::size_t count, Datatype d, ReduceOp op,
                  const CollOpts& opts = {});
void ma_reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, int root, const CollOpts& opts = {});

void socket_ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts = {});
void socket_ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d, ReduceOp op,
                         const CollOpts& opts = {});
void socket_ma_reduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op, int root,
                      const CollOpts& opts = {});

void dpml_two_level_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                                   std::size_t count, Datatype d, ReduceOp op,
                                   const CollOpts& opts = {});
void dpml_two_level_allreduce(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts = {});
void dpml_two_level_reduce(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           int root, const CollOpts& opts = {});

/// One barrier per call: stage my s bytes, sync once, fold all p slots in
/// rank order into `recv`.  Requires s <= fold_max_bytes(p).
void fold_allreduce(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts = {});

/// Single-copy allreduce over peers' own buffers: rank r reduces block r
/// of every send buffer, in rank order, into its recv, then copies the
/// other blocks from their owners' recv buffers (pull, three barriers), or
/// above the private-cache cut 2ps > p·c'' streams its block into every
/// peer's recv (push, two barriers).  DAV s(3p-1) either way.  Requires
/// ranks that share an address space, or every rank's send and recv in a
/// shared window (rt::Team::windows()); throws yhccl::Error on every rank
/// otherwise.
void direct_allreduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op,
                      const CollOpts& opts = {});

/// Single-copy reduce_scatter: rank r reduces block r of every send
/// buffer, in rank order, into its recv, slice by slice, then passes a
/// trailing barrier.  DAV (p+1)s over the input s, two barriers.  In place
/// when recv is block r of send.  Requires what direct_allreduce does, for
/// the send buffers.
void direct_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           const CollOpts& opts = {});

void pipelined_broadcast(RankCtx& ctx, void* buf, std::size_t count,
                         Datatype d, int root, const CollOpts& opts = {});
void pipelined_allgather(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d,
                         const CollOpts& opts = {});

}  // namespace yhccl::coll
