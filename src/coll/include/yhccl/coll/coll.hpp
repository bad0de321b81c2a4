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
// caller forces a policy arm for experiments.  An explicit opts.algorithm
// names one row of the arm table (yhccl/coll/arm_table.hpp) and runs it
// without consulting the tuner: this is the one way to run a fixed arm.
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

#include "yhccl/common/coll_names.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/runtime/team.hpp"

namespace yhccl::coll {

using rt::RankCtx;

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

/// The arguments of one collective call.  Broadcast's buffer is `recv`;
/// `op` and `root` are ignored where the collective takes none.
struct CollArgs {
  const void* send = nullptr;
  void* recv = nullptr;
  std::size_t count = 0;
  Datatype dtype = Datatype::f64;
  ReduceOp op = ReduceOp::sum;
  int root = 0;
};

/// Any collective: the per-kind entry points below, by kind.
void collective(RankCtx& ctx, CollKind kind, const CollArgs& args,
                const CollOpts& opts = {});

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

}  // namespace yhccl::coll
