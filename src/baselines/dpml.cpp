// DPML [Bayatpour et al. 2017] — data-partitioning multi-leader parallel
// reduction.  Every rank copies its full sending buffer into shared
// memory, then the ranks reduce disjoint partitions in parallel.  This is
// the redundant copy-in the MA algorithms eliminate (paper Fig. 1b / 2a).
//
// Implemented as the flat (single-level) configuration of the library's
// two-level DPML arm, named explicitly so the tuner is never consulted.
#include "yhccl/baselines/baselines.hpp"

namespace yhccl::base {

namespace {
CollOpts flat(const CollOpts& opts) {
  CollOpts o = opts;
  o.algorithm = coll::Algorithm::dpml_two_level;
  o.dpml_flat = true;
  return o;
}
}  // namespace

void dpml_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d, ReduceOp op,
                         const CollOpts& opts) {
  coll::reduce_scatter(ctx, send, recv, count, d, op, flat(opts));
}

void dpml_allreduce(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts) {
  coll::allreduce(ctx, send, recv, count, d, op, flat(opts));
}

void dpml_reduce(RankCtx& ctx, const void* send, void* recv,
                 std::size_t count, Datatype d, ReduceOp op, int root,
                 const CollOpts& opts) {
  coll::reduce(ctx, send, recv, count, d, op, root, flat(opts));
}

}  // namespace yhccl::base
