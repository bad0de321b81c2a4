// Algorithm switching (paper §5.1 and Fig. 4), routed through the plan
// cache (docs/tuning.md): the generic entry points resolve a cached plan
// for (collective, size bucket, shape) and dispatch on its algorithm.
// With the tuner at its default (prior mode) the served plans reproduce
// the paper's static rules bit for bit — small reductions go to the
// two-level DPML parallel reduction (cheap synchronization), or to the
// one-barrier fold when an allreduce is small enough, everything
// else to the socket-aware MA reduction (minimal data movement), falling
// back to flat MA on single-socket teams — while warmed or online-refined
// plans can override the choice per size class.  Callers forcing an
// explicit opts.algorithm bypass the tuner entirely.
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/metrics.hpp"

namespace yhccl::coll {

// Metrics cells are indexed by 1 + Algorithm (0 = unknown).
static_assert(1 + static_cast<int>(Algorithm::fold) < metrics::kAlgSlots,
              "metrics algorithm slots cannot hold every Algorithm");

Algorithm choose_reduction_algorithm(const RankCtx& ctx, CollKind kind,
                                     std::size_t msg_bytes,
                                     const CollOpts& opts) {
  return plan::choose_reduction_algorithm(kind, ctx.team().topo(), msg_bytes,
                                          opts);
}

namespace {

/// Decision for one reduction call: the tuned plan when the tuner is
/// active, the static §5.1 rule otherwise (tuner off / explicit arm).
Algorithm reduction_algorithm(const plan::TunedCall& tc, RankCtx& ctx,
                              CollKind kind, std::size_t total,
                              const CollOpts& opts) {
  const Algorithm a = tc.active()
                          ? tc.plan().algorithm
                          : choose_reduction_algorithm(ctx, kind, total, opts);
  YHCCL_REQUIRE(a != Algorithm::pipelined,
                "the pipelined algorithm serves broadcast/allgather only");
  YHCCL_REQUIRE(a != Algorithm::fold || kind == CollKind::allreduce,
                "the fold algorithm serves allreduce only");
  return a;
}

}  // namespace

void reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts) {
  // §5.1 sizes reduce-scatter by its total input vector.
  const std::size_t total =
      count * dtype_size(d) * static_cast<std::size_t>(ctx.nranks());
  plan::TunedCall tc(ctx, CollKind::reduce_scatter, total, d, op, opts);
  const CollOpts& o = tc.active() ? tc.opts() : opts;
  const Algorithm a =
      reduction_algorithm(tc, ctx, CollKind::reduce_scatter, total, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::reduce_scatter),
                         total);
  ms.set_alg(1 + static_cast<int>(a));
  switch (a) {
    case Algorithm::dpml_two_level:
      dpml_two_level_reduce_scatter(ctx, send, recv, count, d, op, o);
      break;
    case Algorithm::ma_socket_aware:
      socket_ma_reduce_scatter(ctx, send, recv, count, d, op, o);
      break;
    default:
      ma_reduce_scatter(ctx, send, recv, count, d, op, o);
      break;
  }
  tc.finish(ctx);
}

void allreduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, const CollOpts& opts) {
  const std::size_t total = count * dtype_size(d);
  plan::TunedCall tc(ctx, CollKind::allreduce, total, d, op, opts);
  const CollOpts& o = tc.active() ? tc.opts() : opts;
  const Algorithm a =
      reduction_algorithm(tc, ctx, CollKind::allreduce, total, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::allreduce), total);
  ms.set_alg(1 + static_cast<int>(a));
  switch (a) {
    case Algorithm::fold:
      fold_allreduce(ctx, send, recv, count, d, op, o);
      break;
    case Algorithm::dpml_two_level:
      dpml_two_level_allreduce(ctx, send, recv, count, d, op, o);
      break;
    case Algorithm::ma_socket_aware:
      socket_ma_allreduce(ctx, send, recv, count, d, op, o);
      break;
    default:
      ma_allreduce(ctx, send, recv, count, d, op, o);
      break;
  }
  tc.finish(ctx);
}

void reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
            Datatype d, ReduceOp op, int root, const CollOpts& opts) {
  const std::size_t total = count * dtype_size(d);
  plan::TunedCall tc(ctx, CollKind::reduce, total, d, op, opts);
  const CollOpts& o = tc.active() ? tc.opts() : opts;
  const Algorithm a =
      reduction_algorithm(tc, ctx, CollKind::reduce, total, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::reduce), total);
  ms.set_alg(1 + static_cast<int>(a));
  switch (a) {
    case Algorithm::dpml_two_level:
      dpml_two_level_reduce(ctx, send, recv, count, d, op, root, o);
      break;
    case Algorithm::ma_socket_aware:
      socket_ma_reduce(ctx, send, recv, count, d, op, root, o);
      break;
    default:
      ma_reduce(ctx, send, recv, count, d, op, root, o);
      break;
  }
  tc.finish(ctx);
}

// Broadcast and allgather have a single implementation (the §3.4 sliced
// pipeline), so any explicit opts.algorithm — Algorithm::pipelined to name
// it, or a reduction arm when one CollOpts drives a mixed trace replay —
// simply bypasses the tuner and runs the pipeline with the caller's
// schedule; Algorithm::automatic routes through the plan cache, which can
// tune the pipeline slice size per size class.

void broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
               int root, const CollOpts& opts) {
  plan::TunedCall tc(ctx, CollKind::broadcast, count * dtype_size(d), d,
                     ReduceOp::sum, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::broadcast),
                         count * dtype_size(d));
  ms.set_alg(1 + static_cast<int>(Algorithm::pipelined));
  pipelined_broadcast(ctx, buf, count, d, root,
                      tc.active() ? tc.opts() : opts);
  tc.finish(ctx);
}

void allgather(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, const CollOpts& opts) {
  plan::TunedCall tc(ctx, CollKind::allgather, count * dtype_size(d), d,
                     ReduceOp::sum, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::allgather),
                         count * dtype_size(d));
  ms.set_alg(1 + static_cast<int>(Algorithm::pipelined));
  pipelined_allgather(ctx, send, recv, count, d,
                      tc.active() ? tc.opts() : opts);
  tc.finish(ctx);
}

}  // namespace yhccl::coll
